"""Input contracts of the public VJPs: each rejects what its forward rejects,
and a cotangent whose shape is not the forward output's is a ShapeError
rather than a silently broadcast gradient."""

import numpy as np
import pytest

from mgdfis import dpam as D
from mgdfis import ftssa as F
from mgdfis import gdim as G
from mgdfis import ops
from mgdfis.checks import _case
from mgdfis.errors import ShapeError
from mgdfis.gradcheck import grad_check
from mgdfis.params import (FusionWeights, init_aggregate, init_dmm, init_dpam,
                           init_dyt, init_ftssa, init_gmm, init_mona, init_seff,
                           init_tssa)
from mgdfis.rng import stream

C = 2


def u(label, shape=(1, C, 3, 3)):
    return stream(1, label).uniform(shape, -1.0, 1.0)


def _cases():
    x, f2 = u("vc.x"), u("vc.f2", (1, 3, 2, 2))
    mona_p = init_mona(1, "vc.mona", C)
    tssa_p = init_tssa(1, "vc.tssa", C, heads=2, head_dim=1)
    seff_p = init_seff(1, "vc.seff", C, base=2)
    gmm_p = init_gmm(1, "vc.gmm", C, 3, 3, k=2)
    dmm_p = init_dmm(1, "vc.dmm", C, heads=2, head_dim=1, seff_base=2)
    agg_p = init_aggregate(1, "vc.agg", C, 3)
    return {
        "dyt": (F.dyt, F.dyt_vjp, (x, init_dyt(C))),
        "tssa": (F.tssa, F.tssa_vjp, (x, tssa_p)),
        "mona_op": (F.mona_op, F.mona_op_vjp,
                    (u("vc.z", (1, 1, 3, 3)), init_mona(1, "vc.m4", 4))),
        "xmona": (F.xmona, F.xmona_vjp, (x, mona_p)),
        "mona": (F.mona, F.mona_vjp, (x, mona_p)),
        "seff": (F.seff, F.seff_vjp, (x, seff_p)),
        "daff": (F.daff, F.daff_vjp, (x, init_dyt(C), tssa_p, mona_p)),
        "serr": (F.serr, F.serr_vjp, (x, init_dyt(C), seff_p, mona_p)),
        "ftssa": (F.ftssa, F.ftssa_vjp,
                  (x, init_ftssa(1, "vc.ft", C, heads=2, head_dim=1,
                                 seff_base=2))),
        "aggregate": (G.aggregate, G.aggregate_vjp, (x, f2, agg_p)),
        "gmm": (G.gmm, G.gmm_vjp, (x, gmm_p)),
        "dmm_directional": (G.dmm_directional, G.dmm_directional_vjp,
                            (x, dmm_p)),
        "dmm_attention": (G.dmm_attention, G.dmm_attention_vjp, (x, dmm_p)),
        "dmm": (G.dmm, G.dmm_vjp, (x, dmm_p)),
        "gdim": (G.gdim, G.gdim_vjp, (x, f2, gmm_p, dmm_p, agg_p)),
        "dpam": (D.dpam, D.dpam_vjp, (x, u("vc.fh"), init_dpam(1, "vc.dp", C))),
        "mgdfis_fuse": (D.mgdfis_fuse, D.mgdfis_fuse_vjp,
                        (u("vc.amap"), u("vc.fh"), x, f2, FusionWeights(),
                         agg_p)),
    }


@pytest.mark.parametrize("name", list(_cases()))
def test_vjp_rejects_cotangent_not_shaped_like_output(name):
    fwd, vjp, args = _cases()[name]
    shape = fwd(*args).shape
    vjp(*args, np.ones(shape))
    for bad in [(2,) + shape[1:], shape[:3] + (shape[3] + 1,), shape[:3]]:
        with pytest.raises(ShapeError, match=f"{name}_vjp"):
            vjp(*args, np.ones(bad))


@pytest.mark.parametrize("name", list(_cases()))
def test_forward_and_vjp_reject_complex_input(name):
    # a cast to float64 would drop the imaginary part with only a warning
    fwd, vjp, (x, *rest) = _cases()[name]
    z = x + 0.5j * x
    with pytest.raises(ShapeError, match="'dtype' expected real, got complex128"):
        fwd(z, *rest)
    with pytest.raises(ShapeError, match="'dtype' expected real, got complex128"):
        vjp(z, *rest, np.ones(fwd(x, *rest).shape))


def test_tssa_tokens_rejects_complex_tokens():
    # the token entry point, which has no feature map to check
    p = init_tssa(1, "vc.tt", C, heads=2, head_dim=1)
    with pytest.raises(ShapeError, match="tssa: axis 'dtype' expected real, got complex128"):
        F.tssa_tokens((1 + 0.5j) * u("vc.tt.t", (1, 4, C)), p)


@pytest.mark.parametrize("name", list(_cases()))
def test_vjp_rejects_complex_cotangent(name):
    # a cast to float64 would drop the imaginary part with only a warning
    fwd, vjp, args = _cases()[name]
    gy = (1 + 2j) * np.ones(fwd(*args).shape)
    with pytest.raises(ShapeError,
                       match=f"{name}_vjp: axis 'dtype' expected real, got complex128"):
        vjp(*args, gy)


def _op_cases():
    """name: (vjp of gy alone, its forward's output shape, bad cotangent
    shapes).  The FFT VJPs see only gy, so any (N, C, H, W) stands for some
    forward output and only another rank is bad."""
    x, x2 = u("vc.x"), u("vc.x2", (2, 3))
    w, b = u("vc.lw", (3, 4)), u("vc.lb", (4,))
    cw, cb, spec = u("vc.cw", (3, C, 2, 2)), u("vc.cb", (3,)), ops.ConvSpec(C, 3, 2, 2)
    out = x.shape
    bad = [(2,) + out[1:], out[:3] + (out[3] + 1,), out[:3], (3,)]
    rank = [out[:3], (3,)]
    return {
        "conv2d_vjp": (lambda gy: ops.conv2d_vjp(x, cw, cb, spec, gy), (1, 3, 2, 2),
                       [out, (1, 3, 2, 3), (1, 3, 2), (3,)]),
        "linear_vjp": (lambda gy: ops.linear_vjp(x2, w, b, gy), (2, 4),
                       [(2, 3), (1, 4), (4,), (2, 4, 1)]),
        "softmax_vjp": (lambda gy: ops.softmax_vjp(x, 1, gy), out,
                        bad + [(1, 1, 3, 3)]),
        "activation_vjp": (lambda gy: ops.activation_vjp("tanh", x, gy), out, bad),
        "global_avg_pool_vjp": (lambda gy: ops.global_avg_pool_vjp(x, gy),
                                (1, C, 1, 1), [out, (2, C, 1, 1), (1, C, 1)]),
        "bilinear_resize_vjp": (lambda gy: ops.bilinear_resize_vjp(2, 2, gy), out,
                                rank),
        "fft2_vjp": (ops.fft2_vjp, out, rank),
        "ifft2_vjp": (ops.ifft2_vjp, out, rank),
        "irfft2_vjp": (ops.irfft2_vjp, out, rank),
        "rfft2_vjp": (lambda gy: ops.rfft2_vjp(gy, 3), out[:3] + (2,),
                      rank + [out]),
        "half_spectrum_weight_vjp": (
            lambda gy: ops.half_spectrum_weight_vjp(2, 2, 3, gy), (C, 3, 2),
            [(C, 3, 3), (2,), ()]),
    }


@pytest.mark.parametrize("name", list(_op_cases()))
def test_op_vjp_rejects_cotangent_not_shaped_like_output(name):
    # a shape error, not a silent broadcast or numpy's own error
    vjp, shape, bad_shapes = _op_cases()[name]
    vjp(np.ones(shape))
    for bad in bad_shapes:
        with pytest.raises(ShapeError, match=name):
            vjp(np.ones(bad))


# these VJPs take a spectrum's cotangent, which is complex
_COMPLEX_COTANGENT = ("fft2_vjp", "rfft2_vjp", "half_spectrum_weight_vjp")


@pytest.mark.parametrize("name", [n for n in _op_cases() if n not in _COMPLEX_COTANGENT])
def test_op_vjp_rejects_complex_cotangent(name):
    # not a complex gradient of a real op, nor numpy's own error
    vjp, shape, _ = _op_cases()[name]
    with pytest.raises(ShapeError,
                       match=f"{name}: axis 'dtype' expected real, got complex128"):
        vjp((1 + 2j) * np.ones(shape))


def _zero_token_case(pi_mode):
    """tssa's arguments and a cotangent, the token at (1, 2) all zero: its
    statistics have radius 0 in every head."""
    x = u("vc.zt.x")
    x[:, :, 1, 2] = 0.0
    p = init_tssa(1, "vc.zt.p", C, heads=2, head_dim=2, pi_mode=pi_mode)
    return x, p, u("vc.zt.gy")


@pytest.mark.parametrize("pi_mode", ["constant", "distribution"])
def test_tssa_vjp_is_finite_on_an_all_zero_token(pi_mode):
    gx, gp = F.tssa_vjp(*_zero_token_case(pi_mode))
    assert all(np.all(np.isfinite(g))
               for g in (gx, gp.qkv_weight, gp.out_weight, gp.out_bias))


def test_tssa_vjp_on_an_all_zero_token_passes_gradcheck():
    # constant mode only: the distribution mode's scores (r / (r + 1e-8))^2
    # step from 0 to about 1 within 1e-8 of radius 0, so a central
    # difference of step 1e-4 at the zero token sees through the step and
    # misses the derivative by about 4e-4 relative, with or without a guard
    x, p, gy = _zero_token_case("constant")
    rep = grad_check("tssa_zero_token", *_case(F.tssa, F.tssa_vjp, [("x", x), ("", p)], gy),
                     eps=1e-4, tol=1e-4)
    assert rep.passed, rep.summary()


def test_dyt_vjp_rejects_batch_two_cotangent_for_batch_one_input():
    with pytest.raises(ShapeError, match="'batch' expected 1, got 2"):
        F.dyt_vjp(u("vc.x"), init_dyt(C), np.ones((2, C, 3, 3)))


def test_dmm_attention_vjp_wants_the_gate_shape():
    x = u("vc.x")
    p = init_dmm(1, "vc.dmm", C, heads=2, head_dim=1, seff_base=2)
    g_x, _ = G.dmm_attention_vjp(x, p, np.ones((1, C, 1, 1)))
    assert g_x.shape == x.shape
    with pytest.raises(ShapeError, match="height"):
        G.dmm_attention_vjp(x, p, np.ones_like(x))


def test_fuse_vjp_rejects_amap_its_forward_rejects():
    amap, fh, x1 = u("vc.amap", (1, 1, 3, 3)), u("vc.fh"), u("vc.x")
    args = (amap, fh, x1, x1, FusionWeights(), None)
    with pytest.raises(ShapeError, match="mgdfis_fuse"):
        D.mgdfis_fuse(*args)
    with pytest.raises(ShapeError, match="mgdfis_fuse"):
        D.mgdfis_fuse_vjp(*args, np.ones_like(fh))


def test_gdim_vjp_rejects_what_gdim_rejects():
    gmm_p = init_gmm(1, "vc.gmm", C, 3, 3, k=2)
    dmm_p = init_dmm(1, "vc.dmm", C, heads=2, head_dim=1, seff_base=2)
    agg_p = init_aggregate(1, "vc.agg", C, 3)
    f1 = u("vc.x")
    f2 = u("vc.f2", (1, 4, 2, 2))        # projection expects 3 channels
    for call in (lambda: G.gdim(f1, f2, gmm_p, dmm_p, agg_p),
                 lambda: G.gdim_vjp(f1, f2, gmm_p, dmm_p, agg_p, np.ones_like(f1))):
        with pytest.raises(ShapeError, match="channel"):
            call()


def test_aggregate_rejects_batch_mismatch_instead_of_broadcasting():
    f1, f2 = u("vc.x"), u("vc.f2", (2, 3, 2, 2))
    agg_p = init_aggregate(1, "vc.agg", C, 3)
    with pytest.raises(ShapeError, match="batch"):
        G.aggregate(f1, f2, agg_p)
    with pytest.raises(ShapeError, match="batch"):
        G.aggregate_vjp(f1, f2, agg_p, np.ones_like(f1))
