"""Attention-stage tests: per-channel tanh transform, token-statistics
attention, bottleneck adapters, spectral feed-forward, and the two-stage
composition, against hand cases and loop oracles."""

import dataclasses
import math
import sys
import tracemalloc
import weakref

import mpmath
import numpy as np
import pytest

import oracles as orc
from mgdfis import bench, checks
from mgdfis import ftssa as F
from mgdfis import ops
from mgdfis.ftssa import (_tssa_parts, daff, dyt, ftssa, mona, mona_op,
                          mona_op_vjp, seff, serr, spectral_filter,
                          spectral_filter_vjp, tssa, tssa_tokens, tssa_vjp,
                          xmona)
from mgdfis.params import (DyTParams, TssaParams, init_dyt, init_ftssa,
                           init_mona, init_seff, init_tssa,
                           zeros_like_params)
from mgdfis.rng import stream
from mgdfis.tensor import Cache, cached, from_tokens, to_tokens

mpmath.mp.dps = 50


def u(seed, label, shape, lo=-1.0, hi=1.0):
    return stream(seed, label).uniform(shape, lo, hi)


# ---------------------------------------------------------------------------
# token layout
# ---------------------------------------------------------------------------

def test_token_order_is_row_major():
    x = u(1, "tok.x", (1, 3, 2, 4))
    t = to_tokens(x)
    assert t.shape == (1, 8, 3)
    for c in range(3):
        for y in range(2):
            for xx in range(4):
                assert t[0, y * 4 + xx, c] == x[0, c, y, xx]
    assert np.array_equal(from_tokens(t, 2, 4), x)


# ---------------------------------------------------------------------------
# dyt
# ---------------------------------------------------------------------------

def test_dyt_zero_input_returns_shift():
    p = DyTParams(alpha=0.7, gamma=u(2, "d.g", (3,)), beta=u(2, "d.b", (3,)))
    out = dyt(np.zeros((2, 3, 4, 4)), p)
    want = np.broadcast_to(p.beta[None, :, None, None], out.shape)
    assert np.array_equal(out, want)


def test_dyt_large_alpha_saturates():
    p = DyTParams(alpha=50.0, gamma=u(3, "d.g", (2,), 0.5, 2.0),
                  beta=u(3, "d.b", (2,)))
    x = u(3, "d.x", (1, 2, 3, 3), -4.0, 4.0)
    x = np.where(np.abs(x) < 1.0, 1.5, x)  # keep |alpha*x| >= 50
    out = dyt(x, p)
    want = (p.gamma[None, :, None, None] * np.sign(x)
            + p.beta[None, :, None, None])
    assert np.max(np.abs(out - want)) < 1e-8


def test_dyt_point_value_high_precision():
    p = DyTParams(alpha=0.5, gamma=np.array([2.0]), beta=np.array([1.0]))
    out = dyt(np.full((1, 1, 1, 1), 2.0), p)
    want = float(2 * mpmath.tanh(1) + 1)
    assert abs(out[0, 0, 0, 0] - want) < 1e-12


def test_dyt_output_stays_in_channel_band():
    p = DyTParams(alpha=1.3, gamma=u(4, "d.g", (3,), -2, 2),
                  beta=u(4, "d.b", (3,), -1, 1))
    out = dyt(u(4, "d.x", (2, 3, 5, 5), -9, 9), p)
    for c in range(3):
        band = abs(p.gamma[c]) + 1e-12
        assert np.all(np.abs(out[:, c] - p.beta[c]) <= band)


def test_dyt_matches_reference():
    p = DyTParams(alpha=0.9, gamma=u(5, "d.g", (4,)), beta=u(5, "d.b", (4,)))
    x = u(5, "d.x", (2, 4, 3, 3), -2, 2)
    assert np.max(np.abs(dyt(x, p) - orc.dyt_ref(x, p))) < 1e-12


# ---------------------------------------------------------------------------
# tssa
# ---------------------------------------------------------------------------

def _tssa_params(seed, c, heads, head_dim, pi_mode="constant"):
    return init_tssa(seed, "t", c, heads, head_dim, pi_mode)


def test_tssa_zero_weights_emit_bias():
    bias = u(6, "t.b", (3,))
    p = TssaParams(heads=2, head_dim=2, qkv_weight=np.zeros((3, 4)),
                   out_weight=np.zeros((4, 3)), out_bias=bias)
    out = tssa(u(6, "t.x", (1, 3, 2, 2)), p)
    want = np.broadcast_to(bias[None, :, None, None], (1, 3, 2, 2))
    assert np.max(np.abs(out - want)) < 1e-15


def test_tssa_single_token():
    p = _tssa_params(7, 4, 2, 3)
    x = u(7, "t.x", (2, 4, 1, 1))
    got = tssa(x, p)
    want = orc.tssa_ref(x, p)
    assert got.shape == (2, 4, 1, 1)
    assert np.max(np.abs(got - want)) < 1e-12


def test_tssa_two_tokens_hand_computed():
    # one head, d = 2, two tokens, one channel pair; every step by hand
    qkv = np.array([[0.5, -0.25], [1.0, 0.75]])
    wo = np.array([[0.3, -0.1], [0.2, 0.4]])
    bo = np.array([0.05, -0.02])
    p = TssaParams(heads=1, head_dim=2, qkv_weight=qkv, out_weight=wo,
                   out_bias=bo)
    t = np.array([[[1.0, 2.0], [-0.5, 0.25]]])
    want = np.empty((1, 2, 2))
    for tok in range(2):
        f = [sum(t[0, tok, i] * qkv[i, j] for i in range(2)) for j in range(2)]
        # one head: the head distribution is exactly 1
        ratio = 1.0 / (2 * 1.0 + p.eps)
        pre = [-fi * math.pi / (1.0 + ratio * fi * fi) for fi in f]
        want[0, tok] = [pre[0] * wo[0, j] + pre[1] * wo[1, j] + bo[j]
                        for j in range(2)]
    got = tssa_tokens(t, p)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("heads,head_dim,hw", [(1, 2, (2, 2)), (2, 3, (2, 3)),
                                               (4, 2, (3, 3))])
def test_tssa_matches_reference(heads, head_dim, hw):
    c = 4
    p = _tssa_params(8 + heads, c, heads, head_dim)
    x = u(8 + heads, "t.x", (2, c) + hw)
    assert np.max(np.abs(tssa(x, p) - orc.tssa_ref(x, p))) < 1e-10


def test_tssa_distribution_mode_matches_reference():
    p = _tssa_params(9, 4, 2, 2, pi_mode="distribution")
    x = u(9, "t.x", (1, 4, 3, 2))
    assert np.max(np.abs(tssa(x, p) - orc.tssa_ref(x, p))) < 1e-10


def test_tssa_pi_modes_differ_by_constant_factor_for_one_head():
    # with a single head the head distribution is identically 1, so the two
    # modes differ only in the -pi vs -1 scale before the output projection
    pc = _tssa_params(10, 3, 1, 4, pi_mode="constant")
    pd = dataclasses.replace(pc, pi_mode="distribution")
    x = u(10, "t.x", (1, 3, 2, 2))
    oc = tssa(x, pc) - pc.out_bias[None, :, None, None]
    od = tssa(x, pd) - pc.out_bias[None, :, None, None]
    assert np.max(np.abs(oc - math.pi * od)) < 1e-12


@pytest.mark.parametrize("pi_mode", ["constant", "distribution"])
def test_tssa_token_blocks_match_one_pass(pi_mode, monkeypatch):
    # tssa runs over blocks of _TOKEN_BLOCK tokens: blocks of 7 over 30
    # tokens, the last one short, agree with a single 30-token block
    p = _tssa_params(11, 5, 2, 3, pi_mode=pi_mode)
    x = u(11, "t.x", (2, 5, 6, 5))
    gy = u(11, "t.gy", x.shape)

    def outputs():
        gx, gp = tssa_vjp(x, p, gy)
        return [tssa(x, p), tssa_tokens(to_tokens(x), p), gx, gp.qkv_weight,
                gp.out_weight, gp.out_bias]

    want = outputs()
    monkeypatch.setattr(F, "_TOKEN_BLOCK", 7)
    for got, ref in zip(outputs(), want):
        assert np.max(np.abs(got - ref)) < 1e-12


@pytest.mark.parametrize("name", ["tssa", "tssa_distribution"])
def test_tssa_multi_block_backward_passes_gradcheck(name, monkeypatch):
    # the registry's 3x3 map is 9 tokens: blocks of 4 give three blocks, the
    # last one short, so the backward adds weight gradients across blocks
    monkeypatch.setattr(F, "_TOKEN_BLOCK", 4)
    rep = checks.run_check(name, seeds=3)
    assert rep.passed, rep.failures


def test_tssa_caches_one_sub_cache_per_block(monkeypatch):
    monkeypatch.setattr(F, "_TOKEN_BLOCK", 4)
    p = _tssa_params(14, 3, 2, 2)
    x = u(14, "t.x", (2, 3, 3, 3))
    out, cache = cached(tssa, x, p)
    assert sorted(cache) == [0, 4, 8]
    # attn is elementwise in f and pi, so backward rebuilds it
    assert all(set(q) == {"t", "f", "r", "pi"} for q in cache.values())
    F._tssa_bwd(cache, p, u(14, "t.gy", out.shape))
    assert cache == {}


def test_tssa_tokens_keeps_no_block_caches():
    # 8192 tokens at the bench shapes are eight blocks; holding every block's
    # cache until the end traced a 12.1 MiB peak, one block at a time 5.6 MiB
    c = bench.BENCH_CHANNELS
    p = init_tssa(1, "bench.tssa", c, bench.BENCH_HEADS, bench.BENCH_HEAD_DIM)
    t = u(1, "t.tok", (1, 8192, c))
    tssa_tokens(t, p)
    tracemalloc.start()
    try:
        tssa_tokens(t, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, peak / 2**20


def test_tssa_head_distribution_and_attention_ranges():
    for seed in range(12, 12 + 25):
        p = _tssa_params(seed, 4, 3, 2)
        t = u(seed, "t.x", (1, 6, 4), -3, 3)
        parts = _tssa_parts(t, p)
        assert np.max(np.abs(parts["pi"].sum(axis=1) - 1.0)) < 1e-6
        assert np.all(parts["attn"] > 0.0) and np.all(parts["attn"] <= 1.0)


# ---------------------------------------------------------------------------
# mona
# ---------------------------------------------------------------------------

def test_mona_op_zero_weights_is_identity():
    p = zeros_like_params(init_mona(13, "m", 8, ratio=4))
    z = u(13, "m.z", (1, 2, 4, 4))
    assert np.array_equal(mona_op(z, p), z)


def test_mona_op_zero_input_is_zero():
    p = init_mona(14, "m", 8, ratio=4)  # biases init to zero
    assert np.max(np.abs(mona_op(np.zeros((1, 2, 5, 5)), p))) == 0.0


def test_mona_op_matches_reference():
    p = init_mona(15, "m", 8, ratio=4)
    z = u(15, "m.z", (1, 2, 5, 5))
    assert np.max(np.abs(mona_op(z, p) - orc.mona_op_ref(z, p))) < 1e-10


def _unfolded_mona_op(z, p, gy):
    """mona_op and its VJP with dw3, dw5 and dw7 run as three separate
    depthwise convs: (output, input gradient, {leaf: gradient})."""
    cr = z.shape[1]
    convs = {k: (getattr(p, f"dw{k}_weight"), getattr(p, f"dw{k}_bias"),
                 ops.same_spec(cr, k, k, groups=cr)) for k in (3, 5, 7)}
    mix = ops.same_spec(cr, 1, 1)
    mix_in = sum(ops.conv2d(z, *conv) for conv in convs.values()) / 3.0 + z
    out = z + ops.conv2d(mix_in, p.mix_weight, p.mix_bias, mix)
    g_mix_in, g_mix_w, g_mix_b = ops.conv2d_vjp(mix_in, p.mix_weight,
                                                p.mix_bias, mix, gy)
    grads = {"mix_weight": g_mix_w, "mix_bias": g_mix_b}
    gz = gy + g_mix_in
    for k, conv in convs.items():
        g, grads[f"dw{k}_weight"], grads[f"dw{k}_bias"] = ops.conv2d_vjp(
            z, *conv, g_mix_in / 3.0)
        gz = gz + g
    return out, gz, grads


@pytest.mark.parametrize("hw", [(1, 1), (2, 3), (6, 6)])
def test_mona_op_fold_equals_the_three_convs(hw):
    # the folded 7x7 kernel stands for dw3 + dw5 + dw7, in the output, the
    # input gradient and every conv leaf's gradient, biases included
    p = init_mona(19, "m", 12, ratio=4)
    p = dataclasses.replace(p, **{name: u(19, "m." + name, (3,)) for name in (
        "dw3_bias", "dw5_bias", "dw7_bias", "mix_bias")})
    z = u(19, "m.z", (2, 3) + hw)
    gy = u(19, "m.gy", z.shape)
    want, want_gz, want_grads = _unfolded_mona_op(z, p, gy)
    assert np.max(np.abs(mona_op(z, p) - want)) < 1e-12
    gz, gp = mona_op_vjp(z, p, gy)
    assert np.max(np.abs(gz - want_gz)) < 1e-12
    for name, g in want_grads.items():
        assert getattr(gp, name).shape == g.shape, name
        assert np.max(np.abs(getattr(gp, name) - g)) < 1e-12, name


def test_xmona_zero_scale():
    p = dataclasses.replace(init_mona(16, "m", 4), skip_scale=0.0)
    assert np.max(np.abs(xmona(u(16, "m.x", (1, 4, 3, 3)), p))) == 0.0


def test_xmona_identity_skip_is_tiny_copy():
    p = dataclasses.replace(init_mona(17, "m", 4), skip_weight=np.eye(4))
    x = u(17, "m.x", (2, 4, 3, 3))
    assert np.max(np.abs(xmona(x, p) - 1e-6 * x)) < 1e-18


def test_xmona_matches_reference():
    p = init_mona(18, "m", 4)
    x = u(18, "m.x", (2, 4, 3, 3))
    assert np.max(np.abs(xmona(x, p) - orc.xmona_ref(x, p))) < 1e-15


def test_mona_zero_params_zero_output():
    p = zeros_like_params(init_mona(19, "m", 4))
    assert np.max(np.abs(mona(u(19, "m.x", (1, 4, 4, 4)), p))) == 0.0


def test_mona_skip_only_path():
    p = dataclasses.replace(zeros_like_params(init_mona(20, "m", 4)),
                            skip_weight=np.eye(4), skip_scale=1e-6)
    x = u(20, "m.x", (1, 4, 4, 4))
    assert np.max(np.abs(mona(x, p) - 1e-6 * x)) < 1e-18


def test_mona_matches_reference():
    p = init_mona(21, "m", 8, ratio=4)
    x = u(21, "m.x", (1, 8, 5, 5))
    assert np.max(np.abs(mona(x, p) - orc.mona_ref(x, p))) < 1e-10


# ---------------------------------------------------------------------------
# seff
# ---------------------------------------------------------------------------

def test_seff_zero_params_zero_output():
    p = zeros_like_params(init_seff(22, "s", 2, base=4))
    assert np.max(np.abs(seff(u(22, "s.x", (1, 2, 4, 4)), p))) == 0.0


def test_seff_unit_frequency_weights_reduce_to_gated_product():
    # all-ones real frequency response and identity merge: the transform
    # pair cancels and only the branch gating silu(f2) * f1 remains
    c = 2
    p = init_seff(23, "s", c, base=4)
    p = dataclasses.replace(
        p,
        w1_re=np.ones((c, 4, 4)), w1_im=np.zeros((c, 4, 4)),
        w2_re=np.ones((c, 4, 4)), w2_im=np.zeros((c, 4, 4)),
        merge_weight=np.eye(c).reshape(c, c, 1, 1))
    x = u(23, "s.x", (1, c, 4, 4))
    split = ops.conv2d(x, p.split_weight, p.split_bias,
                       ops.same_spec(c, 1, 1, out_channels=2 * c))
    f1 = ops.conv2d(split[:, :c], p.branch1_weight, p.branch1_bias,
                    ops.same_spec(c, 3, 3, groups=c))
    f2 = ops.conv2d(split[:, c:], p.branch2_weight, p.branch2_bias,
                    ops.same_spec(c, 3, 3, groups=c, dilation=(2, 2)))
    want = ops.silu(f2) * f1
    assert np.max(np.abs(seff(x, p) - want)) < 1e-9


def test_seff_matches_reference():
    p = init_seff(24, "s", 2, base=4)
    x = u(24, "s.x", (1, 2, 4, 4))
    assert np.max(np.abs(seff(x, p) - orc.seff_ref(x, p))) < 1e-10


def test_seff_resized_frequency_weights_match_reference():
    # spatial dims differ from the stored base resolution, so the frequency
    # planes go through the resize matrices of the half-spectrum weight
    p = init_seff(25, "s", 2, base=4)
    x = u(25, "s.x", (1, 2, 5, 7))
    assert np.max(np.abs(seff(x, p) - orc.seff_ref(x, p))) < 1e-10


@pytest.mark.parametrize("h,w", [(1, 1), (1, 6), (5, 1), (4, 6), (7, 5)])
def test_seff_branch_real_fft_matches_complex_formula(h, w):
    # seff's half-spectrum filter against Re(ifft2(W * fft2(z) + b)) over the
    # full complex spectrum and that formula's VJP, on 1xN, Nx1, even-width
    # (Nyquist column) and odd maps at batch 2
    c = 3
    p = init_seff(26, "s", c, base=4)
    args = (p.w1_re, p.w1_im, p.freq_bias1)
    z = u(26, "br.x", (2, c, h, w))
    gy = u(26, "br.gy", (2, c, h, w))
    cache = Cache()
    out = spectral_filter(z, *args, cache=cache)
    assert set(cache) == {"spectrum"}    # the weight is rebuilt
    got = spectral_filter_vjp(z, *args, gy)

    spectrum = np.fft.fft2(z, axes=(-2, -1))
    weight = (ops.bilinear_resize(p.w1_re[None], h, w)
              + 1j * ops.bilinear_resize(p.w1_im[None], h, w))
    want_out = np.fft.ifft2(weight * spectrum + p.freq_bias1[None, :, None, None],
                            axes=(-2, -1)).real
    gz = np.fft.fft2(gy, axes=(-2, -1)) / (h * w)   # VJP of Re(ifft2)
    gw = (np.conj(spectrum) * gz).sum(axis=0, keepdims=True)
    g_spectrum = np.conj(weight) * gz   # fft2's VJP at a real input: h w Re(ifft2)
    want = (h * w * np.fft.ifft2(g_spectrum, axes=(-2, -1)).real,
            ops.bilinear_resize_vjp(4, 4, gw.real)[0],
            ops.bilinear_resize_vjp(4, 4, gw.imag)[0],
            gz.real.sum(axis=(0, 2, 3)))
    assert np.max(np.abs(out - want_out)) < 1e-12
    for g, g_want in zip(got, want):
        assert g.shape == g_want.shape
        assert np.max(np.abs(g - g_want)) < 1e-12


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="under CPython 3.10 a caller holds the arguments it "
                           "passes inline until the call returns")
def test_seff_drops_its_input_and_split_before_the_first_fft(monkeypatch):
    # without a cache, the map handed to seff inline is freed once the split
    # conv has read it, and the split once both depthwise convs have, so
    # neither lives through the spectral halves
    p = init_seff(27, "s", 2, base=4)
    seen = {}

    def fresh():
        x = u(27, "s.x", (1, 2, 5, 6))
        seen["x"] = weakref.ref(x)
        return x

    conv2d, rfft2 = F.conv2d, ops.rfft2

    def recording_conv2d(x, w, b, spec):
        out = conv2d(x, w, b, spec)
        seen.setdefault("split", weakref.ref(out))     # seff's first conv
        return out

    def probing_rfft2(z):
        seen.setdefault("alive", (seen["x"]() is not None, seen["split"]() is not None))
        return rfft2(z)

    monkeypatch.setattr(F, "conv2d", recording_conv2d)
    monkeypatch.setattr(ops, "rfft2", probing_rfft2)
    out = seff(fresh(), p)
    assert seen["alive"] == (False, False)
    monkeypatch.undo()
    assert np.array_equal(out, seff(u(27, "s.x", (1, 2, 5, 6)), p))


# ---------------------------------------------------------------------------
# stage compositions
# ---------------------------------------------------------------------------

def _stage_parts(seed, c):
    return (init_dyt(c), init_tssa(seed, "st.t", c, 2, 2),
            init_mona(seed, "st.m", c, 4), init_seff(seed, "st.s", c, 4))


def test_daff_zero_params_zero_output():
    dy, ts, mo, _ = _stage_parts(26, 4)
    out = daff(u(26, "c.x", (1, 4, 3, 3)), zeros_like_params(dy),
                 zeros_like_params(ts), zeros_like_params(mo))
    assert np.max(np.abs(out)) == 0.0


def test_daff_skip_only_is_tiny_copy():
    dy, ts, mo, _ = _stage_parts(27, 4)
    mo = dataclasses.replace(zeros_like_params(mo), skip_weight=np.eye(4),
                             skip_scale=1e-6)
    x = u(27, "c.x", (1, 4, 3, 3))
    out = daff(x, zeros_like_params(dy), zeros_like_params(ts), mo)
    assert np.max(np.abs(out - 1e-6 * x)) < 1e-18


def test_daff_matches_reference():
    dy, ts, mo, _ = _stage_parts(28, 4)
    x = u(28, "c.x", (1, 4, 3, 3))
    got = daff(x, dy, ts, mo)
    assert np.max(np.abs(got - orc.daff_ref(x, dy, ts, mo))) < 1e-10


def test_serr_skip_only_is_tiny_copy():
    dy, _, mo, se = _stage_parts(29, 4)
    mo = dataclasses.replace(zeros_like_params(mo), skip_weight=np.eye(4),
                             skip_scale=1e-6)
    x = u(29, "c.x", (1, 4, 4, 4))
    out = serr(x, zeros_like_params(dy), zeros_like_params(se), mo)
    assert np.max(np.abs(out - 1e-6 * x)) < 1e-18


def test_serr_matches_reference():
    dy, _, mo, se = _stage_parts(30, 4)
    x = u(30, "c.x", (1, 4, 4, 4))
    got = serr(x, dy, se, mo)
    assert np.max(np.abs(got - orc.serr_ref(x, dy, se, mo))) < 1e-10


def test_ftssa_zero_params_zero_output():
    p = zeros_like_params(init_ftssa(31, "f", 4, heads=2, head_dim=2,
                                     seff_base=4))
    assert np.max(np.abs(ftssa(u(31, "c.x", (1, 4, 3, 3)), p))) == 0.0


def test_ftssa_preserves_dims():
    p = init_ftssa(32, "f", 8, heads=2, head_dim=4, seff_base=4)
    out = ftssa(u(32, "c.x", (2, 8, 6, 6)), p)
    assert out.shape == (2, 8, 6, 6)


def test_ftssa_matches_reference():
    p = init_ftssa(33, "f", 4, heads=2, head_dim=2, seff_base=4)
    x = u(33, "c.x", (1, 4, 4, 4))
    assert np.max(np.abs(ftssa(x, p) - orc.ftssa_ref(x, p))) < 1e-9
