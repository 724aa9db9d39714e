"""Registry of gradient-check cases, one per differentiable op.

`OP_CHECKS[name](seed)` returns (forward, backward, leaves) closures over a
flat leaf dict, sized small enough (spatial dims <= 6, C <= 4) that
exhaustive central differences stay cheap.  Every case is one call to
`_case` with the op, its public VJP, the op's named arguments and the
loss cotangent; ops with extra non-differentiable arguments (conv spec,
activation kind, resize dims, softmax axis) bind them with a lambda.
Parameters are seeded through their init functions and then jittered so no
leaf sits at a special value.
"""

import dataclasses

import numpy as np

from . import ops
from .dpam import dpam, dpam_vjp, mgdfis_fuse, mgdfis_fuse_vjp
from .ftssa import (daff, daff_vjp, dyt, dyt_vjp, ftssa, ftssa_vjp, mona,
                    mona_op, mona_op_vjp, mona_vjp, seff, seff_vjp, serr,
                    serr_vjp, tssa, tssa_vjp, xmona, xmona_vjp)
from .gdim import (aggregate, aggregate_vjp, dmm, dmm_attention,
                   dmm_attention_vjp, dmm_directional, dmm_directional_vjp,
                   dmm_vjp, gdim, gdim_vjp, gmm, gmm_vjp)
from .gradcheck import GradReport, grad_check
from .params import (FusionWeights, init_aggregate, init_dmm, init_dpam,
                     init_dyt, init_ftssa, init_gmm, init_mona, init_seff,
                     init_tssa, param_leaves, replace_leaves)
from .rng import stream

OP_CHECKS = {}

# Deep composites weight their loss by this constant: gradient entries they
# shrink by cancellation then land below the relative-error floor, where both
# sides only agree to their own rounding, which scales with the loss.
_SMALL = 0.05
_MAP = (1, 2, 3, 3)     # the common input: two channels on a 3x3 map


def _register(name):
    def deco(fn):
        OP_CHECKS[name] = fn
        return fn
    return deco


def _u(seed, label, shape, lo=-1.0, hi=1.0):
    return stream(seed, label).uniform(shape, lo, hi)


def _jitter(p, seed, label, span=0.3):
    """Shift every learnable leaf by an independent uniform offset."""
    bumped = {}
    for key, v in param_leaves(p).items():
        noise = stream(seed, f"{label}.{key}").uniform(np.shape(v), -span, span)
        bumped[key] = float(v + noise) if np.isscalar(v) else v + noise
    return replace_leaves(p, bumped)


def _flat(name, value):
    """The leaves of one argument: an array under its name, a parameter
    record's learnable leaves under "name." (bare when name is empty)."""
    if dataclasses.is_dataclass(value):
        return param_leaves(value, name + "." if name else "")
    return {name: value}


def _case(op, vjp, args, cot):
    """(forward, backward, leaves) for the loss sum(cot * op(*values)), args
    being the op's arguments as ordered (name, value) pairs.  backward maps
    vjp(*values, cot), one gradient per argument in order (bare for a
    one-argument op), onto the same leaf names.  A scaled loss passes
    np.full(out_shape, s): the same bits as s * op(...)."""
    leaves = {k: v for name, value in args for k, v in _flat(name, value).items()}

    def values(lv):
        return [replace_leaves(v, lv, name + "." if name else "")
                if dataclasses.is_dataclass(v) else lv[name] for name, v in args]

    def forward(lv):
        return cot * op(*values(lv))

    def backward(lv):
        grads = vjp(*values(lv), cot)
        if len(args) == 1:
            grads = (grads,)
        return {k: g for (name, _), grad in zip(args, grads)
                for k, g in _flat(name, grad).items()}

    return forward, backward, leaves


# ---------------------------------------------------------------------------
# tensor-core primitives
# ---------------------------------------------------------------------------

def _conv_check(label, spec, shape):
    def build(seed):
        out_shape = (shape[0], spec.out_channels) + spec.output_hw(*shape[2:])
        return _case(lambda x, w, b: ops.conv2d(x, w, b, spec),
                     lambda x, w, b, gy: ops.conv2d_vjp(x, w, b, spec, gy),
                     [("x", _u(seed, label + ".x", shape)),
                      ("w", _u(seed, label + ".w", spec.weight_shape)),
                      ("b", _u(seed, label + ".b", (spec.out_channels,)))],
                     np.ones(out_shape))
    return build


OP_CHECKS["conv2d_depthwise"] = _conv_check(
    "check.convdw", ops.same_spec(3, 3, 3, groups=3), (1, 3, 4, 4))
OP_CHECKS["conv2d_grouped_strided"] = _conv_check(
    "check.convgs", ops.ConvSpec(4, 4, 3, 2, stride=(2, 1), padding=(1, 0, 2, 1),
                                 dilation=(1, 2), groups=2), (2, 4, 4, 4))


@_register("linear")
def _check_linear(seed):
    return _case(ops.linear, ops.linear_vjp,
                 [("x", _u(seed, "check.lin.x", (3, 4))),
                  ("w", _u(seed, "check.lin.w", (4, 2))),
                  ("b", _u(seed, "check.lin.b", (2,)))], np.ones((3, 2)))


@_register("softmax")
def _check_softmax(seed):
    # weight the outputs: the plain sum is constant along the softmax axis,
    # which would make both gradients identically zero
    return _case(lambda x: ops.softmax(x, 1),
                 lambda x, gy: ops.softmax_vjp(x, 1, gy),
                 [("x", _u(seed, "check.sm.x", (2, 3, 4), -2.0, 2.0))],
                 _u(seed, "check.sm.cot", (2, 3, 4)))


def _act_check(kind):
    return lambda seed: _case(
        lambda x: ops.activation(kind, x),
        lambda x, gy: ops.activation_vjp(kind, x, gy),
        [("x", _u(seed, f"check.act.{kind}.x", (2, 5), -2.0, 2.0))], np.ones((2, 5)))


for _kind in ops.ACTIVATIONS:
    OP_CHECKS[f"activation_{_kind}"] = _act_check(_kind)


@_register("global_avg_pool")
def _check_gap(seed):
    return _case(ops.global_avg_pool, ops.global_avg_pool_vjp,
                 [("x", _u(seed, "check.gap.x", (2, 3, 4, 4)))], np.ones((2, 3, 1, 1)))


@_register("bilinear_resize")
def _check_resize(seed):
    return _case(lambda x: ops.bilinear_resize(x, 5, 4),
                 lambda x, gy: ops.bilinear_resize_vjp(3, 3, gy),
                 [("x", _u(seed, "check.rsz.x", _MAP))], np.ones((1, 2, 5, 4)))


def _fft_filter(x, w_re, w_im):
    """Spectral reweighting in isolation: Re(ifft2(W * fft2(x)))."""
    return ops.ifft2((w_re + 1j * w_im) * ops.fft2(x))


def _fft_filter_vjp(x, w_re, w_im, gy):
    gz = ops.ifft2_vjp(gy)
    gw = np.conj(ops.fft2(x)) * gz
    return ops.fft2_vjp(np.conj(w_re + 1j * w_im) * gz), gw.real, gw.imag


@_register("fft_filter")
def _check_fft_filter(seed):
    # the plain sum of an inverse transform reads only the DC bin, so the
    # loss is weighted to make the whole spectrum observable
    return _case(_fft_filter, _fft_filter_vjp,
                 [("x", _u(seed, "check.fftf.x", _MAP)),
                  ("w_re", _u(seed, "check.fftf.wr", _MAP)),
                  ("w_im", _u(seed, "check.fftf.wi", _MAP))],
                 _u(seed, "check.fftf.cot", _MAP))


# ---------------------------------------------------------------------------
# attention-stage ops
# ---------------------------------------------------------------------------

def _param_check(op, vjp, label, shape, init, scale=1.0, out_shape=None,
                 jitter=".j"):
    """A case for op(x, params): x drawn under label + ".x", the record built
    by init(seed, label) and jittered under label + jitter."""
    def build(seed):
        x = _u(seed, label + ".x", shape)
        p = _jitter(init(seed, label), seed, label + jitter)
        return _case(op, vjp, [("x", x), ("", p)],
                     np.full(out_shape or shape, scale))
    return build


OP_CHECKS["dyt"] = _param_check(dyt, dyt_vjp, "check.dyt", (2, 3, 3, 3),
                                lambda s, l: init_dyt(3), jitter=".p")
OP_CHECKS["tssa"] = _param_check(
    tssa, tssa_vjp, "check.tssa", _MAP,
    lambda s, l: init_tssa(s, l, 2, heads=2, head_dim=1))
# head_dim 2 keeps the per-head radius away from its kink at zero, which a
# single component can hit within finite-difference range
OP_CHECKS["tssa_distribution"] = _param_check(
    tssa, tssa_vjp, "check.tssad", _MAP,
    lambda s, l: init_tssa(s, l, 2, heads=2, head_dim=2, pi_mode="distribution"))
OP_CHECKS["xmona"] = _param_check(xmona, xmona_vjp, "check.xmona", _MAP,
                                  lambda s, l: init_mona(s, l, 2))
# reduced channel count for C=4 at ratio 4 is 1
OP_CHECKS["mona_op"] = _param_check(mona_op, mona_op_vjp, "check.monaop",
                                    (1, 1, 4, 4), lambda s, l: init_mona(s, l, 4))
OP_CHECKS["mona"] = _param_check(mona, mona_vjp, "check.mona", _MAP,
                                 lambda s, l: init_mona(s, l, 2))
OP_CHECKS["seff"] = _param_check(seff, seff_vjp, "check.seff", _MAP,
                                 lambda s, l: init_seff(s, l, 2, base=2))


@_register("daff")
def _check_daff(seed):
    return _case(daff, daff_vjp, [
        ("x", _u(seed, "check.daff.x", _MAP)),
        ("dyt", _jitter(init_dyt(2), seed, "check.daff.dyt")),
        ("tssa", _jitter(init_tssa(seed, "check.daff.tssa", 2, 2, 1), seed,
                         "check.daff.tj")),
        ("mona", _jitter(init_mona(seed, "check.daff.mona", 2), seed,
                         "check.daff.mj"))], np.ones(_MAP))


@_register("serr")
def _check_serr(seed):
    return _case(serr, serr_vjp, [
        ("x", _u(seed, "check.serr.x", _MAP)),
        ("dyt", _jitter(init_dyt(2), seed, "check.serr.dyt")),
        ("seff", _jitter(init_seff(seed, "check.serr.seff", 2, base=2), seed,
                         "check.serr.sj")),
        ("mona", _jitter(init_mona(seed, "check.serr.mona", 2), seed,
                         "check.serr.mj"))], np.full(_MAP, _SMALL))


OP_CHECKS["ftssa"] = _param_check(
    ftssa, ftssa_vjp, "check.ftssa", _MAP,
    lambda s, l: init_ftssa(s, l, 2, heads=2, head_dim=1, seff_base=2), _SMALL)


# ---------------------------------------------------------------------------
# integration and fusion ops
# ---------------------------------------------------------------------------

@_register("aggregate")
def _check_aggregate(seed):
    return _case(aggregate, aggregate_vjp, [
        ("f1", _u(seed, "check.agg.f1", _MAP)),
        ("f2", _u(seed, "check.agg.f2", (1, 3, 2, 2))),
        ("agg", _jitter(init_aggregate(seed, "check.agg", 2, 3), seed,
                        "check.agg.j"))], np.ones(_MAP))


OP_CHECKS["gmm"] = _param_check(gmm, gmm_vjp, "check.gmm", _MAP,
                                lambda s, l: init_gmm(s, l, 2, 3, 3, k=2))


def _init_dmm(seed, label):
    return init_dmm(seed, label, 2, heads=2, head_dim=1, seff_base=2)


OP_CHECKS["dmm_directional"] = _param_check(
    dmm_directional, dmm_directional_vjp, "check.dmmdir", _MAP, _init_dmm)
OP_CHECKS["dmm_attention"] = _param_check(
    dmm_attention, dmm_attention_vjp, "check.dmmatt", _MAP, _init_dmm, _SMALL,
    out_shape=(1, 2, 1, 1))
OP_CHECKS["dmm"] = _param_check(dmm, dmm_vjp, "check.dmm", _MAP, _init_dmm,
                                _SMALL)


@_register("gdim")
def _check_gdim(seed):
    return _case(gdim, gdim_vjp, [
        ("f1", _u(seed, "check.gdim.f1", _MAP)),
        ("f2", _u(seed, "check.gdim.f2", (1, 3, 2, 2))),
        ("gmm", _jitter(init_gmm(seed, "check.gdim.gmm", 2, 3, 3, k=2), seed,
                        "check.gdim.gj")),
        ("dmm", _jitter(_init_dmm(seed, "check.gdim.dmm"), seed, "check.gdim.dj")),
        ("agg", _jitter(init_aggregate(seed, "check.gdim.agg", 2, 3), seed,
                        "check.gdim.aj"))], np.full(_MAP, _SMALL))


@_register("dpam")
def _check_dpam(seed):
    return _case(dpam, dpam_vjp, [
        ("f_agg", _u(seed, "check.dpam.fa", _MAP)),
        ("f_hat", _u(seed, "check.dpam.fh", _MAP)),
        ("", _jitter(init_dpam(seed, "check.dpam", 2), seed, "check.dpam.j"))],
        np.ones(_MAP))


@_register("mgdfis_fuse")
def _check_fuse(seed):
    return _case(mgdfis_fuse, mgdfis_fuse_vjp, [
        ("amap", stream(seed, "check.fuse.amap").uniform(_MAP, 0.05, 0.95)),
        ("f_hat", _u(seed, "check.fuse.fh", _MAP)),
        ("x1", _u(seed, "check.fuse.x1", _MAP)),
        ("x2", _u(seed, "check.fuse.x2", (1, 3, 2, 2))),
        ("w", _jitter(FusionWeights(), seed, "check.fuse.w")),
        ("agg", _jitter(init_aggregate(seed, "check.fuse.agg", 2, 3), seed,
                        "check.fuse.aj"))], np.ones(_MAP))


def run_check(name, seeds=20, eps=1e-4, tol=1e-4):
    """Merge one op's reports over several seeds into a single report."""
    merged = GradReport(name=name, tol=tol)
    for s in range(1, seeds + 1):
        fwd, bwd, leaves = OP_CHECKS[name](s)
        rep = grad_check(name, fwd, bwd, leaves, eps=eps, tol=tol)
        merged.checked += rep.checked
        merged.failures.extend(f"seed {s}: {m}" for m in rep.failures)
        if rep.max_rel_err > merged.max_rel_err:
            merged.max_rel_err = rep.max_rel_err
            merged.worst_leaf = f"seed {s}: {rep.worst_leaf}"
        if rep.max_rel_err > tol:
            merged.failures.append(
                f"seed {s}: max rel err {rep.max_rel_err:.3e} at {rep.worst_leaf}")
    return merged


def run_all(seeds=20, eps=1e-4, tol=1e-4, names=None):
    return [run_check(n, seeds=seeds, eps=eps, tol=tol)
            for n in (names or list(OP_CHECKS))]
