"""Registry of gradient-check cases, one per differentiable op.

Each builder takes a seed and returns (forward, backward, leaves) closures
over a flat leaf dict, sized small enough (spatial dims <= 6, C <= 4) that
exhaustive central differences stay cheap.  Parameters are seeded through
their init functions and then jittered so no leaf sits at a special value.
"""

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


def _record_case(op, vjp, p, x, scale=1.0, out_shape=None):
    """Closures for the common (input, params) -> output signature.

    scale weights the loss; deep composites pass a small value so gradient
    entries they shrink by cancellation land below the relative-error floor,
    where the fixed absolute slop covers both sides' own rounding.
    out_shape is the op's output shape when it differs from the input's; the
    backward closure builds its cotangent from it rather than running the
    forward, so it evaluates the op once, inside the VJP."""
    leaves = {"x": x, **param_leaves(p)}
    cot = np.full(out_shape or x.shape, scale)

    def forward(lv):
        return scale * op(lv["x"], replace_leaves(p, lv))

    def backward(lv):
        gx, gp = vjp(lv["x"], replace_leaves(p, lv), cot)
        return {"x": gx, **param_leaves(gp)}

    return forward, backward, leaves


# ---------------------------------------------------------------------------
# tensor-core primitives
# ---------------------------------------------------------------------------

def _conv_case(seed, label, spec, shape):
    x = _u(seed, label + ".x", shape)
    w = _u(seed, label + ".w", spec.weight_shape)
    b = _u(seed, label + ".b", (spec.out_channels,))
    out_shape = (shape[0], spec.out_channels) + spec.output_hw(shape[2], shape[3])

    def forward(lv):
        return ops.conv2d(lv["x"], lv["w"], lv["b"], spec)

    def backward(lv):
        gx, gw, gb = ops.conv2d_vjp(lv["x"], lv["w"], lv["b"], spec,
                                    np.ones(out_shape))
        return {"x": gx, "w": gw, "b": gb}

    return forward, backward, {"x": x, "w": w, "b": b}


@_register("conv2d_depthwise")
def _check_conv_dw(seed):
    return _conv_case(seed, "check.convdw", ops.same_spec(3, 3, 3, groups=3),
                      (1, 3, 4, 4))


@_register("conv2d_grouped_strided")
def _check_conv_gs(seed):
    spec = ops.ConvSpec(4, 4, 3, 2, stride=(2, 1), padding=(1, 0, 2, 1),
                        dilation=(1, 2), groups=2)
    return _conv_case(seed, "check.convgs", spec, (2, 4, 4, 4))


@_register("linear")
def _check_linear(seed):
    x = _u(seed, "check.lin.x", (3, 4))
    w = _u(seed, "check.lin.w", (4, 2))
    b = _u(seed, "check.lin.b", (2,))

    def forward(lv):
        return ops.linear(lv["x"], lv["w"], lv["b"])

    def backward(lv):
        gx, gw, gb = ops.linear_vjp(lv["x"], lv["w"], lv["b"], np.ones((3, 2)))
        return {"x": gx, "w": gw, "b": gb}

    return forward, backward, {"x": x, "w": w, "b": b}


@_register("softmax")
def _check_softmax(seed):
    # weight the outputs: the plain sum is constant along the softmax axis,
    # which would make both gradients identically zero
    x = _u(seed, "check.sm.x", (2, 3, 4), -2.0, 2.0)
    cot = _u(seed, "check.sm.cot", (2, 3, 4))

    def forward(lv):
        return cot * ops.softmax(lv["x"], 1)

    def backward(lv):
        return {"x": ops.softmax_vjp(lv["x"], 1, cot)}

    return forward, backward, {"x": x}


def _act_case(kind):
    def build(seed):
        x = _u(seed, f"check.act.{kind}.x", (2, 5), -2.0, 2.0)

        def forward(lv):
            return ops.activation(kind, lv["x"])

        def backward(lv):
            return {"x": ops.activation_vjp(kind, lv["x"], np.ones((2, 5)))}

        return forward, backward, {"x": x}
    return build


for _kind in ops.ACTIVATIONS:
    OP_CHECKS[f"activation_{_kind}"] = _act_case(_kind)


@_register("global_avg_pool")
def _check_gap(seed):
    x = _u(seed, "check.gap.x", (2, 3, 4, 4))

    def forward(lv):
        return ops.global_avg_pool(lv["x"])

    def backward(lv):
        return {"x": ops.global_avg_pool_vjp(lv["x"], np.ones((2, 3, 1, 1)))}

    return forward, backward, {"x": x}


@_register("bilinear_resize")
def _check_resize(seed):
    x = _u(seed, "check.rsz.x", (1, 2, 3, 3))

    def forward(lv):
        return ops.bilinear_resize(lv["x"], 5, 4)

    def backward(lv):
        return {"x": ops.bilinear_resize_vjp(3, 3, np.ones((1, 2, 5, 4)))}

    return forward, backward, {"x": x}


@_register("fft_filter")
def _check_fft_filter(seed):
    """Spectral reweighting in isolation: Re(ifft2(W * fft2(x))).  The plain
    sum of an inverse transform reads only the DC bin, so the loss is
    weighted to make the whole spectrum observable."""
    shape = (1, 2, 3, 3)
    x = _u(seed, "check.fftf.x", shape)
    wr = _u(seed, "check.fftf.wr", shape)
    wi = _u(seed, "check.fftf.wi", shape)
    cot = _u(seed, "check.fftf.cot", shape)

    def forward(lv):
        w = lv["w_re"] + 1j * lv["w_im"]
        return cot * ops.ifft2(w * ops.fft2(lv["x"]))

    def backward(lv):
        w = lv["w_re"] + 1j * lv["w_im"]
        spec = ops.fft2(lv["x"])
        gz = ops.ifft2_vjp(cot)
        gw = np.conj(spec) * gz
        gx = ops.fft2_vjp(np.conj(w) * gz)
        return {"x": gx, "w_re": gw.real, "w_im": gw.imag}

    return forward, backward, {"x": x, "w_re": wr, "w_im": wi}


# ---------------------------------------------------------------------------
# attention-stage ops
# ---------------------------------------------------------------------------

@_register("dyt")
def _check_dyt(seed):
    p = _jitter(init_dyt(3), seed, "check.dyt.p")
    return _record_case(dyt, dyt_vjp, p, _u(seed, "check.dyt.x", (2, 3, 3, 3)))


@_register("tssa")
def _check_tssa(seed):
    p = _jitter(init_tssa(seed, "check.tssa", 2, heads=2, head_dim=1),
                seed, "check.tssa.j")
    return _record_case(tssa, tssa_vjp, p, _u(seed, "check.tssa.x", (1, 2, 3, 3)))


@_register("tssa_distribution")
def _check_tssa_dist(seed):
    # head_dim 2 keeps the per-head radius away from its kink at zero, which
    # a single component can hit within finite-difference range
    p = _jitter(init_tssa(seed, "check.tssad", 2, heads=2, head_dim=2,
                          pi_mode="distribution"), seed, "check.tssad.j")
    return _record_case(tssa, tssa_vjp, p, _u(seed, "check.tssad.x", (1, 2, 3, 3)))


@_register("xmona")
def _check_xmona(seed):
    p = _jitter(init_mona(seed, "check.xmona", 2), seed, "check.xmona.j")
    return _record_case(xmona, xmona_vjp, p, _u(seed, "check.xmona.x", (1, 2, 3, 3)))


@_register("mona_op")
def _check_mona_op(seed):
    p = _jitter(init_mona(seed, "check.monaop", 4), seed, "check.monaop.j")
    # reduced channel count for C=4 at ratio 4 is 1
    return _record_case(mona_op, mona_op_vjp, p,
                        _u(seed, "check.monaop.x", (1, 1, 4, 4)))


@_register("mona")
def _check_mona(seed):
    p = _jitter(init_mona(seed, "check.mona", 2), seed, "check.mona.j")
    return _record_case(mona, mona_vjp, p, _u(seed, "check.mona.x", (1, 2, 3, 3)))


@_register("seff")
def _check_seff(seed):
    p = _jitter(init_seff(seed, "check.seff", 2, base=2), seed, "check.seff.j")
    return _record_case(seff, seff_vjp, p, _u(seed, "check.seff.x", (1, 2, 3, 3)))


@_register("daff")
def _check_daff(seed):
    c = 2
    x = _u(seed, "check.daff.x", (1, c, 3, 3))
    dp = _jitter(init_dyt(c), seed, "check.daff.dyt")
    tp = _jitter(init_tssa(seed, "check.daff.tssa", c, 2, 1), seed, "check.daff.tj")
    mp = _jitter(init_mona(seed, "check.daff.mona", c), seed, "check.daff.mj")
    leaves = {"x": x, **param_leaves(dp, "dyt."), **param_leaves(tp, "tssa."),
              **param_leaves(mp, "mona.")}

    def rebuild(lv):
        return (replace_leaves(dp, lv, "dyt."), replace_leaves(tp, lv, "tssa."),
                replace_leaves(mp, lv, "mona."))

    def forward(lv):
        d, t, m = rebuild(lv)
        return daff(lv["x"], d, t, m)

    def backward(lv):
        d, t, m = rebuild(lv)
        gx, gd, gt, gm = daff_vjp(lv["x"], d, t, m, np.ones_like(lv["x"]))
        return {"x": gx, **param_leaves(gd, "dyt."), **param_leaves(gt, "tssa."),
                **param_leaves(gm, "mona.")}

    return forward, backward, leaves


@_register("serr")
def _check_serr(seed):
    c = 2
    x = _u(seed, "check.serr.x", (1, c, 3, 3))
    dp = _jitter(init_dyt(c), seed, "check.serr.dyt")
    sp = _jitter(init_seff(seed, "check.serr.seff", c, base=2), seed, "check.serr.sj")
    mp = _jitter(init_mona(seed, "check.serr.mona", c), seed, "check.serr.mj")
    leaves = {"x": x, **param_leaves(dp, "dyt."), **param_leaves(sp, "seff."),
              **param_leaves(mp, "mona.")}

    def rebuild(lv):
        return (replace_leaves(dp, lv, "dyt."), replace_leaves(sp, lv, "seff."),
                replace_leaves(mp, lv, "mona."))

    scale = 0.05

    def forward(lv):
        d, s, m = rebuild(lv)
        return scale * serr(lv["x"], d, s, m)

    def backward(lv):
        d, s, m = rebuild(lv)
        gx, gd, gs, gm = serr_vjp(lv["x"], d, s, m,
                                  np.full_like(lv["x"], scale))
        return {"x": gx, **param_leaves(gd, "dyt."), **param_leaves(gs, "seff."),
                **param_leaves(gm, "mona.")}

    return forward, backward, leaves


@_register("ftssa")
def _check_ftssa(seed):
    p = _jitter(init_ftssa(seed, "check.ftssa", 2, heads=2, head_dim=1,
                           seff_base=2), seed, "check.ftssa.j")
    return _record_case(ftssa, ftssa_vjp, p, _u(seed, "check.ftssa.x", (1, 2, 3, 3)),
                        scale=0.05)


# ---------------------------------------------------------------------------
# integration and fusion ops
# ---------------------------------------------------------------------------

@_register("aggregate")
def _check_aggregate(seed):
    f1 = _u(seed, "check.agg.f1", (1, 2, 3, 3))
    f2 = _u(seed, "check.agg.f2", (1, 3, 2, 2))
    ap = _jitter(init_aggregate(seed, "check.agg", 2, 3), seed, "check.agg.j")
    leaves = {"f1": f1, "f2": f2, **param_leaves(ap, "agg.")}

    def forward(lv):
        return aggregate(lv["f1"], lv["f2"], replace_leaves(ap, lv, "agg."))

    def backward(lv):
        a = replace_leaves(ap, lv, "agg.")
        g1, g2, ga = aggregate_vjp(lv["f1"], lv["f2"], a, np.ones_like(lv["f1"]))
        return {"f1": g1, "f2": g2, **param_leaves(ga, "agg.")}

    return forward, backward, leaves


@_register("gmm")
def _check_gmm(seed):
    p = _jitter(init_gmm(seed, "check.gmm", 2, 3, 3, k=2), seed, "check.gmm.j")
    return _record_case(gmm, gmm_vjp, p, _u(seed, "check.gmm.x", (1, 2, 3, 3)))


@_register("dmm_directional")
def _check_dmm_dir(seed):
    p = _jitter(init_dmm(seed, "check.dmmdir", 2, heads=2, head_dim=1,
                         seff_base=2), seed, "check.dmmdir.j")
    return _record_case(dmm_directional, dmm_directional_vjp, p,
                        _u(seed, "check.dmmdir.x", (1, 2, 3, 3)))


@_register("dmm_attention")
def _check_dmm_att(seed):
    p = _jitter(init_dmm(seed, "check.dmmatt", 2, heads=2, head_dim=1,
                         seff_base=2), seed, "check.dmmatt.j")
    return _record_case(dmm_attention, dmm_attention_vjp, p,
                        _u(seed, "check.dmmatt.x", (1, 2, 3, 3)), scale=0.05,
                        out_shape=(1, 2, 1, 1))


@_register("dmm")
def _check_dmm(seed):
    p = _jitter(init_dmm(seed, "check.dmm", 2, heads=2, head_dim=1,
                         seff_base=2), seed, "check.dmm.j")
    return _record_case(dmm, dmm_vjp, p, _u(seed, "check.dmm.x", (1, 2, 3, 3)),
                        scale=0.05)


@_register("gdim")
def _check_gdim(seed):
    c = 2
    f1 = _u(seed, "check.gdim.f1", (1, c, 3, 3))
    f2 = _u(seed, "check.gdim.f2", (1, 3, 2, 2))
    gp = _jitter(init_gmm(seed, "check.gdim.gmm", c, 3, 3, k=2), seed,
                 "check.gdim.gj")
    dp = _jitter(init_dmm(seed, "check.gdim.dmm", c, heads=2, head_dim=1,
                          seff_base=2), seed, "check.gdim.dj")
    ap = _jitter(init_aggregate(seed, "check.gdim.agg", c, 3), seed,
                 "check.gdim.aj")
    leaves = {"f1": f1, "f2": f2, **param_leaves(gp, "gmm."),
              **param_leaves(dp, "dmm."), **param_leaves(ap, "agg.")}

    def rebuild(lv):
        return (replace_leaves(gp, lv, "gmm."), replace_leaves(dp, lv, "dmm."),
                replace_leaves(ap, lv, "agg."))

    # small loss weighting: gradient entries this deep composite shrinks by
    # cancellation sit under the relative-error floor, where both sides only
    # agree to their own rounding, which scales with the loss
    scale = 0.05

    def forward(lv):
        g, d, a = rebuild(lv)
        return scale * gdim(lv["f1"], lv["f2"], g, d, a)

    def backward(lv):
        g, d, a = rebuild(lv)
        g1, g2, gg, gd, ga = gdim_vjp(lv["f1"], lv["f2"], g, d, a,
                                      np.full_like(lv["f1"], scale))
        return {"f1": g1, "f2": g2, **param_leaves(gg, "gmm."),
                **param_leaves(gd, "dmm."), **param_leaves(ga, "agg.")}

    return forward, backward, leaves


@_register("dpam")
def _check_dpam(seed):
    c = 2
    fa = _u(seed, "check.dpam.fa", (1, c, 3, 3))
    fh = _u(seed, "check.dpam.fh", (1, c, 3, 3))
    p = _jitter(init_dpam(seed, "check.dpam", c), seed, "check.dpam.j")
    leaves = {"f_agg": fa, "f_hat": fh, **param_leaves(p)}

    def forward(lv):
        return dpam(lv["f_agg"], lv["f_hat"], replace_leaves(p, lv))

    def backward(lv):
        pp = replace_leaves(p, lv)
        ga, gh, gp = dpam_vjp(lv["f_agg"], lv["f_hat"], pp,
                              np.ones_like(lv["f_agg"]))
        return {"f_agg": ga, "f_hat": gh, **param_leaves(gp)}

    return forward, backward, leaves


@_register("mgdfis_fuse")
def _check_fuse(seed):
    c = 2
    amap = stream(seed, "check.fuse.amap").uniform((1, c, 3, 3), 0.05, 0.95)
    fh = _u(seed, "check.fuse.fh", (1, c, 3, 3))
    x1 = _u(seed, "check.fuse.x1", (1, c, 3, 3))
    x2 = _u(seed, "check.fuse.x2", (1, 3, 2, 2))
    w = _jitter(FusionWeights(), seed, "check.fuse.w")
    ap = _jitter(init_aggregate(seed, "check.fuse.agg", c, 3), seed,
                 "check.fuse.aj")
    leaves = {"amap": amap, "f_hat": fh, "x1": x1, "x2": x2,
              **param_leaves(w, "w."), **param_leaves(ap, "agg.")}

    def forward(lv):
        return mgdfis_fuse(lv["amap"], lv["f_hat"], lv["x1"], lv["x2"],
                           replace_leaves(w, lv, "w."),
                           replace_leaves(ap, lv, "agg."))

    def backward(lv):
        ww = replace_leaves(w, lv, "w.")
        aa = replace_leaves(ap, lv, "agg.")
        gm, gh, g1, g2, gw, ga = mgdfis_fuse_vjp(
            lv["amap"], lv["f_hat"], lv["x1"], lv["x2"], ww, aa,
            np.ones_like(lv["f_hat"]))
        return {"amap": gm, "f_hat": gh, "x1": g1, "x2": g2,
                **param_leaves(gw, "w."), **param_leaves(ga, "agg.")}

    return forward, backward, leaves


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

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
