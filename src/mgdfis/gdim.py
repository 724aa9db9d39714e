"""Global-detail integration: input aggregation, column/row channel-group
mixing, and directional-convolution detail capture with a channel gate.

The mixing module runs two sequential passes.  Each pass regroups channels
into k groups, concatenates the groups along one spatial axis (width first,
then height), adds a position embedding, convolves, restores the original
layout, normalizes, and fuses with the pass input through a 1x1 convolution.
Forwards, backwards and VJPs follow `mgdfis.ftssa`.
"""

import dataclasses
import numpy as np

from . import ops
from .errors import ConfigError, ShapeError
from .ftssa import _ftssa_bwd, ftssa
from .ops import conv2d, conv2d_vjp, same_spec
from .params import (AggregateParams, DmmParams, GmmParams, add_params,
                     zeros_like_params)
from .tensor import NO_CACHE, as_feature_map, vjp


# ---------------------------------------------------------------------------
# aggregation of the two input maps
# ---------------------------------------------------------------------------

def _reconcile_fwd(x, target_shape, agg_p, cache):
    """x at the target's dims: bilinearly resampled to its spatial dims and
    channel-projected unless it has them already (then it keeps nothing);
    raises if it cannot be."""
    if x.shape == target_shape:
        return x
    if x.shape[0] != target_shape[0]:
        raise ShapeError("aggregate", "batch", target_shape[0], x.shape[0])
    if agg_p is None:
        raise ConfigError("aggregate: projection parameters required when "
                          "input dims differ")
    c1, c2 = agg_p.proj_weight.shape[0], agg_p.proj_weight.shape[1]
    if x.shape[1] != c2:
        raise ShapeError("aggregate", "channel", c2, x.shape[1])
    if target_shape[1] != c1:
        raise ShapeError("aggregate", "channel", c1, target_shape[1])
    res = ops.bilinear_resize(x, target_shape[2], target_shape[3])
    cache.keep(res=res, hw=x.shape[2:])
    return conv2d(res, agg_p.proj_weight, agg_p.proj_bias,
                  same_spec(c2, 1, 1, out_channels=c1))


def _reconcile_bwd(cache, agg_p, gy):
    if not cache:
        return gy, zeros_like_params(agg_p) if agg_p is not None else None
    c1, c2 = agg_p.proj_weight.shape[0], agg_p.proj_weight.shape[1]
    g_res, gw, gb = conv2d_vjp(cache.pop("res"), agg_p.proj_weight,
                               agg_p.proj_bias,
                               same_spec(c2, 1, 1, out_channels=c1), gy)
    gx = ops.bilinear_resize_vjp(*cache.pop("hw"), g_res)
    return gx, AggregateParams(proj_weight=gw, proj_bias=gb)


def aggregate(f1, f2, agg_p: AggregateParams = None, *, cache=NO_CACHE):
    """Sum the two inputs; a mismatched second input is bilinearly resampled
    to the first input's spatial dims and channel-projected first."""
    f1 = as_feature_map(f1, "aggregate")
    return f1 + _reconcile_fwd(as_feature_map(f2, "aggregate"), f1.shape, agg_p, cache)


def _aggregate_bwd(cache, agg_p, gy):
    """(g_f1, g_f2, g_agg)"""
    return (gy, *_reconcile_bwd(cache, agg_p, gy))


aggregate_vjp = vjp(aggregate, _aggregate_bwd, inputs=2)


# ---------------------------------------------------------------------------
# column/row mixing
# ---------------------------------------------------------------------------

def regroup(f, k, axis):
    """Channel group g becomes band g of spatial axis `axis` (3 for the
    column pass, 2 for the row pass): (N, C, H, W) -> (N, C/k, H, kW) or
    (N, C/k, kH, W)."""
    shape = list(f.shape)
    shape[1] //= k
    shape[axis] *= k
    return np.moveaxis(f.reshape(f.shape[0], k, -1, *f.shape[2:]), 1, axis).reshape(shape)


def restore(f, k, axis):
    """Inverse of regroup(., k, axis): band g of axis `axis` becomes channel
    group g again."""
    shape = list(f.shape)
    shape[1] *= k
    shape[axis] //= k
    split = f.shape[:axis] + (k, -1) + f.shape[axis + 1:]
    return np.moveaxis(f.reshape(split), axis, 1).reshape(shape)


def _bn_normalise(x, q, eps, out=None):
    """(1 / sqrt(var + eps), (x - mean) times it) of the pass's inference BN,
    the normalised x written into out when it is given."""
    inv = 1.0 / np.sqrt(q["bn_var"] + eps)
    xhat = np.subtract(x, q["bn_mean"][None, :, None, None], out=out)
    xhat *= inv[None, :, None, None]
    return inv, xhat


def _bn_affine(xhat, q, out=None):
    """The BN output scale * xhat + shift, written into out when it is given."""
    y = np.multiply(xhat, q["bn_scale"][None, :, None, None], out=out)
    y += q["bn_shift"][None, :, None, None]
    return y


def _fuse_input(f, restored, q, eps):
    """[f, gelu(BN(restored))], the fuse conv's input, in one buffer: f is
    copied into the first half, and BN then GELU written into the second."""
    c = f.shape[1]
    cat = np.empty((f.shape[0], 2 * c) + f.shape[2:])
    cat[:, :c] = f
    act = cat[:, c:]
    _bn_normalise(restored, q, eps, out=act)
    _bn_affine(act, q, out=act)
    np.copyto(act, ops.gelu(act))
    return cat


def _gmm_pass(p: GmmParams, axis):
    """(position embedding, {field: value}) of the column pass (axis 3, the
    col_* fields) or the row pass (axis 2, row_*)."""
    pre = "col" if axis == 3 else "row"
    q = {name: getattr(p, f"{pre}_{name}") for name in (
        "conv_weight", "conv_bias", "bn_scale", "bn_shift", "bn_mean",
        "bn_var", "fuse_weight", "fuse_bias")}
    return (p.pos_w if axis == 3 else p.pos_h), q


def _gmm_pass_fwd(f, p: GmmParams, axis, cache):
    f = as_feature_map(f, "gmm")
    if f.shape[1] % p.k:
        raise ConfigError(f"gmm: group count {p.k} must divide channel count "
                          f"{f.shape[1]}")
    pos, q = _gmm_pass(p, axis)
    c = f.shape[1]
    grouped = regroup(f, p.k, axis)
    if pos.shape != (1,) + grouped.shape[1:]:
        raise ShapeError("gmm", "pos_embed", (1,) + grouped.shape[1:], pos.shape)
    conved = conv2d(grouped + pos, q["conv_weight"], q["conv_bias"],
                    same_spec(c // p.k, 3, 3))
    restored = restore(conved, p.k, axis)
    del conved
    cache.keep(f=f, restored=restored)
    return conv2d(_fuse_input(f, restored, q, p.bn_eps), q["fuse_weight"],
                  q["fuse_bias"], same_spec(2 * c, 1, 1, out_channels=c))


def _gmm_pass_bwd(cache, p: GmmParams, axis, gy):
    """(g_f, g_pos, {field: gradient})"""
    pos, q = _gmm_pass(p, axis)
    f, restored = cache.pop("f"), cache.pop("restored")
    c = f.shape[1]
    g = {}
    g_cat, g["fuse_weight"], g["fuse_bias"] = conv2d_vjp(
        _fuse_input(f, restored, q, p.bn_eps), q["fuse_weight"], q["fuse_bias"],
        same_spec(2 * c, 1, 1, out_channels=c), gy)
    inv, xhat = _bn_normalise(restored, q, p.bn_eps)
    bn_out = _bn_affine(xhat, q)
    g_bn = ops.activation_grad("gelu", bn_out) * g_cat[:, c:]
    g["bn_scale"] = np.sum(g_bn * xhat, axis=(0, 2, 3))
    g["bn_shift"] = np.sum(g_bn, axis=(0, 2, 3))
    g_conved = regroup(g_bn * (q["bn_scale"] * inv)[None, :, None, None], p.k, axis)
    g_conv_in, g["conv_weight"], g["conv_bias"] = conv2d_vjp(
        regroup(f, p.k, axis) + pos, q["conv_weight"], q["conv_bias"],
        same_spec(c // p.k, 3, 3), g_conved)
    g_pos = g_conv_in.sum(axis=0, keepdims=True)
    return g_cat[:, :c] + restore(g_conv_in, p.k, axis), g_pos, g


def gmm(f_agg, p: GmmParams, *, cache=NO_CACHE):
    """Column pass then row pass; output dims equal input dims."""
    return _gmm_pass_fwd(_gmm_pass_fwd(f_agg, p, 3, cache.sub("col")), p, 2,
                         cache.sub("row"))


def _gmm_bwd(cache, p: GmmParams, gy):
    g_col, g_pos_h, g_row = _gmm_pass_bwd(cache.pop("row"), p, 2, gy)
    gf, g_pos_w, g_c = _gmm_pass_bwd(cache.pop("col"), p, 3, g_col)
    gp = dataclasses.replace(
        p, pos_w=g_pos_w, pos_h=g_pos_h,
        **{f"col_{name}": v for name, v in g_c.items()},
        **{f"row_{name}": v for name, v in g_row.items()})
    return gf, gp


gmm_vjp = vjp(gmm, _gmm_bwd)


# ---------------------------------------------------------------------------
# directional detail capture with channel gating
# ---------------------------------------------------------------------------

def _directional_kernel(p: DmmParams, spec):
    """conv4x6 + conv6x4 as the one 6x6 conv `spec`: ops.fold_same's triple."""
    return ops.fold_same("dmm", spec.weight_shape[:2],
                         [(p.conv46_weight, p.conv46_bias),
                          (p.conv64_weight, p.conv64_bias)])


def dmm_directional(f_gmm, p: DmmParams, *, cache=NO_CACHE):
    """f + conv4x6(f) + conv6x4(f), run as the one folded 6x6 conv; "same"
    padding keeps dims."""
    f_gmm = as_feature_map(f_gmm, "dmm")
    cache.keep(f=f_gmm)
    spec = same_spec(f_gmm.shape[1], 6, 6)
    return f_gmm + conv2d(f_gmm, *_directional_kernel(p, spec)[:2], spec)


def _dmm_directional_bwd(cache, p: DmmParams, gy):
    spec = same_spec(gy.shape[1], 6, 6)     # gy is shaped like the input f
    w, b, (win46, win64) = _directional_kernel(p, spec)
    gf, gw, gb = conv2d_vjp(cache.pop("f"), w, b, spec, gy)
    gp = dataclasses.replace(zeros_like_params(p),
                             conv46_weight=gw[win46].copy(), conv46_bias=gb,
                             conv64_weight=gw[win64].copy(), conv64_bias=gb.copy())
    return gy + gf, gp


dmm_directional_vjp = vjp(dmm_directional, _dmm_directional_bwd)


def _gate_fwd(feat, p: DmmParams, cache):
    """Pooled MLP with a Swish (x * sigmoid(x)) output, shaped (N, C, 1, 1)."""
    pooled = ops.global_avg_pool(feat)[:, :, 0, 0]
    h1 = ops.linear(pooled, p.mlp_w1, p.mlp_b1)
    h2 = ops.linear(ops.gelu(h1), p.mlp_w2, p.mlp_b2)
    cache.keep(hw=feat.shape[2:], pooled=pooled, h1=h1, h2=h2)
    return ops.silu(h2)[:, :, None, None]


def _gate_bwd(cache, p: DmmParams, gy):
    h1, h2 = cache.pop("h1"), cache.pop("h2")
    g_h2 = ops.activation_grad("silu", h2) * gy[:, :, 0, 0]
    g_a1, g_mlp_w2, g_mlp_b2 = ops.linear_vjp(ops.gelu(h1), p.mlp_w2,
                                              p.mlp_b2, g_h2)
    g_h1 = ops.activation_grad("gelu", h1) * g_a1
    g_pooled, g_mlp_w1, g_mlp_b1 = ops.linear_vjp(cache.pop("pooled"), p.mlp_w1,
                                                  p.mlp_b1, g_h1)
    g_feat = ops.global_avg_pool_vjp(*cache.pop("hw"), g_pooled[:, :, None, None])
    gp = dataclasses.replace(zeros_like_params(p),
                             mlp_w1=g_mlp_w1, mlp_b1=g_mlp_b1,
                             mlp_w2=g_mlp_w2, mlp_b2=g_mlp_b2)
    return g_feat, gp


def dmm_attention(f_add, p: DmmParams, *, cache=NO_CACHE):
    """Per-(batch, channel) gate with spatial dims 1x1."""
    return _gate_fwd(ftssa(as_feature_map(f_add, "dmm"), p.ftssa,
                           cache=cache.sub("ftssa")), p, cache.sub("gate"))


def _dmm_attention_bwd(cache, p: DmmParams, gy):
    """gy has the gate's (N, C, 1, 1) dims."""
    g_feat, gp = _gate_bwd(cache.pop("gate"), p, gy)
    g_f_add, g_ftssa = _ftssa_bwd(cache.pop("ftssa"), p.ftssa, g_feat)
    return g_f_add, dataclasses.replace(gp, ftssa=g_ftssa)


dmm_attention_vjp = vjp(dmm_attention, _dmm_attention_bwd)


def dmm(f_gmm, p: DmmParams, *, cache=NO_CACHE):
    """f_add * gate(f_add), f_add = dmm_directional(f_gmm).  f_gmm is
    dropped after its one read, so without a cache a map passed inline
    (CPython 3.11 and later) is freed before ftssa runs."""
    f_add = dmm_directional(f_gmm, p, cache=cache.sub("dir"))
    del f_gmm
    gate = dmm_attention(f_add, p, cache=cache.sub("att"))
    cache.keep(f_add=f_add, gate=gate)
    return f_add * gate


def _dmm_bwd(cache, p: DmmParams, gy):
    g_gate = np.sum(gy * cache.pop("f_add"), axis=(2, 3), keepdims=True)
    g_f_add_att, gp_att = _dmm_attention_bwd(cache.pop("att"), p, g_gate)
    gf, gp_dir = _dmm_directional_bwd(cache.pop("dir"), p,
                                      gy * cache.pop("gate") + g_f_add_att)
    return gf, add_params(gp_att, gp_dir)


dmm_vjp = vjp(dmm, _dmm_bwd)


def gdim(f1, f2, gmm_p: GmmParams, dmm_p: DmmParams,
         agg_p: AggregateParams = None, *, cache=NO_CACHE):
    """dmm(gmm(aggregate(f1, f2)))"""
    return dmm(gmm(aggregate(f1, f2, agg_p, cache=cache.sub("agg")), gmm_p,
                   cache=cache.sub("gmm")), dmm_p, cache=cache.sub("dmm"))


def _gdim_bwd(cache, gmm_p, dmm_p, agg_p, gy):
    """Returns (g_f1, g_f2, g_gmm, g_dmm, g_agg)."""
    g_f_gmm, g_dmm = _dmm_bwd(cache.pop("dmm"), dmm_p, gy)
    g_f_agg, g_gmm = _gmm_bwd(cache.pop("gmm"), gmm_p, g_f_gmm)
    g2, g_agg = _reconcile_bwd(cache.pop("agg"), agg_p, g_f_agg)
    return g_f_agg, g2, g_gmm, g_dmm, g_agg


gdim_vjp = vjp(gdim, _gdim_bwd, inputs=2)
