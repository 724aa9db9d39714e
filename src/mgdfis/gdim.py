"""Global-detail integration: input aggregation, column/row channel-group
mixing, and directional-convolution detail capture with a channel gate.

The mixing module runs two sequential passes.  Each pass regroups channels
into k groups, concatenates the groups along one spatial axis (width first,
then height), adds a position embedding, convolves, restores the original
layout, normalizes, and fuses with the pass input through a 1x1 convolution.
Each op has one forward, the public op with a keyword-only `cache`, and a
private `_op_bwd`, with the same input and cotangent checks, as in
`mgdfis.ftssa`; composites call their children by public name.
"""

import dataclasses
import numpy as np

from . import ops
from .errors import ConfigError, ShapeError
from .ftssa import _ftssa_bwd, ftssa
from .ops import conv2d, conv2d_vjp, same_spec
from .params import (AggregateParams, DmmParams, GmmParams, add_params,
                     zeros_like_params)
from .tensor import NO_CACHE, as_feature_map, cached, require_cotangent


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


def aggregate_vjp(f1, f2, agg_p, gy):
    out, cache = cached(aggregate, f1, f2, agg_p)
    gy = require_cotangent(gy, out, "aggregate_vjp")
    return (gy, *_reconcile_bwd(cache, agg_p, gy))


# ---------------------------------------------------------------------------
# column/row mixing
# ---------------------------------------------------------------------------

def regroup_w(f, k):
    """Channel group g becomes width band g: (N,C,H,W) -> (N,C/k,H,kW)."""
    n, c, h, w = f.shape
    return f.reshape(n, k, c // k, h, w).transpose(0, 2, 3, 1, 4).reshape(
        n, c // k, h, k * w)


def restore_w(f, k):
    n, ck, h, kw = f.shape
    w = kw // k
    return f.reshape(n, ck, h, k, w).transpose(0, 3, 1, 2, 4).reshape(
        n, k * ck, h, w)


def regroup_h(f, k):
    """Channel group g becomes height band g: (N,C,H,W) -> (N,C/k,kH,W)."""
    n, c, h, w = f.shape
    return f.reshape(n, k, c // k, h, w).transpose(0, 2, 1, 3, 4).reshape(
        n, c // k, k * h, w)


def restore_h(f, k):
    n, ck, kh, w = f.shape
    h = kh // k
    return f.reshape(n, ck, k, h, w).transpose(0, 2, 1, 3, 4).reshape(
        n, k * ck, h, w)


def _bn_inference(x, scale, shift, mean, var, eps):
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean[None, :, None, None]) * inv[None, :, None, None]
    return xhat, scale[None, :, None, None] * xhat + shift[None, :, None, None]


def _gmm_pass(p: GmmParams, axis):
    """(regroup, restore, position embedding, {field: value}) of the column
    pass (axis "w", the col_* fields) or the row pass (axis "h", row_*)."""
    pre = "col" if axis == "w" else "row"
    q = {name: getattr(p, f"{pre}_{name}") for name in (
        "conv_weight", "conv_bias", "bn_scale", "bn_shift", "bn_mean",
        "bn_var", "fuse_weight", "fuse_bias")}
    if axis == "w":
        return regroup_w, restore_w, p.pos_w, q
    return regroup_h, restore_h, p.pos_h, q


def _gmm_pass_fwd(f, p: GmmParams, axis, cache):
    f = as_feature_map(f, "gmm")
    if f.shape[1] % p.k:
        raise ConfigError(f"gmm: group count {p.k} must divide channel count "
                          f"{f.shape[1]}")
    regroup, restore, pos, q = _gmm_pass(p, axis)
    c = f.shape[1]
    grouped = regroup(f, p.k)
    if pos.shape != (1,) + grouped.shape[1:]:
        raise ShapeError("gmm", "pos_embed", (1,) + grouped.shape[1:], pos.shape)
    conved = conv2d(grouped + pos, q["conv_weight"], q["conv_bias"],
                    same_spec(c // p.k, 3, 3))
    restored = restore(conved, p.k)
    _, bn_out = _bn_inference(restored, q["bn_scale"], q["bn_shift"],
                              q["bn_mean"], q["bn_var"], p.bn_eps)
    cache.keep(f=f, restored=restored)
    cat = np.concatenate([f, ops.gelu(bn_out)], axis=1)
    return conv2d(cat, q["fuse_weight"], q["fuse_bias"],
                  same_spec(2 * c, 1, 1, out_channels=c))


def _gmm_pass_bwd(cache, p: GmmParams, axis, gy):
    """(g_f, g_pos, {field: gradient})"""
    regroup, restore, pos, q = _gmm_pass(p, axis)
    f = cache.pop("f")
    c = f.shape[1]
    xhat, bn_out = _bn_inference(cache.pop("restored"), q["bn_scale"],
                                 q["bn_shift"], q["bn_mean"], q["bn_var"],
                                 p.bn_eps)
    g = {}
    g_cat, g["fuse_weight"], g["fuse_bias"] = conv2d_vjp(
        np.concatenate([f, ops.gelu(bn_out)], axis=1), q["fuse_weight"],
        q["fuse_bias"], same_spec(2 * c, 1, 1, out_channels=c), gy)
    g_bn = ops.activation_grad("gelu", bn_out) * g_cat[:, c:]
    g["bn_scale"] = np.sum(g_bn * xhat, axis=(0, 2, 3))
    g["bn_shift"] = np.sum(g_bn, axis=(0, 2, 3))
    inv = 1.0 / np.sqrt(q["bn_var"] + p.bn_eps)
    g_conved = regroup(g_bn * (q["bn_scale"] * inv)[None, :, None, None], p.k)
    g_conv_in, g["conv_weight"], g["conv_bias"] = conv2d_vjp(
        regroup(f, p.k) + pos, q["conv_weight"], q["conv_bias"],
        same_spec(c // p.k, 3, 3), g_conved)
    g_pos = g_conv_in.sum(axis=0, keepdims=True)
    return g_cat[:, :c] + restore(g_conv_in, p.k), g_pos, g


def gmm(f_agg, p: GmmParams, *, cache=NO_CACHE):
    """Column pass then row pass; output dims equal input dims."""
    return _gmm_pass_fwd(_gmm_pass_fwd(f_agg, p, "w", cache.sub("col")), p, "h",
                         cache.sub("row"))


def _gmm_bwd(cache, p: GmmParams, gy):
    g_col, g_pos_h, g_row = _gmm_pass_bwd(cache.pop("row"), p, "h", gy)
    gf, g_pos_w, g_c = _gmm_pass_bwd(cache.pop("col"), p, "w", g_col)
    gp = dataclasses.replace(
        p, pos_w=g_pos_w, pos_h=g_pos_h,
        **{f"col_{name}": v for name, v in g_c.items()},
        **{f"row_{name}": v for name, v in g_row.items()})
    return gf, gp


def gmm_vjp(f_agg, p: GmmParams, gy):
    out, cache = cached(gmm, f_agg, p)
    return _gmm_bwd(cache, p, require_cotangent(gy, out, "gmm_vjp"))


# ---------------------------------------------------------------------------
# directional detail capture with channel gating
# ---------------------------------------------------------------------------

def dmm_directional(f_gmm, p: DmmParams, *, cache=NO_CACHE):
    """f + conv4x6(f) + conv6x4(f); asymmetric padding keeps dims."""
    f_gmm = as_feature_map(f_gmm, "dmm")
    cache.keep(f=f_gmm)
    c = f_gmm.shape[1]
    return (f_gmm + conv2d(f_gmm, p.conv46_weight, p.conv46_bias, same_spec(c, 4, 6))
            + conv2d(f_gmm, p.conv64_weight, p.conv64_bias, same_spec(c, 6, 4)))


def _dmm_directional_bwd(cache, p: DmmParams, gy):
    f_gmm = cache.pop("f")
    c = f_gmm.shape[1]
    gf46, g_w46, g_b46 = conv2d_vjp(f_gmm, p.conv46_weight, p.conv46_bias,
                                    same_spec(c, 4, 6), gy)
    gf64, g_w64, g_b64 = conv2d_vjp(f_gmm, p.conv64_weight, p.conv64_bias,
                                    same_spec(c, 6, 4), gy)
    gp = dataclasses.replace(zeros_like_params(p),
                             conv46_weight=g_w46, conv46_bias=g_b46,
                             conv64_weight=g_w64, conv64_bias=g_b64)
    return gy + gf46 + gf64, gp


def dmm_directional_vjp(f_gmm, p: DmmParams, gy):
    out, cache = cached(dmm_directional, f_gmm, p)
    return _dmm_directional_bwd(cache, p,
                                require_cotangent(gy, out, "dmm_directional_vjp"))


def _gate_fwd(feat, p: DmmParams, cache):
    """Pooled MLP with a Swish (x * sigmoid(x)) output, shaped (N, C, 1, 1)."""
    pooled = ops.global_avg_pool(feat)[:, :, 0, 0]
    h1 = ops.linear(pooled, p.mlp_w1, p.mlp_b1)
    h2 = ops.linear(ops.gelu(h1), p.mlp_w2, p.mlp_b2)
    cache.keep(feat=feat, pooled=pooled, h1=h1, h2=h2)
    return ops.silu(h2)[:, :, None, None]


def _gate_bwd(cache, p: DmmParams, gy):
    h1, h2 = cache.pop("h1"), cache.pop("h2")
    g_h2 = ops.activation_grad("silu", h2) * gy[:, :, 0, 0]
    g_a1, g_mlp_w2, g_mlp_b2 = ops.linear_vjp(ops.gelu(h1), p.mlp_w2,
                                              p.mlp_b2, g_h2)
    g_h1 = ops.activation_grad("gelu", h1) * g_a1
    g_pooled, g_mlp_w1, g_mlp_b1 = ops.linear_vjp(cache.pop("pooled"), p.mlp_w1,
                                                  p.mlp_b1, g_h1)
    g_feat = ops.global_avg_pool_vjp(cache.pop("feat"),
                                     g_pooled[:, :, None, None])
    gp = dataclasses.replace(zeros_like_params(p),
                             mlp_w1=g_mlp_w1, mlp_b1=g_mlp_b1,
                             mlp_w2=g_mlp_w2, mlp_b2=g_mlp_b2)
    return g_feat, gp


def dmm_attention(f_add, p: DmmParams, *, cache=NO_CACHE):
    """Per-(batch, channel) gate with spatial dims 1x1."""
    return _gate_fwd(ftssa(as_feature_map(f_add, "dmm"), p.ftssa,
                           cache=cache.sub("ftssa")), p, cache.sub("gate"))


def _dmm_attention_bwd(cache, p: DmmParams, gy):
    g_feat, gp = _gate_bwd(cache.pop("gate"), p, gy)
    g_f_add, g_ftssa = _ftssa_bwd(cache.pop("ftssa"), p.ftssa, g_feat)
    return g_f_add, dataclasses.replace(gp, ftssa=g_ftssa)


def dmm_attention_vjp(f_add, p: DmmParams, gy):
    """gy has the gate's (N, C, 1, 1) dims."""
    out, cache = cached(dmm_attention, f_add, p)
    return _dmm_attention_bwd(cache, p,
                              require_cotangent(gy, out, "dmm_attention_vjp"))


def dmm(f_gmm, p: DmmParams, *, cache=NO_CACHE):
    f_add = dmm_directional(f_gmm, p, cache=cache.sub("dir"))
    gate = dmm_attention(f_add, p, cache=cache.sub("att"))
    cache.keep(f_add=f_add, gate=gate)
    return f_add * gate


def _dmm_bwd(cache, p: DmmParams, gy):
    g_gate = np.sum(gy * cache.pop("f_add"), axis=(2, 3), keepdims=True)
    g_f_add_att, gp_att = _dmm_attention_bwd(cache.pop("att"), p, g_gate)
    gf, gp_dir = _dmm_directional_bwd(cache.pop("dir"), p,
                                      gy * cache.pop("gate") + g_f_add_att)
    return gf, add_params(gp_att, gp_dir)


def dmm_vjp(f_gmm, p: DmmParams, gy):
    out, cache = cached(dmm, f_gmm, p)
    return _dmm_bwd(cache, p, require_cotangent(gy, out, "dmm_vjp"))


def gdim(f1, f2, gmm_p: GmmParams, dmm_p: DmmParams,
         agg_p: AggregateParams = None, *, cache=NO_CACHE):
    """dmm(gmm(aggregate(f1, f2)))"""
    return dmm(gmm(aggregate(f1, f2, agg_p, cache=cache.sub("agg")), gmm_p,
                   cache=cache.sub("gmm")), dmm_p, cache=cache.sub("dmm"))


def _gdim_bwd(cache, gmm_p, dmm_p, agg_p, gy):
    g_f_gmm, g_dmm = _dmm_bwd(cache.pop("dmm"), dmm_p, gy)
    g_f_agg, g_gmm = _gmm_bwd(cache.pop("gmm"), gmm_p, g_f_gmm)
    g2, g_agg = _reconcile_bwd(cache.pop("agg"), agg_p, g_f_agg)
    return g_f_agg, g2, g_gmm, g_dmm, g_agg


def gdim_vjp(f1, f2, gmm_p, dmm_p, agg_p, gy):
    """Returns (g_f1, g_f2, g_gmm, g_dmm, g_agg)."""
    out, cache = cached(gdim, f1, f2, gmm_p, dmm_p, agg_p)
    return _gdim_bwd(cache, gmm_p, dmm_p, agg_p,
                     require_cotangent(gy, out, "gdim_vjp"))
