"""Global-detail integration: input aggregation, column/row channel-group
mixing, and directional-convolution detail capture with a channel gate.

The mixing module runs two sequential passes.  Each pass regroups channels
into k groups, concatenates the groups along one spatial axis (width first,
then height), adds a position embedding, convolves, restores the original
layout, normalizes, and fuses with the pass input through a 1x1 convolution.
"""

import dataclasses
import numpy as np

from . import ops
from .errors import ConfigError, ShapeError
from .ftssa import ftssa, ftssa_vjp
from .ops import conv2d, conv2d_vjp, same_spec
from .params import (AggregateParams, DmmParams, GmmParams, add_params,
                     zeros_like_params)
from .tensor import as_feature_map


# ---------------------------------------------------------------------------
# aggregation of the two input maps
# ---------------------------------------------------------------------------

def aggregate(f1, f2, agg_p: AggregateParams = None):
    """Sum the two inputs; a mismatched second input is bilinearly resampled
    to the first input's spatial dims and channel-projected first."""
    f1 = as_feature_map(f1, "aggregate")
    f2 = as_feature_map(f2, "aggregate")
    if f1.shape == f2.shape:
        return f1 + f2
    return f1 + _reconcile(f2, f1.shape, agg_p)


def _reconcile(f2, target_shape, agg_p):
    if agg_p is None:
        raise ConfigError("aggregate: projection parameters required when "
                          "input dims differ")
    c1, c2 = agg_p.proj_weight.shape[0], agg_p.proj_weight.shape[1]
    if f2.shape[1] != c2:
        raise ShapeError("aggregate", "channel", c2, f2.shape[1])
    if target_shape[1] != c1:
        raise ShapeError("aggregate", "channel", c1, target_shape[1])
    res = ops.bilinear_resize(f2, target_shape[2], target_shape[3])
    return conv2d(res, agg_p.proj_weight, agg_p.proj_bias,
                  same_spec(c2, 1, 1, out_channels=c1))


def aggregate_vjp(f1, f2, agg_p, gy):
    if f1.shape == f2.shape:
        gp = zeros_like_params(agg_p) if agg_p is not None else None
        return gy, gy, gp
    c1, c2 = agg_p.proj_weight.shape[0], agg_p.proj_weight.shape[1]
    res = ops.bilinear_resize(f2, f1.shape[2], f1.shape[3])
    g_res, gw, gb = conv2d_vjp(res, agg_p.proj_weight, agg_p.proj_bias,
                               same_spec(c2, 1, 1, out_channels=c1), gy)
    g2 = ops.bilinear_resize_vjp(f2.shape[2], f2.shape[3], g_res)
    return gy, g2, AggregateParams(proj_weight=gw, proj_bias=gb)


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


def _gmm_pass_parts(f, pos, conv_w, conv_b, bn_scale, bn_shift, bn_mean,
                    bn_var, bn_eps, fuse_w, fuse_b, k, axis):
    regroup = regroup_w if axis == "w" else regroup_h
    restore = restore_w if axis == "w" else restore_h
    c = f.shape[1]
    grouped = regroup(f, k)
    if pos.shape != (1,) + grouped.shape[1:]:
        raise ShapeError("gmm", "pos_embed", (1,) + grouped.shape[1:], pos.shape)
    conv_in = grouped + pos
    spec = same_spec(c // k, 3, 3)
    conved = conv2d(conv_in, conv_w, conv_b, spec)
    restored = restore(conved, k)
    xhat, bn_out = _bn_inference(restored, bn_scale, bn_shift, bn_mean,
                                 bn_var, bn_eps)
    act = ops.gelu(bn_out)
    cat = np.concatenate([f, act], axis=1)
    fuse_spec = same_spec(2 * c, 1, 1, out_channels=c)
    out = conv2d(cat, fuse_w, fuse_b, fuse_spec)
    return {"conv_in": conv_in, "spec": spec, "xhat": xhat, "bn_out": bn_out,
            "cat": cat, "fuse_spec": fuse_spec, "out": out}


def _gmm_pass_vjp(f, parts, conv_w, conv_b, bn_scale, bn_var, bn_eps,
                  fuse_w, fuse_b, k, axis, gy):
    regroup = regroup_w if axis == "w" else regroup_h
    restore = restore_w if axis == "w" else restore_h
    c = f.shape[1]
    g_cat, g_fuse_w, g_fuse_b = conv2d_vjp(parts["cat"], fuse_w, fuse_b,
                                           parts["fuse_spec"], gy)
    gf = g_cat[:, :c].copy()
    g_act = g_cat[:, c:]
    g_bn = ops.activation_grad("gelu", parts["bn_out"]) * g_act
    g_bn_scale = np.sum(g_bn * parts["xhat"], axis=(0, 2, 3))
    g_bn_shift = np.sum(g_bn, axis=(0, 2, 3))
    inv = 1.0 / np.sqrt(bn_var + bn_eps)
    g_restored = g_bn * (bn_scale * inv)[None, :, None, None]
    g_conved = regroup(g_restored, k)
    g_conv_in, g_conv_w, g_conv_b = conv2d_vjp(parts["conv_in"], conv_w,
                                               conv_b, parts["spec"], g_conved)
    g_pos = g_conv_in.sum(axis=0, keepdims=True)
    gf += restore(g_conv_in, k)
    return gf, g_pos, g_conv_w, g_conv_b, g_bn_scale, g_bn_shift, g_fuse_w, g_fuse_b


def gmm(f_agg, p: GmmParams):
    """Column pass then row pass; output dims equal input dims."""
    f_agg = as_feature_map(f_agg, "gmm")
    if f_agg.shape[1] % p.k:
        raise ConfigError(f"gmm: group count {p.k} must divide channel count "
                          f"{f_agg.shape[1]}")
    col = _gmm_pass_parts(f_agg, p.pos_w, p.col_conv_weight, p.col_conv_bias,
                          p.col_bn_scale, p.col_bn_shift, p.col_bn_mean,
                          p.col_bn_var, p.bn_eps, p.col_fuse_weight,
                          p.col_fuse_bias, p.k, "w")["out"]
    return _gmm_pass_parts(col, p.pos_h, p.row_conv_weight, p.row_conv_bias,
                           p.row_bn_scale, p.row_bn_shift, p.row_bn_mean,
                           p.row_bn_var, p.bn_eps, p.row_fuse_weight,
                           p.row_fuse_bias, p.k, "h")["out"]


def gmm_vjp(f_agg, p: GmmParams, gy):
    col_parts = _gmm_pass_parts(f_agg, p.pos_w, p.col_conv_weight,
                                p.col_conv_bias, p.col_bn_scale, p.col_bn_shift,
                                p.col_bn_mean, p.col_bn_var, p.bn_eps,
                                p.col_fuse_weight, p.col_fuse_bias, p.k, "w")
    col = col_parts["out"]
    row_parts = _gmm_pass_parts(col, p.pos_h, p.row_conv_weight,
                                p.row_conv_bias, p.row_bn_scale, p.row_bn_shift,
                                p.row_bn_mean, p.row_bn_var, p.bn_eps,
                                p.row_fuse_weight, p.row_fuse_bias, p.k, "h")
    (g_col, g_pos_h, g_row_conv_w, g_row_conv_b, g_row_bn_scale,
     g_row_bn_shift, g_row_fuse_w, g_row_fuse_b) = _gmm_pass_vjp(
        col, row_parts, p.row_conv_weight, p.row_conv_bias, p.row_bn_scale,
        p.row_bn_var, p.bn_eps, p.row_fuse_weight, p.row_fuse_bias, p.k, "h", gy)
    (gf, g_pos_w, g_col_conv_w, g_col_conv_b, g_col_bn_scale,
     g_col_bn_shift, g_col_fuse_w, g_col_fuse_b) = _gmm_pass_vjp(
        f_agg, col_parts, p.col_conv_weight, p.col_conv_bias, p.col_bn_scale,
        p.col_bn_var, p.bn_eps, p.col_fuse_weight, p.col_fuse_bias, p.k, "w",
        g_col)
    gp = dataclasses.replace(
        p,
        pos_w=g_pos_w, col_conv_weight=g_col_conv_w, col_conv_bias=g_col_conv_b,
        col_bn_scale=g_col_bn_scale, col_bn_shift=g_col_bn_shift,
        col_fuse_weight=g_col_fuse_w, col_fuse_bias=g_col_fuse_b,
        pos_h=g_pos_h, row_conv_weight=g_row_conv_w, row_conv_bias=g_row_conv_b,
        row_bn_scale=g_row_bn_scale, row_bn_shift=g_row_bn_shift,
        row_fuse_weight=g_row_fuse_w, row_fuse_bias=g_row_fuse_b,
    )
    return gf, gp


# ---------------------------------------------------------------------------
# directional detail capture with channel gating
# ---------------------------------------------------------------------------

def _dmm_specs(c):
    return (same_spec(c, 4, 6), same_spec(c, 6, 4))


def dmm_directional(f_gmm, p: DmmParams):
    """f + conv4x6(f) + conv6x4(f); asymmetric padding keeps dims."""
    f_gmm = as_feature_map(f_gmm, "dmm")
    c = f_gmm.shape[1]
    s46, s64 = _dmm_specs(c)
    return (f_gmm + conv2d(f_gmm, p.conv46_weight, p.conv46_bias, s46)
            + conv2d(f_gmm, p.conv64_weight, p.conv64_bias, s64))


def _dmm_gate_parts(f_add, p: DmmParams, ftssa_fn=None):
    feat = ftssa(f_add, p.ftssa) if ftssa_fn is None else ftssa_fn(f_add)
    pooled = ops.global_avg_pool(feat)[:, :, 0, 0]
    h1 = ops.linear(pooled, p.mlp_w1, p.mlp_b1)
    a1 = ops.gelu(h1)
    h2 = ops.linear(a1, p.mlp_w2, p.mlp_b2)
    gate = ops.silu(h2)           # Swish(x) = x * sigmoid(x)
    return {"feat": feat, "pooled": pooled, "h1": h1, "a1": a1, "h2": h2,
            "gate": gate}


def dmm_attention(f_add, p: DmmParams, ftssa_fn=None):
    """Per-(batch, channel) gate with spatial dims 1x1.  `ftssa_fn` lets
    tests substitute the attention stage."""
    f_add = as_feature_map(f_add, "dmm")
    return _dmm_gate_parts(f_add, p, ftssa_fn)["gate"][:, :, None, None]


def dmm(f_gmm, p: DmmParams, gate_fn=None):
    f_add = dmm_directional(f_gmm, p)
    if gate_fn is not None:
        return f_add * gate_fn(f_add)
    return f_add * dmm_attention(f_add, p)


def dmm_directional_vjp(f_gmm, p: DmmParams, gy):
    s46, s64 = _dmm_specs(f_gmm.shape[1])
    gf46, g_w46, g_b46 = conv2d_vjp(f_gmm, p.conv46_weight, p.conv46_bias,
                                    s46, gy)
    gf64, g_w64, g_b64 = conv2d_vjp(f_gmm, p.conv64_weight, p.conv64_bias,
                                    s64, gy)
    gp = dataclasses.replace(zeros_like_params(p),
                             conv46_weight=g_w46, conv46_bias=g_b46,
                             conv64_weight=g_w64, conv64_bias=g_b64)
    return gy + gf46 + gf64, gp


def dmm_attention_vjp(f_add, p: DmmParams, gy):
    """gy has the gate's (N, C, 1, 1) dims."""
    parts = _dmm_gate_parts(f_add, p)
    g_h2 = ops.activation_grad("silu", parts["h2"]) * gy[:, :, 0, 0]
    g_a1, g_mlp_w2, g_mlp_b2 = ops.linear_vjp(parts["a1"], p.mlp_w2, p.mlp_b2, g_h2)
    g_h1 = ops.activation_grad("gelu", parts["h1"]) * g_a1
    g_pooled, g_mlp_w1, g_mlp_b1 = ops.linear_vjp(parts["pooled"], p.mlp_w1,
                                                  p.mlp_b1, g_h1)
    g_feat = ops.global_avg_pool_vjp(parts["feat"], g_pooled[:, :, None, None])
    g_f_add, g_ftssa = ftssa_vjp(f_add, p.ftssa, g_feat)
    gp = dataclasses.replace(zeros_like_params(p), ftssa=g_ftssa,
                             mlp_w1=g_mlp_w1, mlp_b1=g_mlp_b1,
                             mlp_w2=g_mlp_w2, mlp_b2=g_mlp_b2)
    return g_f_add, gp


def dmm_vjp(f_gmm, p: DmmParams, gy):
    f_add = dmm_directional(f_gmm, p)
    gate = dmm_attention(f_add, p)
    g_f_add = gy * gate
    g_gate = np.sum(gy * f_add, axis=(2, 3), keepdims=True)
    g_f_add_att, gp_att = dmm_attention_vjp(f_add, p, g_gate)
    gf, gp_dir = dmm_directional_vjp(f_gmm, p, g_f_add + g_f_add_att)
    return gf, add_params(gp_att, gp_dir)


def gdim(f1, f2, gmm_p: GmmParams, dmm_p: DmmParams, agg_p: AggregateParams = None):
    """dmm(gmm(aggregate(f1, f2)))"""
    return dmm(gmm(aggregate(f1, f2, agg_p), gmm_p), dmm_p)


def gdim_vjp(f1, f2, gmm_p, dmm_p, agg_p, gy):
    """Returns (g_f1, g_f2, g_gmm, g_dmm, g_agg)."""
    f_agg = aggregate(f1, f2, agg_p)
    f_gmm = gmm(f_agg, gmm_p)
    g_f_gmm, g_dmm = dmm_vjp(f_gmm, dmm_p, gy)
    g_f_agg, g_gmm = gmm_vjp(f_agg, gmm_p, g_f_gmm)
    g1, g2, g_agg = aggregate_vjp(f1, f2, agg_p, g_f_agg)
    return g1, g2, g_gmm, g_dmm, g_agg
