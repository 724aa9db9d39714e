"""Pixel attention over the fused features and the final weighted fusion.

The attention map gates the refined features against a weighted sum of the
two (reconciled) input maps; three scalar fusion weights balance the mix.
Each op has one forward, the public op with a keyword-only `cache`, and a
private `_op_bwd`, with the same input and cotangent checks, as in
`mgdfis.ftssa`.  dpam caches its map, whose sigmoid derivative is
amap * (1 - amap), so its backward evaluates no second sigmoid.
"""

import numpy as np

from . import ops
from .gdim import _reconcile_bwd, _reconcile_fwd
from .ops import conv2d, conv2d_vjp, same_spec
from .params import AggregateParams, DpamParams, FusionWeights, add_params
from .tensor import (NO_CACHE, as_feature_map, cached, require_cotangent,
                     require_same_shape)


def dpam(f_agg, f_hat, p: DpamParams, *, cache=NO_CACHE):
    """Channel-concat, 7x7 convolve down to C, sigmoid: a map in (0,1)."""
    f_agg = as_feature_map(f_agg, "dpam")
    f_hat = as_feature_map(f_hat, "dpam")
    require_same_shape(f_agg, f_hat, "dpam")
    c = f_agg.shape[1]
    cat = np.concatenate([f_agg, f_hat], axis=1)
    amap = ops.sigmoid(conv2d(cat, p.conv_weight, p.conv_bias,
                              same_spec(2 * c, 7, 7, out_channels=c)))
    cache.keep(cat=cat, amap=amap)
    return amap


def _dpam_bwd(cache, p: DpamParams, gy):
    """(g_f_agg, g_f_hat, g_p)"""
    amap = cache.pop("amap")
    c = amap.shape[1]
    g_local = amap * (1.0 - amap) * gy   # activation_grad("sigmoid") at the map
    g_cat, gw, gb = conv2d_vjp(cache.pop("cat"), p.conv_weight, p.conv_bias,
                               same_spec(2 * c, 7, 7, out_channels=c), g_local)
    return g_cat[:, :c], g_cat[:, c:], DpamParams(conv_weight=gw, conv_bias=gb)


def dpam_vjp(f_agg, f_hat, p: DpamParams, gy):
    out, cache = cached(dpam, f_agg, f_hat, p)
    return _dpam_bwd(cache, p, require_cotangent(gy, out, "dpam_vjp"))


def mgdfis_fuse(amap, f_hat, x1, x2, w: FusionWeights,
                agg_p: AggregateParams = None, *, cache=NO_CACHE):
    """w_map * (amap*f_hat + (1-amap)*(w_x1*x1' + w_x2*x2')) where x1, x2
    are reconciled to f_hat dims by the aggregation resampler."""
    amap = as_feature_map(amap, "mgdfis_fuse")
    f_hat = as_feature_map(f_hat, "mgdfis_fuse")
    require_same_shape(amap, f_hat, "mgdfis_fuse")
    x1p = _reconcile_fwd(x1, f_hat.shape, agg_p, cache.sub("x1"))
    x2p = _reconcile_fwd(x2, f_hat.shape, agg_p, cache.sub("x2"))
    base = w.w_x1 * x1p + w.w_x2 * x2p
    inner = amap * f_hat + (1.0 - amap) * base
    cache.keep(amap=amap, f_hat=f_hat, x1p=x1p, x2p=x2p, base=base, inner=inner)
    return w.w_map * inner


def _fuse_bwd(cache, w: FusionWeights, agg_p, gy):
    """(g_amap, g_f_hat, g_x1, g_x2, g_w, g_agg)"""
    amap, base = cache.pop("amap"), cache.pop("base")
    g_w_map = float(np.sum(gy * cache.pop("inner")))
    g_inner = w.w_map * gy
    g_amap = g_inner * (cache.pop("f_hat") - base)
    g_f_hat = g_inner * amap
    g_base = g_inner * (1.0 - amap)
    g_w_x1 = float(np.sum(g_base * cache.pop("x1p")))
    g_w_x2 = float(np.sum(g_base * cache.pop("x2p")))

    g_x1, g_agg1 = _reconcile_bwd(cache.pop("x1"), agg_p, w.w_x1 * g_base)
    g_x2, g_agg2 = _reconcile_bwd(cache.pop("x2"), agg_p, w.w_x2 * g_base)
    g_agg = add_params(g_agg1, g_agg2) if agg_p is not None else None
    gw = FusionWeights(w_map=g_w_map, w_x1=g_w_x1, w_x2=g_w_x2)
    return g_amap, g_f_hat, g_x1, g_x2, gw, g_agg


def mgdfis_fuse_vjp(amap, f_hat, x1, x2, w: FusionWeights, agg_p, gy):
    """Returns (g_amap, g_f_hat, g_x1, g_x2, g_w, g_agg)."""
    out, cache = cached(mgdfis_fuse, amap, f_hat, x1, x2, w, agg_p)
    return _fuse_bwd(cache, w, agg_p,
                     require_cotangent(gy, out, "mgdfis_fuse_vjp"))
