"""Attention stage: DyT transform, token-statistics self-attention, Mona
bottleneck adapters, spectral feed-forward, composed as two serial stages.
The per-pixel channel maps (Mona's skip) are matmuls over (n, c, h * w)
views, and seff's spectral branches run the real FFT on the half spectrum,
with the Hermitian part of their complex weight.

Each op has one forward, the public `op(x, p, *, cache=NO_CACHE) -> out`,
and a private backward `_op_bwd(cache, p, gy) -> (input gradient, parameter
gradients in the parameters' record type)`.  The forward keeps in `cache`
only what backward cannot rebuild elementwise (conv, FFT and projection
outputs, conv inputs), calling each child op by its public name on
`cache.sub(name)`; backward pops each entry as it uses it.  The default
`NO_CACHE` keeps nothing, and `op_vjp` is `_op_bwd` on the cache of one
forward run.  A VJP rejects what its forward rejects and a cotangent `gy`
that is complex or not shaped like the output (`tensor.require_cotangent`).
tssa's backward reads the head distribution it cached, runs its output
projection's VJP through `ops.linear_vjp`, and recomputes no softmax.
"""
import math

import dataclasses
import numpy as np

from . import ops
from .errors import ShapeError
from .ops import conv2d, conv2d_vjp, same_spec
from .params import (DyTParams, FtssaParams, MonaParams, SeffParams,
                     TssaParams, add_params, zeros_like_params)
from .tensor import (NO_CACHE, as_feature_map, cached, from_tokens,
                     require_channels, require_cotangent, to_tokens)


# ---------------------------------------------------------------------------
# DyT
# ---------------------------------------------------------------------------

def dyt(x, p: DyTParams, *, cache=NO_CACHE):
    """Per-channel gamma * tanh(alpha * x) + beta."""
    x = as_feature_map(x, "dyt")
    require_channels(x, p.gamma.shape[0], "dyt")
    cache.keep(x=x)
    t = np.tanh(p.alpha * x)
    return p.gamma[None, :, None, None] * t + p.beta[None, :, None, None]


def _dyt_bwd(cache, p: DyTParams, gy):
    x = cache.pop("x")
    t = np.tanh(p.alpha * x)
    sech2 = 1.0 - t * t
    gx = gy * p.gamma[None, :, None, None] * p.alpha * sech2
    g_alpha = float(np.sum(gy * p.gamma[None, :, None, None] * x * sech2))
    g_gamma = np.sum(gy * t, axis=(0, 2, 3))
    g_beta = np.sum(gy, axis=(0, 2, 3))
    return gx, DyTParams(alpha=g_alpha, gamma=g_gamma, beta=g_beta)


def dyt_vjp(x, p: DyTParams, gy):
    out, cache = cached(dyt, x, p)
    return _dyt_bwd(cache, p, require_cotangent(gy, out, "dyt_vjp"))


# ---------------------------------------------------------------------------
# token-statistics attention
# ---------------------------------------------------------------------------

# Every tssa quantity is per token and only the weights are shared, so tssa
# runs over blocks of this many tokens, whose working set stays in cache.
_TOKEN_BLOCK = 1024


def _tssa_parts(t, p: TssaParams):
    """Token-level forward of one block: the output under "out", beside the
    cache that backward reads (the tokens "t", their statistics "f" and
    radii "r", the head distribution "pi" and the attention "attn"; not the
    scores, whose softmax VJP needs only pi)."""
    b, n, c = t.shape
    h, d = p.heads, p.head_dim
    proj = t.reshape(b * n, c) @ p.qkv_weight          # (b*n, h*d)
    f = proj.reshape(b, n, h, d).transpose(0, 2, 1, 3)  # stats (b, h, n, d)
    r = np.sqrt(np.sum(f * f, axis=3, keepdims=True))
    v = f / (r + p.eps)
    s = (v * v).sum(axis=3)                            # (b, h, n)
    pi = ops.softmax(s, axis=1)                        # distribution over heads
    ratio = pi / (d * pi + p.eps)
    attn = 1.0 / (1.0 + ratio[..., None] * f * f)
    out = ops.linear(_tssa_pre(f, pi, attn, p), p.out_weight, p.out_bias)
    return {"t": t, "f": f, "r": r, "pi": pi, "attn": attn,
            "out": out.reshape(b, n, c)}


def _tssa_blocks(t, p: TssaParams):
    """(output, the blocks' caches): _tssa_parts over each _TOKEN_BLOCK
    tokens of t."""
    blocks = [_tssa_parts(t[:, i:i + _TOKEN_BLOCK], p)
              for i in range(0, t.shape[1], _TOKEN_BLOCK)]
    return np.concatenate([q.pop("out") for q in blocks], axis=1), blocks


def _tssa_scale(pi, p: TssaParams):
    return math.pi if p.pi_mode == "constant" else pi[..., None]


def _tssa_pre(f, pi, attn, p: TssaParams):
    """The attention-weighted statistics, laid out (tokens, heads*head_dim)
    for the output projection."""
    b, h, n, d = f.shape
    pre = -f * _tssa_scale(pi, p) * attn
    return pre.transpose(0, 2, 1, 3).reshape(b * n, h * d)


def tssa(x, p: TssaParams, *, cache=NO_CACHE):
    """Feature-map wrapper: flatten to tokens, attend, restore the layout."""
    x = as_feature_map(x, "tssa")
    require_channels(x, p.qkv_weight.shape[0], "tssa")
    out, blocks = _tssa_blocks(to_tokens(x), p)
    cache.keep(blocks=blocks)
    return from_tokens(out, x.shape[2], x.shape[3])


def _tssa_block_bwd(q, p: TssaParams, gy):
    """(token gradient, g_qkv_w, g_out_w, g_out_b) of one block's cache q
    under its token cotangent gy (b, n, c)."""
    t, f, r, pi, attn = q["t"], q["f"], q["r"], q["pi"], q["attn"]
    b, n, c = t.shape
    h, d = p.heads, p.head_dim
    g_pre, g_out_w, g_out_b = ops.linear_vjp(_tssa_pre(f, pi, attn, p), p.out_weight,
                                             p.out_bias, gy.reshape(b * n, c))
    g_pre = g_pre.reshape(b, n, h, d).transpose(0, 2, 1, 3)
    scale = _tssa_scale(pi, p)
    gf = -scale * attn * g_pre
    g_attn = -scale * f * g_pre
    g_pi_direct = (0.0 if p.pi_mode == "constant"
                   else np.sum(-f * attn * g_pre, axis=3))
    denom = d * pi + p.eps
    g_dots = -g_attn * attn * attn
    g_ratio = np.sum(g_dots * f * f, axis=3)
    gf += g_dots * (pi / denom)[..., None] * 2.0 * f

    # d(ratio)/d(pi) collapses to eps / denom^2
    g_pi = g_ratio * p.eps / (denom * denom) + g_pi_direct
    g_s = pi * (g_pi - (g_pi * pi).sum(axis=1, keepdims=True))   # softmax's VJP
    # s = (r / (r + eps))^2, so ds/df = 2 eps f / (r + eps)^3
    gf += (2.0 * p.eps * g_s[..., None] / (r + p.eps) ** 3) * f
    g_proj = gf.transpose(0, 2, 1, 3).reshape(b * n, h * d)
    g_qkv_w = t.reshape(b * n, c).T @ g_proj
    gt = (g_proj @ p.qkv_weight.T).reshape(b, n, c)
    return gt, g_qkv_w, g_out_w, g_out_b


def _tssa_bwd(cache, p: TssaParams, gy):
    gy_t = to_tokens(gy)
    grads = [_tssa_block_bwd(q, p, gy_t[:, i:i + _TOKEN_BLOCK]) for i, q in zip(
        range(0, gy_t.shape[1], _TOKEN_BLOCK), cache.pop("blocks"))]
    gt = np.concatenate([g[0] for g in grads], axis=1)
    g_qkv_w, g_out_w, g_out_b = (sum(g[k] for g in grads) for k in (1, 2, 3))
    gp = dataclasses.replace(p, qkv_weight=g_qkv_w, out_weight=g_out_w,
                             out_bias=g_out_b)
    return from_tokens(gt, gy.shape[2], gy.shape[3]), gp


def tssa_tokens(t, p: TssaParams):
    """Attention over a token sequence (batch, tokens, channels)."""
    if t.ndim != 3:
        raise ShapeError("tssa", "rank", 3, t.ndim)
    if t.shape[2] != p.qkv_weight.shape[0]:
        raise ShapeError("tssa", "channel", p.qkv_weight.shape[0], t.shape[2])
    return _tssa_blocks(np.ascontiguousarray(t, dtype=np.float64), p)[0]


def tssa_vjp(x, p: TssaParams, gy):
    out, cache = cached(tssa, x, p)
    return _tssa_bwd(cache, p, require_cotangent(gy, out, "tssa_vjp"))


# ---------------------------------------------------------------------------
# Mona adapter
# ---------------------------------------------------------------------------

def _mona_specs(p: MonaParams):
    c = p.down_weight.shape[1]
    cr = p.down_weight.shape[0]
    return {
        "down": same_spec(c, 1, 1, out_channels=cr),
        "dw": same_spec(cr, 7, 7, groups=cr),
        "mix": same_spec(cr, 1, 1),
        "up": same_spec(cr, 1, 1, out_channels=c),
    }


def _mona_kernel(p: MonaParams):
    """dw3 + dw5 + dw7 as one depthwise 7x7 conv (ACNet's structural
    re-parameterisation): the three read the same input with centred "same"
    padding, so their sum is the conv whose kernel is dw7 plus dw5 and dw3
    zero-padded to 7x7, with the summed bias."""
    w = p.dw7_weight.copy()
    w[..., 1:6, 1:6] += p.dw5_weight
    w[..., 2:5, 2:5] += p.dw3_weight
    return w, p.dw3_bias + p.dw5_bias + p.dw7_bias


def mona_op(z, p: MonaParams, *, cache=NO_CACHE):
    """Residual multi-scale mix on the reduced channel count: the mean of
    the dw3, dw5 and dw7 convs, run as the one folded 7x7 conv."""
    z = as_feature_map(z, "mona_op")
    require_channels(z, p.down_weight.shape[0], "mona_op")
    sp = _mona_specs(p)
    mix_in = conv2d(z, *_mona_kernel(p), sp["dw"]) / 3.0 + z
    cache.keep(z=z, mix_in=mix_in)
    return z + conv2d(mix_in, p.mix_weight, p.mix_bias, sp["mix"])


def _mona_op_bwd(cache, p: MonaParams, gy):
    sp = _mona_specs(p)
    g_mix_in, g_mix_w, g_mix_b = conv2d_vjp(cache.pop("mix_in"), p.mix_weight,
                                            p.mix_bias, sp["mix"], gy)
    gz, gw, gb = conv2d_vjp(cache.pop("z"), *_mona_kernel(p), sp["dw"],
                            g_mix_in / 3.0)
    # each folded kernel's gradient is its crop of gw, in its own array
    gp = dataclasses.replace(
        zeros_like_params(p),
        dw3_weight=gw[..., 2:5, 2:5].copy(), dw3_bias=gb,
        dw5_weight=gw[..., 1:6, 1:6].copy(), dw5_bias=gb.copy(),
        dw7_weight=gw, dw7_bias=gb.copy(), mix_weight=g_mix_w, mix_bias=g_mix_b)
    return gy + g_mix_in + gz, gp


def mona_op_vjp(z, p: MonaParams, gy):
    out, cache = cached(mona_op, z, p)
    return _mona_op_bwd(cache, p, require_cotangent(gy, out, "mona_op_vjp"))


def xmona(x, p: MonaParams, *, cache=NO_CACHE):
    """Tiny-scaled per-pixel linear skip across the full channel count."""
    x = as_feature_map(x, "xmona")
    require_channels(x, p.skip_weight.shape[1], "xmona")
    cache.keep(x=x)
    n, _, h, w = x.shape
    return p.skip_scale * np.matmul(p.skip_weight, x.reshape(n, -1, h * w)).reshape(
        n, -1, h, w)


def _xmona_bwd(cache, p: MonaParams, gy):
    x = cache.pop("x")
    n, _, h, w = x.shape
    gy = gy.reshape(n, -1, h * w)
    # <gy, skip_weight . x> summed over pixels is <skip_weight, gy x^T>
    g_lin = np.matmul(gy, x.reshape(n, -1, h * w).swapaxes(1, 2)).sum(axis=0)
    gx = p.skip_scale * np.matmul(p.skip_weight.T, gy).reshape(x.shape)
    gp = dataclasses.replace(zeros_like_params(p),
                             skip_weight=p.skip_scale * g_lin,
                             skip_scale=float(np.sum(p.skip_weight * g_lin)))
    return gx, gp


def xmona_vjp(x, p: MonaParams, gy):
    out, cache = cached(xmona, x, p)
    return _xmona_bwd(cache, p, require_cotangent(gy, out, "xmona_vjp"))


def mona(x, p: MonaParams, *, cache=NO_CACHE):
    """xmona(x) + up(gelu(mona_op(down(x))))"""
    x = as_feature_map(x, "mona")
    require_channels(x, p.down_weight.shape[1], "mona")
    sp = _mona_specs(p)
    skip = xmona(x, p, cache=cache.sub("skip"))
    mo = mona_op(conv2d(x, p.down_weight, p.down_bias, sp["down"]), p,
                 cache=cache.sub("op"))
    cache.keep(x=x, mo=mo)
    return skip + conv2d(ops.gelu(mo), p.up_weight, p.up_bias, sp["up"])


def _mona_bwd(cache, p: MonaParams, gy):
    sp = _mona_specs(p)
    gx, gp_skip = _xmona_bwd(cache.pop("skip"), p, gy)
    mo = cache.pop("mo")
    g_act, g_up_w, g_up_b = conv2d_vjp(ops.gelu(mo), p.up_weight, p.up_bias,
                                       sp["up"], gy)
    gz, gp_op = _mona_op_bwd(cache.pop("op"), p,
                             ops.activation_grad("gelu", mo) * g_act)
    gx_down, g_down_w, g_down_b = conv2d_vjp(cache.pop("x"), p.down_weight,
                                             p.down_bias, sp["down"], gz)
    gp = dataclasses.replace(add_params(gp_skip, gp_op),
                             down_weight=g_down_w, down_bias=g_down_b,
                             up_weight=g_up_w, up_bias=g_up_b)
    return gx + gx_down, gp


def mona_vjp(x, p: MonaParams, gy):
    out, cache = cached(mona, x, p)
    return _mona_bwd(cache, p, require_cotangent(gy, out, "mona_vjp"))


# ---------------------------------------------------------------------------
# spectral feed-forward
# ---------------------------------------------------------------------------

def _seff_specs(c):
    return {
        "split": same_spec(c, 1, 1, out_channels=2 * c),
        "b1": same_spec(c, 3, 3, groups=c),
        "b2": same_spec(c, 3, 3, groups=c, dilation=(2, 2)),
        "merge": same_spec(c, 1, 1),
    }


def _branch_fwd(half, conv_w, conv_b, spec, re, im, bias, cache):
    """One spectral branch, Re(ifft2(W * fft2(dwconv(half)) + bias)).  W is
    the per-channel complex weight re + i im resampled bilinearly to the
    runtime spatial dims.  The map is real, so this is
    irfft2(W_h * rfft2(dwconv(half)) + bias) on the half spectrum, where
    W_h, the half of W's Hermitian part, comes from the base grid in one
    separable map (ops.half_spectrum_weight)."""
    h, w = half.shape[2], half.shape[3]
    spectrum = ops.rfft2(conv2d(half, conv_w, conv_b, spec))
    weight = ops.half_spectrum_weight(re, im, h, w)
    cache.keep(half=half, spectrum=spectrum, weight=weight)
    return ops.irfft2(weight * spectrum + bias[None, :, None, None], w)


def _branch_bwd(cache, conv_w, conv_b, spec, base_hw, g_t):
    """(g_half, g_conv_w, g_conv_b, g_re, g_im, g_bias)"""
    w = g_t.shape[3]
    gz = ops.irfft2_vjp(g_t)
    # complex product rule under the (dL/dRe + i dL/dIm) packing
    g_re, g_im = ops.half_spectrum_weight_vjp(
        *base_hw, w, (np.conj(cache.pop("spectrum")) * gz).sum(axis=0))
    g_spatial = ops.rfft2_vjp(np.conj(cache.pop("weight")) * gz, w)
    # the bias adds to every bin, so its gradient sums gz over the full
    # spectrum, which is g_t at the origin
    return (*conv2d_vjp(cache.pop("half"), conv_w, conv_b, spec, g_spatial),
            g_re, g_im, g_t[:, :, 0, 0].sum(axis=0))


def seff(x, p: SeffParams, *, cache=NO_CACHE):
    x = as_feature_map(x, "seff")
    require_channels(x, p.split_weight.shape[1], "seff")
    c = p.merge_weight.shape[0]
    sp = _seff_specs(c)
    split = conv2d(x, p.split_weight, p.split_bias, sp["split"])
    t1 = _branch_fwd(split[:, :c], p.branch1_weight, p.branch1_bias, sp["b1"],
                     p.w1_re, p.w1_im, p.freq_bias1, cache.sub("b1"))
    t2 = _branch_fwd(split[:, c:], p.branch2_weight, p.branch2_bias, sp["b2"],
                     p.w2_re, p.w2_im, p.freq_bias2, cache.sub("b2"))
    cache.keep(x=x, t1=t1, t2=t2)
    return conv2d(ops.silu(t2) * t1, p.merge_weight, p.merge_bias, sp["merge"])


def _seff_bwd(cache, p: SeffParams, gy):
    c = p.merge_weight.shape[0]
    sp = _seff_specs(c)
    base_hw = p.w1_re.shape[1:]
    t1, t2 = cache.pop("t1"), cache.pop("t2")
    gate = ops.silu(t2)
    g_prod, g_merge_w, g_merge_b = conv2d_vjp(gate * t1, p.merge_weight,
                                              p.merge_bias, sp["merge"], gy)
    g_t1 = gate * g_prod
    g_t2 = ops.activation_grad("silu", t2) * t1 * g_prod
    del t1, t2, gate, g_prod     # freed before the FFT adjoints allocate
    g_f1, g_b1_w, g_b1_b, g_w1_re, g_w1_im, g_fb1 = _branch_bwd(
        cache.pop("b1"), p.branch1_weight, p.branch1_bias, sp["b1"], base_hw, g_t1)
    g_f2, g_b2_w, g_b2_b, g_w2_re, g_w2_im, g_fb2 = _branch_bwd(
        cache.pop("b2"), p.branch2_weight, p.branch2_bias, sp["b2"], base_hw, g_t2)
    gx, g_split_w, g_split_b = conv2d_vjp(cache.pop("x"), p.split_weight,
                                          p.split_bias, sp["split"],
                                          np.concatenate([g_f1, g_f2], axis=1))
    gp = SeffParams(
        split_weight=g_split_w, split_bias=g_split_b,
        branch1_weight=g_b1_w, branch1_bias=g_b1_b,
        branch2_weight=g_b2_w, branch2_bias=g_b2_b,
        w1_re=g_w1_re, w1_im=g_w1_im, w2_re=g_w2_re, w2_im=g_w2_im,
        freq_bias1=g_fb1, freq_bias2=g_fb2,
        merge_weight=g_merge_w, merge_bias=g_merge_b)
    return gx, gp


def seff_vjp(x, p: SeffParams, gy):
    out, cache = cached(seff, x, p)
    return _seff_bwd(cache, p, require_cotangent(gy, out, "seff_vjp"))


# ---------------------------------------------------------------------------
# stage compositions
# ---------------------------------------------------------------------------
# daff and serr share one shape, mona(x + inner(dyt(x))), with tssa or seff
# as the inner op; one pair serves both.

def _stage_fwd(inner, x, dyt_p, inner_p, mona_p, cache):
    return mona(x + inner(dyt(x, dyt_p, cache=cache.sub("dyt")), inner_p,
                          cache=cache.sub("inner")),
                mona_p, cache=cache.sub("mona"))


def _stage_bwd(inner_bwd, cache, dyt_p, inner_p, mona_p, gy):
    g_res, g_mona = _mona_bwd(cache.pop("mona"), mona_p, gy)
    g_normed, g_inner = inner_bwd(cache.pop("inner"), inner_p, g_res)
    gx, g_dyt = _dyt_bwd(cache.pop("dyt"), dyt_p, g_normed)
    return gx + g_res, g_dyt, g_inner, g_mona


def daff(x, dyt_p: DyTParams, tssa_p: TssaParams, mona_p: MonaParams, *,
         cache=NO_CACHE):
    """mona(x + attention(dyt(x)))"""
    return _stage_fwd(tssa, x, dyt_p, tssa_p, mona_p, cache)


def daff_vjp(x, dyt_p, tssa_p, mona_p, gy):
    out, cache = cached(daff, x, dyt_p, tssa_p, mona_p)
    return _stage_bwd(_tssa_bwd, cache, dyt_p, tssa_p, mona_p,
                      require_cotangent(gy, out, "daff_vjp"))


def serr(x, dyt_p: DyTParams, seff_p: SeffParams, mona_p: MonaParams, *,
         cache=NO_CACHE):
    """mona(x + seff(dyt(x)))"""
    return _stage_fwd(seff, x, dyt_p, seff_p, mona_p, cache)


def serr_vjp(x, dyt_p, seff_p, mona_p, gy):
    out, cache = cached(serr, x, dyt_p, seff_p, mona_p)
    return _stage_bwd(_seff_bwd, cache, dyt_p, seff_p, mona_p,
                      require_cotangent(gy, out, "serr_vjp"))


def ftssa(x, p: FtssaParams, *, cache=NO_CACHE):
    """Both stages in series; dims preserved."""
    return serr(daff(x, p.dyt1, p.tssa, p.mona1, cache=cache.sub("daff")),
                p.dyt2, p.seff, p.mona2, cache=cache.sub("serr"))


def _ftssa_bwd(cache, p: FtssaParams, gy):
    g1, g_dyt2, g_seff, g_mona2 = _stage_bwd(_seff_bwd, cache.pop("serr"),
                                             p.dyt2, p.seff, p.mona2, gy)
    gx, g_dyt1, g_tssa, g_mona1 = _stage_bwd(_tssa_bwd, cache.pop("daff"),
                                             p.dyt1, p.tssa, p.mona1, g1)
    return gx, FtssaParams(dyt1=g_dyt1, tssa=g_tssa, mona1=g_mona1,
                           dyt2=g_dyt2, seff=g_seff, mona2=g_mona2)


def ftssa_vjp(x, p: FtssaParams, gy):
    out, cache = cached(ftssa, x, p)
    return _ftssa_bwd(cache, p, require_cotangent(gy, out, "ftssa_vjp"))
