"""Dense-tensor primitives: convolution, linear maps, softmax, activations,
pooling, 2-D real FFT and bilinear resampling.

Every primitive is a pure function over float64 (or complex128) arrays and
comes with a hand-written vector-Jacobian product (`*_vjp`) so gradients can
be verified against central differences.  There is no tape: composite ops
chain these VJPs explicitly.  A VJP whose cotangent is real checks it with
`tensor.require_cotangent` against the output shape (or, knowing only the
rank, with `tensor.as_feature_map`), so a complex or misshapen cotangent is
a ShapeError naming the VJP.  rfft2_vjp and half_spectrum_weight_vjp, whose
cotangent is a complex spectrum, check its shape themselves.

A pointwise conv (ConvSpec.pointwise: 1x1, stride 1, no padding, any groups;
its dilation moves no tap) is one grouped matmul: conv2d is W @ x, the bias
added in place, and conv2d_vjp is W^T @ gy, sum_n gy x^T and sum gy.  Every
other conv folds the kernel columns into the GEMM (kn2col style) on one
layout that both calls share.  The rows are zero-padded at the sides, and a
column stack as wide as the output holds kw copies of them, tap j sampled at
column j * dil_w + o * stride_w for output column o.  Each block of rows is
one GEMM, the kernel rows that read it stacked (len(ks) * og, kw * cg) @ the
block's column stack, and each kernel row's slice of the product (its rows
stepped by the row stride) adds straight into the output, which then takes
the bias in place.  conv2d_vjp runs the adjoint: gy is stacked once per
kernel row, straight from gy, so one GEMM gives gw and one the column
stack's gradient, whose kw shifted copies add into a gx padded like the
rows.  Each block's column stack (in the VJP then the stack's gradient) and
per-kernel-row stack (the forward's product, the VJP's gy stack) come from a
per-thread workspace: two flat buffers that grow to the largest block a
thread has run and outlive the call, about 9 MB per thread at the default
config, so a warm conv does not page-fault on them.  A k×k conv's fresh
arrays are its padded rows and its output (the VJP: padded gx, gw and gb).
fold_same turns a sum of stride-1 "same" convs over one input into one conv,
each part placed by same_padding, with the window in which each part reads
its share of the folded weight gradient.

The spectral ops are scipy.fft's real pair, rfft2/irfft2, over the half
spectrum (columns 0..w//2) of a real map, which stands for the Hermitian
spectrum it determines.  half_spectrum_weight builds the half of a resampled
complex grid's Hermitian part in one separable map, its one GEMM writing the
complex output's planes; its VJP's first GEMM reads both planes of the
complex cotangent.
"""

import math
import operator
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft as sfft
from scipy.special import expit, ndtr

from .errors import ConfigError, ShapeError
from .tensor import as_feature_map, require_cotangent, require_real


def _rank4(op, x):
    """x, or a ShapeError naming op if x is not (N, C, H, W)."""
    if x.ndim != 4:
        raise ShapeError(op, "rank", 4, x.ndim)
    return x


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _ints(field, value, n):
    """value as a tuple of n ints, or a ConfigError naming the ConvSpec field."""
    try:
        ints = tuple(map(operator.index, value))
    except TypeError:
        ints = ()
    if len(ints) != n:
        raise ConfigError(f"ConvSpec.{field} must be {n} ints, got {value!r}")
    return ints


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of a 2-D convolution.

    padding is (top, bottom, left, right); asymmetric padding is what keeps
    even kernels (4x6, 6x4) "same"-sized.  stride and dilation are (rows,
    columns).  All three are stored as int tuples; any other length or
    entry type is a ConfigError.
    """

    in_channels: int
    out_channels: int
    kernel_h: int
    kernel_w: int
    stride: tuple = (1, 1)
    padding: tuple = (0, 0, 0, 0)
    dilation: tuple = (1, 1)
    groups: int = 1

    def __post_init__(self):
        for field in ("in_channels", "out_channels", "kernel_h", "kernel_w", "groups"):
            if getattr(self, field) < 1:
                raise ConfigError(f"ConvSpec.{field} must be >= 1, got {getattr(self, field)}")
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise ConfigError(
                f"ConvSpec: groups {self.groups} must divide in_channels "
                f"{self.in_channels} and out_channels {self.out_channels}"
            )
        for field, n in (("stride", 2), ("padding", 4), ("dilation", 2)):
            object.__setattr__(self, field, _ints(field, getattr(self, field), n))
        if any(s < 1 for s in self.stride) or any(d < 1 for d in self.dilation):
            raise ConfigError("ConvSpec: stride and dilation entries must be >= 1")
        if any(p < 0 for p in self.padding):
            raise ConfigError("ConvSpec: padding entries must be >= 0")

    @property
    def pointwise(self):  # 1x1, stride 1, unpadded: one grouped matmul W @ x
        return (self.kernel_h, self.kernel_w) == self.stride == (1, 1) and not any(self.padding)

    @property
    def weight_shape(self):
        return (self.out_channels, self.in_channels // self.groups,
                self.kernel_h, self.kernel_w)

    def output_hw(self, h, w):
        eff_h = self.dilation[0] * (self.kernel_h - 1) + 1
        eff_w = self.dilation[1] * (self.kernel_w - 1) + 1
        ho = (h + self.padding[0] + self.padding[1] - eff_h) // self.stride[0] + 1
        wo = (w + self.padding[2] + self.padding[3] - eff_w) // self.stride[1] + 1
        if ho < 1:
            raise ShapeError("conv2d", "height", f">= {eff_h - self.padding[0] - self.padding[1]}", h)
        if wo < 1:
            raise ShapeError("conv2d", "width", f">= {eff_w - self.padding[2] - self.padding[3]}", w)
        return ho, wo


def same_padding(kernel_h, kernel_w, dilation=(1, 1)):
    """Asymmetric "same" padding: floor((k_eff-1)/2) top/left, the rest
    bottom/right, so output spatial dims equal input dims at stride 1."""
    eff_h = dilation[0] * (kernel_h - 1) + 1
    eff_w = dilation[1] * (kernel_w - 1) + 1
    return ((eff_h - 1) // 2, eff_h - 1 - (eff_h - 1) // 2,
            (eff_w - 1) // 2, eff_w - 1 - (eff_w - 1) // 2)


def same_spec(channels, kernel_h, kernel_w, out_channels=None, groups=1, dilation=(1, 1)):
    """Stride-1 "same" ConvSpec helper; specs are frozen, so calls with the
    same arguments share one validated instance.  dilation is made an int
    pair before the cache sees it, so a list is accepted like a tuple."""
    return _same_spec(channels, kernel_h, kernel_w, out_channels, groups,
                      _ints("dilation", dilation, 2))


@lru_cache(maxsize=256)
def _same_spec(channels, kernel_h, kernel_w, out_channels, groups, dilation):
    return ConvSpec(
        in_channels=channels,
        out_channels=channels if out_channels is None else out_channels,
        kernel_h=kernel_h,
        kernel_w=kernel_w,
        padding=same_padding(kernel_h, kernel_w, dilation),
        dilation=dilation,
        groups=groups,
    )


def fold_same(op, lead, parts):
    """(weight, bias, windows): one conv for the sum of `parts`, (weight, bias)
    pairs of stride-1 "same" convs over one input (ACNet, arXiv:1908.03930), as
    large as the largest part.  Every part's weight leads with `lead`, the
    folded conv's weight_shape[:2].  Part i adds, in order, at windows[i], where
    its same_padding meets the fold's; its weight gradient is gw[windows[i]]."""
    size, windows = _fold_plan(op, lead, tuple((w.shape, b.shape) for w, b in parts))
    weight = np.zeros(lead + size)
    for (w, _), win in zip(parts, windows):
        weight[win] += w
    return weight, sum((b for _, b in parts[1:]), parts[0][1]), windows


@lru_cache(maxsize=64)
def _fold_plan(op, lead, shapes):
    """fold_same's (kernel size, windows) for parts of these (weight, bias) shapes."""
    for i, (ws, bs) in enumerate(shapes):
        if len(ws) != 4 or ws[:2] != lead or bs != lead[:1]:
            raise ShapeError(op, f"part {i}", f"{lead} + (kh, kw), bias {lead[:1]}",
                             f"{ws}, bias {bs}")
    size = tuple(map(max, zip(*(ws[2:] for ws, _ in shapes))))
    top, _, left, _ = same_padding(*size)
    return size, tuple(np.s_[..., top - t:top - t + ws[2], left - l:left - l + ws[3]]
                       for ws, _ in shapes for t, _, l, _ in [same_padding(*ws[2:])])


# Most float64 entries per image in a block's column stack and per-kernel-row
# stack (forward product, VJP gy stack).
_STACK_ENTRIES = 1 << 20


@lru_cache(maxsize=256)
def _conv_plan(spec, h, w):
    """Schedule over an (h, w) input: (ho, wo, blocks).  Output row o of
    kernel row i reads input row o * stride_h + i * dil_h - pad_top.  A
    block (rows, ks, taps) stacks the input rows `rows`, ks slices the
    kernel rows reading them, and each tap (k, src, dst) pairs the block
    rows kernel row ks.start + k reads (a slice stepped by the row stride)
    with the output rows they feed."""
    ho, wo = spec.output_hw(h, w)
    s = spec.stride[0]
    offsets = [i * spec.dilation[0] - spec.padding[0] for i in range(spec.kernel_h)]

    def reading(q, r0, r1):
        """The output rows [a, b) whose input row o * s + q is in [r0, r1)."""
        return max(0, -((q - r0) // s)), min(ho, -((q - r1) // s))

    spans = [(a * s + q, (b - 1) * s + q + 1) for q in offsets
             for a, b in [reading(q, 0, h)] if b > a]
    if not spans:
        return ho, wo, ()
    top, end = min(r0 for r0, _ in spans), max(r1 for _, r1 in spans)
    per_row = (spec.kernel_w * spec.in_channels + spec.kernel_h * spec.out_channels) * wo
    step = -(-(end - top) // max(1, -(-per_row * (end - top) // _STACK_ENTRIES)))
    blocks = []
    for r0 in range(top, end, step):
        r1 = min(end, r0 + step)
        outs = [(i, q, a, b) for i, q in enumerate(offsets)
                for a, b in [reading(q, r0, r1)] if b > a]
        if not outs:  # a dilation or stride wider than the block skips its rows
            continue
        i0 = outs[0][0]
        blocks.append((slice(r0, r1), slice(i0, outs[-1][0] + 1), tuple(
            (i - i0, slice(a * s + q - r0, (b - 1) * s + q - r0 + 1, s), slice(a, b))
            for i, q, a, b in outs)))
    return ho, wo, tuple(blocks)


def _conv_args(x, w, b, spec):
    """x, w and b as float64, each checked to be real and shaped for spec."""
    x, w, b = (require_real(a, "conv2d") for a in (x, w, b))
    for axis, want, got in [("channel", spec.in_channels, _rank4("conv2d", x).shape[1]),
                            ("weights", spec.weight_shape, w.shape),
                            ("bias", (spec.out_channels,), b.shape)]:
        if got != want:
            raise ShapeError("conv2d", axis, want, got)
    return x, w, b


def _conv_setup(x, w, spec):
    """The conv's plan and layout: (ho, wo, blocks, xp, wt).  xp is x
    copied into (n, g, cg, h, w + pad_left + pad_right) zero-padded rows;
    wt is (g, kh, og, kw * cg), column j * cg + c holding tap j of channel c."""
    n, _, h, wd = x.shape
    ho, wo, blocks = _conv_plan(spec, h, wd)
    g, pl = spec.groups, spec.padding[2]
    xp = np.zeros((n, g, spec.in_channels // g, h, pl + wd + spec.padding[3]))
    xp[..., pl:pl + wd] = x.reshape(n, g, -1, h, wd)
    wt = w.reshape(g, spec.out_channels // g, -1, spec.kernel_h, spec.kernel_w)
    wt = wt.transpose(0, 3, 1, 4, 2).reshape(g, spec.kernel_h, wt.shape[1], -1)
    return ho, wo, blocks, xp, wt


_WORKSPACE = threading.local()


def _scratch(slot, shape):
    """A float64 array of shape over this thread's workspace buffer `slot`
    (0 the column stack, 1 the per-kernel-row stack), which grows to the
    largest request and outlives the call; it holds what its last user left."""
    size = math.prod(shape)  # np.prod costs more than a gradcheck-size conv's GEMM
    bufs = getattr(_WORKSPACE, "bufs", None)
    if bufs is None:
        bufs = _WORKSPACE.bufs = [np.empty(0), np.empty(0)]
    if bufs[slot].size < size:
        bufs[slot] = np.empty(size)
    return bufs[slot][:size].reshape(shape)


def _stack(xp, spec, wo, rows):
    """(n, g, kw * cg, nr * wo) column stack of the input rows `rows` in
    workspace slot 0, entry j * cg + c holding channel c at tap j of each
    output column: a copy of the view of xp whose tap axis steps by the
    dilation and whose columns step by the stride."""
    n, g, cg = xp.shape[:3]
    src = xp[..., rows, :]
    sn, sg, sc, sr, sw = src.strides
    taps = np.ndarray((n, g, spec.kernel_w, cg, src.shape[-2], wo), xp.dtype, xp,
                      rows.start * sr, (sn, sg, spec.dilation[1] * sw, sc, sr,
                                        spec.stride[1] * sw))
    stack = _scratch(0, taps.shape)
    np.copyto(stack, taps)
    return stack.reshape(n, g, -1, src.shape[-2] * wo)


def conv2d(x, w, b, spec: ConvSpec):
    """Grouped / strided / dilated 2-D convolution (cross-correlation
    convention): one matmul if pointwise, else one GEMM per block of rows."""
    x, w, b = _conv_args(x, w, b, spec)
    n, g, og = x.shape[0], spec.groups, len(w) // spec.groups
    if spec.pointwise:
        y = np.matmul(w.reshape(g, og, -1), x.reshape(n, g, w.shape[1], -1))
        y += b.reshape(g, og, 1)
        return y.reshape(n, -1, *x.shape[2:])
    ho, wo, blocks, xp, wt = _conv_setup(x, w, spec)
    y = np.zeros((n, g, og, ho, wo))
    for rows, ks, taps in blocks:
        stack = _stack(xp, spec, wo, rows)
        kn = ks.stop - ks.start
        prod = np.matmul(wt[:, ks].reshape(g, kn * og, -1), stack,
                         out=_scratch(1, (n, g, kn * og, stack.shape[-1])))
        prod = prod.reshape(n, g, kn, og, -1, wo)
        for k, src, dst in taps:
            y[..., dst, :] += prod[:, :, k, :, src]
    y += b.reshape(g, og, 1, 1)
    return y.reshape(n, len(w), ho, wo)


def conv2d_vjp(x, w, b, spec: ConvSpec, gy):
    """Gradients of sum-style losses through conv2d: returns (gx, gw, gb).
    Pointwise, one matmul each for gx and gw; otherwise, per block, gy
    stacked once per kernel row meets the column stack in one GEMM for gw
    and the weights in one GEMM for the stack's gradient."""
    x, w, b = _conv_args(x, w, b, spec)
    n, g, og = x.shape[0], spec.groups, len(w) // spec.groups
    gy = require_cotangent(gy, (n, len(w)) + spec.output_hw(*x.shape[2:]), "conv2d_vjp")
    gb = gy.sum(axis=(0, 2, 3))
    if spec.pointwise:
        xs, gys = x.reshape(n, g, w.shape[1], -1), gy.reshape(n, g, og, -1)
        gx = np.matmul(w.reshape(g, og, -1).swapaxes(-1, -2), gys).reshape(x.shape)
        return gx, np.matmul(gys, xs.swapaxes(-1, -2)).sum(axis=0).reshape(w.shape), gb
    ho, wo, blocks, xp, wt = _conv_setup(x, w, spec)
    gy = gy.reshape(n, g, og, ho, wo)
    gxp, gwt = np.zeros(xp.shape), np.zeros_like(wt)
    (s1, d1), cols = (spec.stride[1], spec.dilation[1]), (wo - 1) * spec.stride[1] + 1
    for rows, ks, taps in blocks:
        nr, kn = rows.stop - rows.start, ks.stop - ks.start
        gys = _scratch(1, (n, g, kn, og, nr, wo))
        gys.fill(0.0)
        for k, src, dst in taps:
            gys[:, :, k, :, src] = gy[..., dst, :]
        gys = gys.reshape(n, g, kn * og, -1)
        # the column stack lives for this product only; its gradient, of the
        # same shape, then takes over its workspace slot
        gwt[:, ks] += np.matmul(gys, _stack(xp, spec, wo, rows).swapaxes(-1, -2)).sum(
            axis=0).reshape(wt[:, ks].shape)
        wts = wt[:, ks].reshape(g, kn * og, -1).swapaxes(-1, -2)
        gst = np.matmul(wts, gys, out=_scratch(0, (n, g, wts.shape[1], gys.shape[-1])))
        gst = gst.reshape(n, g, spec.kernel_w, w.shape[1], nr, wo)
        for j in range(spec.kernel_w):
            gxp[..., rows, j * d1:j * d1 + cols:s1] += gst[:, :, j]
    gx = gxp[..., spec.padding[2]:spec.padding[2] + x.shape[3]].reshape(x.shape)
    gw = gwt.reshape(g, spec.kernel_h, og, spec.kernel_w, -1).transpose(0, 2, 4, 1, 3)
    return gx, gw.reshape(spec.weight_shape), gb


# ---------------------------------------------------------------------------
# linear / softmax / activations / pooling
# ---------------------------------------------------------------------------

def _linear_args(x, w, b):
    """x, w and b as float64, each checked to be real and shaped for
    x @ w + b: x (m, n), w (n, p), b (p,)."""
    x, w, b = (require_real(a, "linear") for a in (x, w, b))
    if x.ndim != 2 or w.ndim != 2:
        raise ShapeError("linear", "rank", 2, x.ndim if x.ndim != 2 else w.ndim)
    if x.shape[1] != w.shape[0]:
        raise ShapeError("linear", "inner", w.shape[0], x.shape[1])
    if b.shape != (w.shape[1],):
        raise ShapeError("linear", "bias", (w.shape[1],), b.shape)
    return x, w, b


def linear(x, w, b):
    """Row-wise affine map: out = x @ w + b for x (m, n), w (n, p), b (p,)."""
    x, w, b = _linear_args(x, w, b)
    return x @ w + b


def linear_vjp(x, w, b, gy):
    x, w, b = _linear_args(x, w, b)
    gy = require_cotangent(gy, x.shape[:-1] + w.shape[1:], "linear_vjp")
    return gy @ w.T, x.T @ gy, gy.sum(axis=0)


def _softmax_args(x, axis):
    """x as float64, checked to be real, and axis as an int in its range."""
    x, axis = require_real(x, "softmax"), int(axis)
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError("softmax", "axis", f"in [-{x.ndim}, {x.ndim})", axis)
    return x, axis


def softmax(x, axis):
    """Numerically stable softmax along one axis (max-subtraction)."""
    x, axis = _softmax_args(x, axis)
    z = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_vjp(y, axis, gy):
    """softmax's VJP from its output y = softmax(x, axis) alone: no softmax runs."""
    y, axis = _softmax_args(y, axis)
    gy = require_cotangent(gy, y.shape, "softmax_vjp")
    return y * (gy - (gy * y).sum(axis=axis, keepdims=True))


_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def sigmoid(x):
    return expit(x)


def silu(x):
    s = sigmoid(x)
    s *= x
    return s


def gelu(x):
    g = ndtr(x)
    g *= x
    return g


# kind: (act(x), d act(x) / dx), both elementwise
_ACTIVATIONS = {
    "tanh": (np.tanh, lambda x: 1.0 - (t := np.tanh(x)) * t),
    "gelu": (gelu, lambda x: ndtr(x) + x * (_INV_SQRT_2PI * np.exp(-0.5 * x * x))),
    "silu": (silu, lambda x: (s := sigmoid(x)) * (1.0 + x * (1.0 - s))),
    "sigmoid": (sigmoid, lambda x: (s := sigmoid(x)) * (1.0 - s)),
}
ACTIVATIONS = tuple(_ACTIVATIONS)


def _activation_pair(kind):
    if kind not in _ACTIVATIONS:
        raise ConfigError(f"activation: unknown kind '{kind}'")
    return _ACTIVATIONS[kind]


def activation(kind, x):
    return _activation_pair(kind)[0](require_real(x, "activation"))


def activation_grad(kind, x):
    """Elementwise derivative d act(x) / dx."""
    return _activation_pair(kind)[1](x)


def activation_vjp(kind, x, gy):
    x = require_real(x, "activation")
    return activation_grad(kind, x) * require_cotangent(gy, x.shape, "activation_vjp")


def global_avg_pool(x):
    """Per (batch, channel) spatial mean; output spatial dims 1x1."""
    x = require_real(x, "global_avg_pool")
    return _rank4("global_avg_pool", x).mean(axis=(2, 3), keepdims=True)


def global_avg_pool_vjp(in_h, in_w, gy):
    """Adjoint of global_avg_pool back to spatial dims (in_h, in_w)."""
    gy = as_feature_map(gy, "global_avg_pool_vjp")
    gy = require_cotangent(gy, gy.shape[:2] + (1, 1), "global_avg_pool_vjp")
    _sizes("global_avg_pool_vjp", in_h, in_w)
    return np.broadcast_to(gy / (in_h * in_w), gy.shape[:2] + (in_h, in_w)).copy()


# ---------------------------------------------------------------------------
# 2-D real FFT over the spatial axes
# ---------------------------------------------------------------------------
# Convention: forward unnormalized, inverse divides by H*W, so Parseval reads
# sum x^2 == sum |X|^2 / (H*W) over the full spectrum.  Any spatial size is
# supported (the backing transform is mixed-radix with Bluestein for large
# primes).  rfft2 keeps the half spectrum (columns 0..w//2) of a real map.  A
# half spectrum stands for the Hermitian full spectrum it determines, in
# values and in cotangents, so each VJP below is the full-spectrum VJP of its
# op written on half spectra: irfft2_vjp of gy is the half of fft2(gy) / (h w),
# and rfft2_vjp of a half equals h w Re(ifft2) of the full spectrum (gy
# packing dL/dRe + i dL/dIm).  For real x and W the grid re + i im resampled
# to (h, w), Re(ifft2(W * fft2(x))) ==
# irfft2(half_spectrum_weight(re, im, h, w) * rfft2(x), w).

def _half(op, spectrum, w):
    """spectrum, or a ShapeError naming op if it is not the (N, C, h,
    w // 2 + 1) half spectrum of a width-w map."""
    if _rank4(op, spectrum).shape[-1] != w // 2 + 1:
        raise ShapeError(op, "half-spectrum width", w // 2 + 1, spectrum.shape[-1])
    return spectrum


def rfft2(x):
    return sfft.rfft2(_rank4("rfft2", x), axes=(-2, -1))


def irfft2(spectrum, w):
    """The real (h, w) map whose spectrum has this half."""
    return sfft.irfft2(_half("irfft2", spectrum, w), s=(spectrum.shape[-2], w),
                       axes=(-2, -1))


def rfft2_vjp(gy, w):
    """VJP of rfft2 for a real input of width w; gy is a half spectrum."""
    gx = irfft2(_half("rfft2_vjp", gy, w), w)
    gx *= gy.shape[-2] * w
    return gx


def irfft2_vjp(gy):
    """VJP of irfft2; gy is real."""
    gy = as_feature_map(gy, "irfft2_vjp")
    h, w = gy.shape[-2:]
    gz = sfft.rfft2(gy, axes=(-2, -1))
    gz /= h * w
    return gz


@lru_cache(maxsize=64)
def _half_spectrum_maps(in_h, in_w, h, w):
    """(A_h over A-bar_h, planes, grads) on the half columns k, A being a
    resize matrix and A-bar its rows at -k.  planes (4 in_w, 2 (w//2 + 1))
    maps the rows [Re A_h Z, Re A-bar_h Z, Im A_h Z, Im A-bar_h Z] to the
    interleaved real and imaginary planes of the half spectrum; grads
    (2 (w//2 + 1), 4 in_w), its mirror in the VJP, maps those interleaved
    planes of a cotangent g to [Re g A_w, Im g A_w, Re g fold, -Im g fold],
    fold being A-bar_w but zero where -k is a half column too (k == 0,
    k == w / 2)."""
    ah, aw = _resize_matrix(in_h, h), _resize_matrix(in_w, w)
    k = np.arange(w // 2 + 1)
    mirror = aw[-k % w]
    fold = np.where(((k > 0) & (2 * k != w))[:, None], mirror, 0.0)
    planes = np.zeros((4, in_w, len(k), 2))
    planes[0, ..., 0], planes[1, ..., 0] = aw[k].T, mirror.T
    planes[2, ..., 1], planes[3, ..., 1] = aw[k].T, -mirror.T
    planes *= 0.5
    grads = np.zeros((len(k), 2, 4, in_w))
    grads[:, 0, 0], grads[:, 1, 1] = aw[k], aw[k]
    grads[:, 0, 2], grads[:, 1, 3] = fold, -fold
    return (np.concatenate([ah, ah[-np.arange(h) % h]]),
            planes.reshape(4 * in_w, -1), grads.reshape(-1, 4 * in_w))


def half_spectrum_weight(re, im, h, w):
    """Half spectrum (..., h, w // 2 + 1) of the Hermitian part of the grid
    Z = re + i im (..., in_h, in_w) resampled to (h, w):
    (A_h Z A_w^T + A-bar_h conj(Z) A-bar_w^T) / 2, one GEMM writing both
    planes of the complex output."""
    if re.ndim < 2 or re.shape != im.shape:
        raise ShapeError("half_spectrum_weight", "imaginary grid", re.shape, im.shape)
    in_h, in_w = re.shape[-2:]
    _sizes("half_spectrum_weight", in_h, in_w, h, w)
    rows, planes, _ = _half_spectrum_maps(in_h, in_w, h, w)
    t = rows @ np.stack([re, im])   # (2, ..., 2h, in_w): A_h Z over A-bar_h Z
    t = np.moveaxis(t.reshape(2, *re.shape[:-2], 2, h, in_w), (0, -3), (-3, -2))
    out = np.empty(re.shape[:-2] + (h, w // 2 + 1), complex)
    np.matmul(t.reshape(*re.shape[:-2], h, 4 * in_w), planes,
              out=out.view(np.float64))
    return out


def half_spectrum_weight_vjp(in_h, in_w, w, gy):
    """(g_re, g_im) = A_h^T gy A_w + A-bar_h^T conj(gy) fold: gy packs
    dL/dRe + i dL/dIm of a half standing for the full spectrum, whose columns
    above w // 2 the fold adds onto their mirrors.  One GEMM reads both
    planes of gy; a second applies [A_h over A-bar_h]^T."""
    if gy.ndim < 2 or gy.shape[-1] != w // 2 + 1:
        raise ShapeError("half_spectrum_weight_vjp", "grad",
                         f"(..., h, {w // 2 + 1})", gy.shape)
    h = gy.shape[-2]
    _sizes("half_spectrum_weight_vjp", in_h, in_w, h, w)
    rows, _, grads = _half_spectrum_maps(in_h, in_w, h, w)
    t = np.ascontiguousarray(gy, complex).view(np.float64) @ grads
    # (..., h, [A_w, fold], [re, im], in_w) -> (..., [A_w, fold] h, [re, im] in_w)
    t = t.reshape(*gy.shape[:-2], h, 2, 2 * in_w).swapaxes(-3, -2)
    g_grid = rows.T @ t.reshape(*gy.shape[:-2], 2 * h, 2 * in_w)
    return g_grid[..., :in_w], g_grid[..., in_w:]


# ---------------------------------------------------------------------------
# bilinear resampling (half-pixel centers)
# ---------------------------------------------------------------------------

def _sizes(op, *sizes):
    """A ShapeError naming op if a source or target size of a resize is
    below 1."""
    if min(sizes) < 1:
        raise ShapeError(op, "size", ">= 1", min(sizes))


@lru_cache(maxsize=64)
def _resize_matrix(n_in, n_out):
    """(n_out, n_in) interpolation matrix; identity when sizes match."""
    if n_in == n_out:
        return np.eye(n_in)
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(int)
    i1 = np.minimum(i0 + 1, n_in - 1)
    t = src - i0
    mat = np.zeros((n_out, n_in))
    rows = np.arange(n_out)
    np.add.at(mat, (rows, i0), 1.0 - t)
    np.add.at(mat, (rows, i1), t)
    return mat


def bilinear_resize(x, out_h, out_w):
    """Resample the spatial axes of (N, C, H, W) to (out_h, out_w)."""
    x = require_real(x, "bilinear_resize")
    _sizes("bilinear_resize", *_rank4("bilinear_resize", x).shape[2:], out_h, out_w)
    ah = _resize_matrix(x.shape[2], out_h)
    aw = _resize_matrix(x.shape[3], out_w)
    tmp = np.matmul(ah[None, None], x)
    return np.matmul(tmp, aw.T[None, None])


def bilinear_resize_vjp(in_h, in_w, gy):
    """Adjoint of bilinear_resize back to spatial dims (in_h, in_w)."""
    gy = as_feature_map(gy, "bilinear_resize_vjp")
    _sizes("bilinear_resize_vjp", in_h, in_w)
    ah = _resize_matrix(in_h, gy.shape[2])
    aw = _resize_matrix(in_w, gy.shape[3])
    tmp = np.matmul(ah.T[None, None], gy)
    return np.matmul(tmp, aw[None, None])
