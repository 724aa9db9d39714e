"""Dense-tensor primitives: convolution, linear maps, softmax, activations,
pooling, 2-D FFT and bilinear resampling.

Every primitive is a pure function over float64 (or complex128) arrays and
comes with a hand-written vector-Jacobian product (`*_vjp`) so gradients can
be verified against central differences.  There is no tape: composite ops
chain these VJPs explicitly.  A VJP whose cotangent is real checks it with
`tensor.require_cotangent` against the output shape (or, knowing only the
rank, with `tensor.as_feature_map`), so a complex or misshapen cotangent is
a ShapeError naming the VJP.  fft2_vjp, rfft2_vjp and half_spectrum_weight_vjp,
whose cotangent is a complex spectrum, check its shape themselves.

A pointwise conv (ConvSpec.pointwise: 1x1, stride 1, no padding, any groups;
its dilation moves no tap) is one grouped matmul: conv2d is W @ x, the bias
added in place, and conv2d_vjp is W^T @ gy, sum_n gy x^T and sum gy.  Every
other conv folds the kernel columns into the GEMM (kn2col style): rows are
zero-padded, a column stack holds kw copies of them, each shifted by its tap,
and each block of rows is one GEMM, the kernel rows that read it stacked
(len(ks) * og, kw * cg) @ the block's column stack.  Each kernel row's slice
of that product is one contiguous add into an output as wide as the padded
row, cropped at the end.  conv2d_vjp runs the adjoint on the same layout: gy
is stacked once per kernel row, so one GEMM gives gw and one the column
stack's gradient, whose kw shifted copies add into gx.  Both calls allocate
per block the column stack (a view of the rows when kw == 1) and the
per-kernel-row stack (the forward's product, the VJP's gy stack), on the
same blocks of input rows, whose stacks fit a fixed budget.

The spectral ops come in two forms: fft2/ifft2 over complex spectra, and
rfft2/irfft2 over the half spectrum (columns 0..w//2) of a real map, which
stands for the Hermitian spectrum it determines.  half_spectrum_weight builds
the half of a resampled complex grid's Hermitian part in one separable map.
"""

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
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


# Most float64 entries per image in a block's column stack (none for kw == 1,
# a view of the rows) and per-kernel-row stack (forward product, VJP gy stack).
_STACK_ENTRIES = 1 << 20


@lru_cache(maxsize=256)
def _conv_plan(spec, h, w):
    """Schedule over an (h, w) input: (ho, wo, wp, blocks).  The conv runs
    at stride 1 over rows padded to wp columns and keeps every stride-th
    output; output row o of kernel row i reads input row o + i * dil_h -
    pad_top.  A block (rows, ks, taps) stacks the input rows `rows`, ks
    slices the kernel rows reading them, and each tap (i, src, dst) pairs
    their flat stack and output columns."""
    ho, wo = spec.output_hw(h, w)
    hs, wp = (ho - 1) * spec.stride[0] + 1, w + spec.padding[2] + spec.padding[3]
    spans = [(i, q, max(0, -q), min(hs, h - q)) for i in range(spec.kernel_h)
             for q in [i * spec.dilation[0] - spec.padding[0]] if min(hs, h - q) > max(0, -q)]
    if not spans:
        return ho, wo, wp, ()
    top, end = spans[0][1] + spans[0][2], spans[-1][1] + spans[-1][3]
    per_row = ((spec.kernel_w * spec.in_channels if spec.kernel_w > 1 else 0)
               + spec.kernel_h * spec.out_channels)
    step = -(-(end - top) // max(1, -(-per_row * wp * (end - top) // _STACK_ENTRIES)))
    blocks = []
    for r0 in range(top, end, step):
        r1 = min(end, r0 + step)
        outs = [(i, q, max(lo, r0 - q), min(hi, r1 - q)) for i, q, lo, hi in spans
                if min(hi, r1 - q) > max(lo, r0 - q)]
        if not outs:  # a dilation wider than the output skips rows
            continue
        blocks.append((slice(r0, r1), slice(outs[0][0], outs[-1][0] + 1), tuple(
            (i, slice((a + q - r0) * wp, (b + q - r0) * wp), slice(a * wp, b * wp))
            for i, q, a, b in outs)))
    return ho, wo, wp, tuple(blocks)


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
    """The conv's plan and layout: (ho, wo, wp, blocks, xp, wt).  xp is x in
    (n, g, cg, h, wp + (kw - 1) * dil_w) zero-padded rows (x itself if it is
    contiguous and that wide), so every tap reads within its row; wt is
    (g, kh, og, kw * cg), column j * cg + c holding tap j of channel c."""
    n, _, h, wd = x.shape
    ho, wo, wp, blocks = _conv_plan(spec, h, wd)
    g, pl = spec.groups, spec.padding[2]
    xp = x.reshape(n, g, -1, h, wd)
    span = wp + (spec.kernel_w - 1) * spec.dilation[1]
    if span != wd or not xp.flags.c_contiguous:  # _stack views xp's buffer
        xp = np.zeros(xp.shape[:-1] + (span,))
        xp[..., pl:pl + wd] = x.reshape(n, g, -1, h, wd)
    wt = w.reshape(g, spec.out_channels // g, -1, spec.kernel_h, spec.kernel_w)
    wt = wt.transpose(0, 3, 1, 4, 2).reshape(g, spec.kernel_h, wt.shape[1], -1)
    return ho, wo, wp, blocks, xp, wt


def _stack(xp, spec, wp, rows):
    """(n, g, kw * cg, nr * wp) column stack of the input rows `rows`, entry
    j * cg + c holding channel c shifted by tap j: a view whose tap axis
    steps by the dilation, copied by the reshape unless kw == 1."""
    n, g, cg = xp.shape[:3]
    src = xp[..., rows, :]
    sn, sg, sc, sr, sw = src.strides
    taps = np.ndarray((n, g, spec.kernel_w, cg, src.shape[-2], wp), xp.dtype, xp,
                      rows.start * sr, (sn, sg, spec.dilation[1] * sw, sc, sr, sw))
    return taps.reshape(n, g, -1, src.shape[-2] * wp)


def conv2d(x, w, b, spec: ConvSpec):
    """Grouped / strided / dilated 2-D convolution (cross-correlation
    convention): one matmul if pointwise, else one GEMM per block of rows."""
    x, w, b = _conv_args(x, w, b, spec)
    (s0, s1), n, g, og = spec.stride, x.shape[0], spec.groups, len(w) // spec.groups
    if spec.pointwise:
        y = np.matmul(w.reshape(g, og, -1), x.reshape(n, g, w.shape[1], -1))
        y += b.reshape(g, og, 1)
        return y.reshape(n, -1, *x.shape[2:])
    ho, wo, wp, blocks, xp, wt = _conv_setup(x, w, spec)
    wide = np.zeros((n, g, og, ((ho - 1) * s0 + 1) * wp))
    for rows, ks, taps in blocks:
        prod = np.matmul(wt[:, ks].reshape(g, len(taps) * og, -1),
                         _stack(xp, spec, wp, rows)).reshape(n, g, len(taps), og, -1)
        for k, (_, src, dst) in enumerate(taps):
            wide[..., dst] += prod[:, :, k, :, src]
        del prod  # before the next block allocates its own
    return wide.reshape(n, len(w), -1, wp)[..., ::s0, :(wo - 1) * s1 + 1:s1] + b[:, None, None]


def conv2d_vjp(x, w, b, spec: ConvSpec, gy):
    """Gradients of sum-style losses through conv2d: returns (gx, gw, gb).
    Pointwise, one matmul each for gx and gw; otherwise, per block, gy
    stacked once per kernel row meets the column stack in one GEMM for gw
    and the weights in one GEMM for the stack's gradient."""
    x, w, b = _conv_args(x, w, b, spec)
    (s0, s1), n, g, og = spec.stride, x.shape[0], spec.groups, len(w) // spec.groups
    gy = require_cotangent(gy, (n, len(w)) + spec.output_hw(*x.shape[2:]), "conv2d_vjp")
    gb = gy.sum(axis=(0, 2, 3))
    if spec.pointwise:
        xs, gys = x.reshape(n, g, w.shape[1], -1), gy.reshape(n, g, og, -1)
        gx = np.matmul(w.reshape(g, og, -1).swapaxes(-1, -2), gys).reshape(x.shape)
        return gx, np.matmul(gys, xs.swapaxes(-1, -2)).sum(axis=0).reshape(w.shape), gb
    ho, wo, wp, blocks, xp, wt = _conv_setup(x, w, spec)
    gwide = np.zeros((n, g, og, (ho - 1) * s0 + 1, wp))
    gwide[..., ::s0, :(wo - 1) * s1 + 1:s1] = gy.reshape(n, g, og, ho, wo)
    gwide = gwide.reshape(n, g, og, -1)
    gxp, gwt = np.zeros(xp.shape), np.zeros_like(wt)
    for rows, ks, taps in blocks:
        gys = np.zeros((n, g, len(taps), og, (rows.stop - rows.start) * wp))
        for k, (_, src, dst) in enumerate(taps):
            gys[:, :, k, :, src] = gwide[..., dst]
        gys = gys.reshape(n, g, len(taps) * og, -1)
        # the column stack lives for this product only; its gradient follows
        gwt[:, ks] += np.matmul(gys, _stack(xp, spec, wp, rows).swapaxes(-1, -2)).sum(
            axis=0).reshape(wt[:, ks].shape)
        wts = wt[:, ks].reshape(g, gys.shape[2], -1).swapaxes(-1, -2)
        gst = np.matmul(wts, gys).reshape(n, g, spec.kernel_w, w.shape[1], -1, wp)
        for j in range(spec.kernel_w):
            gxp[..., rows, j * spec.dilation[1]:j * spec.dilation[1] + wp] += gst[:, :, j]
        del gys, gst  # before the next block allocates its own
    gx = gxp[..., spec.padding[2]:spec.padding[2] + x.shape[3]].reshape(x.shape)
    gw = gwt.reshape(g, spec.kernel_h, og, spec.kernel_w, -1).transpose(0, 2, 4, 1, 3)
    return gx, gw.reshape(spec.weight_shape), gb


# ---------------------------------------------------------------------------
# linear / softmax / activations / pooling
# ---------------------------------------------------------------------------

def linear(x, w, b):
    """Row-wise affine map: out = x @ w + b for x (m, n), w (n, p), b (p,)."""
    if x.ndim != 2 or w.ndim != 2:
        raise ShapeError("linear", "rank", 2, x.ndim if x.ndim != 2 else w.ndim)
    if x.shape[1] != w.shape[0]:
        raise ShapeError("linear", "inner", w.shape[0], x.shape[1])
    if b.shape != (w.shape[1],):
        raise ShapeError("linear", "bias", (w.shape[1],), tuple(b.shape))
    return x @ w + b


def linear_vjp(x, w, b, gy):
    gy = require_cotangent(gy, x.shape[:-1] + w.shape[1:], "linear_vjp")
    return gy @ w.T, x.T @ gy, gy.sum(axis=0)


def softmax(x, axis):
    """Numerically stable softmax along one axis (max-subtraction)."""
    axis = int(axis)
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError("softmax", "axis", f"in [-{x.ndim}, {x.ndim})", axis)
    z = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_vjp(x, axis, gy):
    gy = require_cotangent(gy, x.shape, "softmax_vjp")
    y = softmax(x, axis)
    return y * (gy - (gy * y).sum(axis=axis, keepdims=True))


_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def sigmoid(x):
    return expit(x)


def silu(x):
    return x * sigmoid(x)


def gelu(x):
    return x * ndtr(x)


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
    return _activation_pair(kind)[0](x)


def activation_grad(kind, x):
    """Elementwise derivative d act(x) / dx."""
    return _activation_pair(kind)[1](x)


def activation_vjp(kind, x, gy):
    return activation_grad(kind, x) * require_cotangent(gy, x.shape, "activation_vjp")


def global_avg_pool(x):
    """Per (batch, channel) spatial mean; output spatial dims 1x1."""
    return _rank4("global_avg_pool", x).mean(axis=(2, 3), keepdims=True)


def global_avg_pool_vjp(x, gy):
    n, c, h, w = _rank4("global_avg_pool_vjp", x).shape
    gy = require_cotangent(gy, (n, c, 1, 1), "global_avg_pool_vjp")
    return np.broadcast_to(gy / (h * w), x.shape).copy()


# ---------------------------------------------------------------------------
# 2-D FFT over the spatial axes
# ---------------------------------------------------------------------------
# Convention: forward unnormalized, inverse divides by H*W, so Parseval reads
# sum |x|^2 == sum |X|^2 / (H*W).  Any spatial size is supported (the backing
# transform is mixed-radix with Bluestein for large primes).  ifft2 returns
# the real part; the imaginary residue of non-symmetric spectra is discarded
# by contract.

def fft2(x):
    return np.fft.fft2(_rank4("fft2", x), axes=(-2, -1))


def ifft2(spectrum):
    return np.fft.ifft2(_rank4("ifft2", spectrum), axes=(-2, -1)).real


def fft2_vjp(gy):
    """VJP of fft2 for a real input.  gy is complex with the convention
    gy = dL/dRe(X) + i * dL/dIm(X); returns dL/dx (real)."""
    h, w = _rank4("fft2_vjp", gy).shape[-2:]
    return h * w * np.fft.ifft2(gy, axes=(-2, -1)).real


def ifft2_vjp(gy):
    """VJP of x -> Re(ifft2(x)) for complex input; gy is real."""
    gy = as_feature_map(gy, "ifft2_vjp")
    h, w = gy.shape[-2:]
    return np.fft.fft2(gy, axes=(-2, -1)) / (h * w)


# The real transform: rfft2 keeps the half spectrum (columns 0..w//2) of a real
# map.  A half spectrum stands for the Hermitian full spectrum it determines,
# in values and in cotangents, so each VJP below is the full-spectrum VJP of
# its op written on half spectra: irfft2_vjp is ifft2_vjp's half, and
# rfft2_vjp of a half equals fft2_vjp of the full spectrum.  For real x and W
# the grid re + i im resampled to (h, w), Re(ifft2(W * fft2(x))) ==
# irfft2(half_spectrum_weight(re, im, h, w) * rfft2(x), w).

def _half(op, spectrum, w):
    """spectrum, or a ShapeError naming op if it is not the (N, C, h,
    w // 2 + 1) half spectrum of a width-w map."""
    if _rank4(op, spectrum).shape[-1] != w // 2 + 1:
        raise ShapeError(op, "half-spectrum width", w // 2 + 1, spectrum.shape[-1])
    return spectrum


def rfft2(x):
    return np.fft.rfft2(_rank4("rfft2", x), axes=(-2, -1))


def irfft2(spectrum, w):
    """The real (h, w) map whose spectrum has this half."""
    return np.fft.irfft2(_half("irfft2", spectrum, w), s=(spectrum.shape[-2], w),
                         axes=(-2, -1))


def rfft2_vjp(gy, w):
    """VJP of rfft2 for a real input of width w; gy is a half spectrum."""
    return irfft2(_half("rfft2_vjp", gy, w), w) * (gy.shape[-2] * w)


def irfft2_vjp(gy):
    """VJP of irfft2; gy is real."""
    gy = as_feature_map(gy, "irfft2_vjp")
    h, w = gy.shape[-2:]
    return np.fft.rfft2(gy, axes=(-2, -1)) / (h * w)


@lru_cache(maxsize=64)
def _half_spectrum_maps(in_h, in_w, h, w):
    """(A_h over A-bar_h, A_w, A-bar_w, fold) on the half columns k, A being
    a resize matrix and A-bar its rows at -k; fold is A-bar_w but zero where
    -k is a half column too (k == 0, k == w / 2)."""
    ah, aw = _resize_matrix(in_h, h), _resize_matrix(in_w, w)
    k = np.arange(w // 2 + 1)
    mirror = aw[-k % w]
    fold = np.where(((k > 0) & (2 * k != w))[:, None], mirror, 0.0)
    return np.concatenate([ah, ah[-np.arange(h) % h]]), aw[:w // 2 + 1], mirror, fold


def half_spectrum_weight(re, im, h, w):
    """Half spectrum (..., h, w // 2 + 1) of the Hermitian part of the grid
    Z = re + i im (..., in_h, in_w) resampled to (h, w):
    (A_h Z A_w^T + A-bar_h conj(Z) A-bar_w^T) / 2."""
    if re.ndim < 2 or re.shape != im.shape:
        raise ShapeError("half_spectrum_weight", "imaginary grid", re.shape, im.shape)
    _sizes("half_spectrum_weight", *re.shape[-2:], h, w)
    rows, cols, mirror_cols, _ = _half_spectrum_maps(*re.shape[-2:], h, w)
    t = rows @ np.stack([re, im])   # (2, ..., 2h, in_w): A_h Z over A-bar_h Z
    a, b = t[..., :h, :] @ cols.T, t[..., h:, :] @ mirror_cols.T
    out = np.empty(a.shape[1:], complex)   # filled in place: one fresh array
    np.add(a[0], b[0], out=out.real)
    np.subtract(a[1], b[1], out=out.imag)
    out *= 0.5
    return out


def half_spectrum_weight_vjp(in_h, in_w, w, gy):
    """(g_re, g_im) = A_h^T gy A_w + A-bar_h^T conj(gy) fold: gy packs
    dL/dRe + i dL/dIm of a half standing for the full spectrum, whose columns
    above w // 2 the fold adds onto their mirrors."""
    if gy.ndim < 2 or gy.shape[-1] != w // 2 + 1:
        raise ShapeError("half_spectrum_weight_vjp", "grad",
                         f"(..., h, {w // 2 + 1})", gy.shape)
    _sizes("half_spectrum_weight_vjp", in_h, in_w, *gy.shape[-2:])
    rows, cols, _, fold = _half_spectrum_maps(in_h, in_w, gy.shape[-2], w)
    g = np.stack([gy.real, gy.imag, gy.real, -gy.imag])   # gy, conj(gy)
    g_grid = rows.T @ np.concatenate([g[:2] @ cols, g[2:] @ fold], axis=-2)
    return g_grid[0], g_grid[1]


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
