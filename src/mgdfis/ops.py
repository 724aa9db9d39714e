"""Dense-tensor primitives: convolution, linear maps, softmax, activations,
pooling, 2-D FFT and bilinear resampling.

Every primitive is a pure function over float64 (or complex128) arrays and
comes with a hand-written vector-Jacobian product (`*_vjp`) so gradients can
be verified against central differences.  There is no tape: composite ops
chain these VJPs explicitly.

conv2d is one shift-and-accumulate kernel (kn2row style): each kernel offset
adds W[:, :, i, j] @ x[window] into the output range whose input lies inside
the unpadded map, so there is no patch tensor and no padded copy.  One
product serves a kernel row, depthwise rows are broadcast multiplies, and a
1x1 conv is one matmul.  conv2d_vjp is the adjoint of the same schedule.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import erf

from .errors import ConfigError, ShapeError


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvSpec:
    """Geometry of a 2-D convolution.

    padding is (top, bottom, left, right); asymmetric padding is what keeps
    even kernels (4x6, 6x4) "same"-sized.
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
        if any(s < 1 for s in self.stride) or any(d < 1 for d in self.dilation):
            raise ConfigError("ConvSpec: stride and dilation entries must be >= 1")
        if any(p < 0 for p in self.padding):
            raise ConfigError("ConvSpec: padding entries must be >= 0")

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


@lru_cache(maxsize=256)
def same_spec(channels, kernel_h, kernel_w, out_channels=None, groups=1, dilation=(1, 1)):
    """Stride-1 "same" ConvSpec helper; specs are frozen, so calls with the
    same arguments share one validated instance."""
    return ConvSpec(
        in_channels=channels,
        out_channels=channels if out_channels is None else out_channels,
        kernel_h=kernel_h,
        kernel_w=kernel_w,
        padding=same_padding(kernel_h, kernel_w, dilation),
        dilation=dilation,
        groups=groups,
    )


def _check_conv_args(x, w, b, spec):
    if x.ndim != 4:
        raise ShapeError("conv2d", "rank", 4, x.ndim)
    if x.shape[1] != spec.in_channels:
        raise ShapeError("conv2d", "channel", spec.in_channels, x.shape[1])
    if tuple(w.shape) != spec.weight_shape:
        raise ShapeError("conv2d", "weights", spec.weight_shape, tuple(w.shape))
    if b.shape != (spec.out_channels,):
        raise ShapeError("conv2d", "bias", (spec.out_channels,), tuple(b.shape))


def _tap_span(n_in, n_out, offset, stride):
    """Slices of the outputs o whose input o * stride + offset lies in
    [0, n_in), and of those inputs; None when all of them read padding."""
    lo = max(0, -(offset // stride))
    hi = min(n_out, (n_in - 1 - offset) // stride + 1)
    if hi <= lo:
        return None
    start = lo * stride + offset
    return slice(lo, hi), slice(start, start + (hi - lo - 1) * stride + 1, stride)


@lru_cache(maxsize=256)
def _conv_plan(spec, h, w):
    """Schedule over an (h, w) input: (ho, wo, j0, j1, rows).

    Kernel columns [j0, j1) read inside the map.  Each kernel row i that
    does gives (i, input rows, output row count nr, taps).  Its product
    fills the first nr rows of an (n, g, j1 - j0, og, ho, w) buffer, and a
    tap pairs an index into the (n, g, og, ho, wo) output with its part of
    that buffer, which covers the same columns in every row.
    """
    ho, wo = spec.output_hw(h, w)
    cols = [_tap_span(w, wo, j * spec.dilation[1] - spec.padding[2], spec.stride[1])
            for j in range(spec.kernel_w)]
    inside = [j for j, c in enumerate(cols) if c is not None]
    if not inside:
        return ho, wo, 0, 0, ()
    j0, every = inside[0], slice(None)
    rows = []
    for i in range(spec.kernel_h):
        span = _tap_span(h, ho, i * spec.dilation[0] - spec.padding[0], spec.stride[0])
        if span is not None:
            nr = span[0].stop - span[0].start
            rows.append((i, span[1], nr, tuple(
                ((every, every, every, span[0], cols[j][0]),
                 (every, every, j - j0, every, slice(0, nr), cols[j][1]))
                for j in inside)))
    return ho, wo, j0, inside[-1] + 1, tuple(rows)


def _tap_weights(w, spec, j0, j1):
    """Weights as (kh, g, (j1 - j0) * og, cg): one matrix per kernel row."""
    g = spec.groups
    wt = w.reshape(g, spec.out_channels // g, -1, spec.kernel_h, spec.kernel_w)
    wt = np.ascontiguousarray(wt[..., j0:j1].transpose(3, 0, 4, 1, 2))
    return wt.reshape(spec.kernel_h, g, -1, wt.shape[-1])


def conv2d(x, w, b, spec: ConvSpec):
    """Grouped / strided / dilated 2-D convolution (cross-correlation
    convention), one product per kernel row."""
    _check_conv_args(x, w, b, spec)
    n, _, h, wd = x.shape
    ho, wo, j0, j1, rows = _conv_plan(spec, h, wd)
    g = spec.groups
    cg, og = spec.in_channels // g, spec.out_channels // g
    xg = x.reshape(n, g, cg, h, wd)
    wt = _tap_weights(w, spec, j0, j1)
    out = np.empty((n, g, og, ho, wo))
    out[...] = b.reshape(g, og, 1, 1)
    prod = np.empty((n, g, (j1 - j0) * og, ho * wd))
    by_tap = prod.reshape(n, g, j1 - j0, og, ho, wd)
    # depthwise rows are broadcast multiplies, the rest one GEMM each
    row_product = np.multiply if cg == 1 else np.matmul
    for i, in_rows, nr, taps in rows:
        xr = xg[:, :, :, in_rows].reshape(n, g, cg, nr * wd)
        row_product(wt[i], xr, out=prod[..., :nr * wd])
        for dst, src in taps:
            out[dst] += by_tap[src]
    return out.reshape(n, spec.out_channels, ho, wo)


def conv2d_vjp(x, w, b, spec: ConvSpec, gy):
    """Gradients of sum-style losses through conv2d: returns (gx, gw, gb).
    Per kernel row, gy is scattered into the forward's product layout; gx is
    then the adjoint product and gw one GEMM against the same input rows."""
    _check_conv_args(x, w, b, spec)
    n, _, h, wd = x.shape
    ho, wo, j0, j1, rows = _conv_plan(spec, h, wd)
    if gy.shape != (n, spec.out_channels, ho, wo):
        raise ShapeError("conv2d_vjp", "grad", (n, spec.out_channels, ho, wo), gy.shape)
    g, kh, kj = spec.groups, spec.kernel_h, j1 - j0
    cg, og = spec.in_channels // g, spec.out_channels // g
    xg = x.reshape(n, g, cg, h, wd)
    gyg = gy.reshape(n, g, og, ho, wo)
    wt = _tap_weights(w, spec, j0, j1).swapaxes(-1, -2)
    gx = np.zeros((n, g, cg, h, wd))
    gwt = np.zeros((kh, g, kj * og, cg))
    # the taps overwrite the same columns in every row; the rest stays zero
    gprod = np.zeros((n, g, kj * og, ho * wd))
    by_tap = gprod.reshape(n, g, kj, og, ho, wd)
    for i, in_rows, nr, taps in rows:
        for dst, src in taps:
            by_tap[src] = gyg[dst]
        gr = gprod[..., :nr * wd]
        gx[:, :, :, in_rows] += np.matmul(wt[i], gr).reshape(n, g, cg, nr, wd)
        xr = xg[:, :, :, in_rows].reshape(n, g, cg, nr * wd)
        gwt[i] = np.matmul(gr, xr.swapaxes(-1, -2)).sum(axis=0)
    gw = np.zeros((g, og, cg, kh, spec.kernel_w))
    gw[..., j0:j1] = gwt.reshape(kh, g, kj, og, cg).transpose(1, 3, 4, 0, 2)
    return gx.reshape(x.shape), gw.reshape(spec.weight_shape), gy.sum(axis=(0, 2, 3))


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
    y = softmax(x, axis)
    return y * (gy - (gy * y).sum(axis=axis, keepdims=True))


_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def sigmoid(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def silu(x):
    return x * sigmoid(x)


def gelu(x):
    return 0.5 * x * (1.0 + erf(x / _SQRT2))


ACTIVATIONS = ("tanh", "gelu", "silu", "sigmoid")


def activation(kind, x):
    if kind == "tanh":
        return np.tanh(x)
    if kind == "gelu":
        return gelu(x)
    if kind == "silu":
        return silu(x)
    if kind == "sigmoid":
        return sigmoid(x)
    raise ConfigError(f"activation: unknown kind '{kind}'")


def activation_grad(kind, x):
    """Elementwise derivative d act(x) / dx."""
    if kind == "tanh":
        t = np.tanh(x)
        return 1.0 - t * t
    if kind == "gelu":
        cdf = 0.5 * (1.0 + erf(x / _SQRT2))
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
        return cdf + x * pdf
    if kind == "silu":
        s = sigmoid(x)
        return s * (1.0 + x * (1.0 - s))
    if kind == "sigmoid":
        s = sigmoid(x)
        return s * (1.0 - s)
    raise ConfigError(f"activation: unknown kind '{kind}'")


def activation_vjp(kind, x, gy):
    return activation_grad(kind, x) * gy


def global_avg_pool(x):
    """Per (batch, channel) spatial mean; output spatial dims 1x1."""
    if x.ndim != 4:
        raise ShapeError("global_avg_pool", "rank", 4, x.ndim)
    return x.mean(axis=(2, 3), keepdims=True)


def global_avg_pool_vjp(x, gy):
    h, w = x.shape[2], x.shape[3]
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
    if x.ndim != 4:
        raise ShapeError("fft2", "rank", 4, x.ndim)
    return np.fft.fft2(x, axes=(-2, -1))


def ifft2(spectrum):
    if spectrum.ndim != 4:
        raise ShapeError("ifft2", "rank", 4, spectrum.ndim)
    return np.fft.ifft2(spectrum, axes=(-2, -1)).real


def fft2_vjp(gy):
    """VJP of fft2 for a real input.  gy is complex with the convention
    gy = dL/dRe(X) + i * dL/dIm(X); returns dL/dx (real)."""
    h, w = gy.shape[-2], gy.shape[-1]
    return h * w * np.fft.ifft2(gy, axes=(-2, -1)).real


def ifft2_vjp(gy):
    """VJP of x -> Re(ifft2(x)) for complex input; gy is real."""
    h, w = gy.shape[-2], gy.shape[-1]
    return np.fft.fft2(gy, axes=(-2, -1)) / (h * w)


# ---------------------------------------------------------------------------
# bilinear resampling (half-pixel centers)
# ---------------------------------------------------------------------------

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
    if x.ndim != 4:
        raise ShapeError("bilinear_resize", "rank", 4, x.ndim)
    ah = _resize_matrix(x.shape[2], out_h)
    aw = _resize_matrix(x.shape[3], out_w)
    tmp = np.matmul(ah[None, None], x)
    return np.matmul(tmp, aw.T[None, None])


def bilinear_resize_vjp(in_h, in_w, gy):
    """Adjoint of bilinear_resize back to spatial dims (in_h, in_w)."""
    ah = _resize_matrix(in_h, gy.shape[2])
    aw = _resize_matrix(in_w, gy.shape[3])
    tmp = np.matmul(ah.T[None, None], gy)
    return np.matmul(tmp, aw[None, None])
