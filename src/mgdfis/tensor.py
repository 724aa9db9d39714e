"""Feature-map conventions and contract helpers.

All real feature maps are dense rank-4 float64 arrays in (batch, channel,
height, width) layout, row-major with width fastest.  Frequency-domain maps
are complex128 arrays of the same layout.  Ops validate shapes at their
boundary and raise ShapeError naming the offending axis.
"""

import numpy as np

from .errors import ShapeError

AXES = ("batch", "channel", "height", "width")


def require_real(x, op):
    """x as float64; complex input is a ShapeError naming op rather than a
    cast, which would drop its imaginary part."""
    if np.iscomplexobj(x):
        raise ShapeError(op, "dtype", "real", np.asarray(x).dtype)
    return np.asarray(x, dtype=np.float64)


def as_feature_map(x, op="tensor"):
    """Validate / coerce to a real rank-4 float64 feature map."""
    x = require_real(x, op)
    if x.ndim != 4:
        raise ShapeError(op, "rank", 4, x.ndim)
    for name, d in zip(AXES, x.shape):
        if d < 1:
            raise ShapeError(op, name, ">= 1", d)
    return x


def require_channels(x, expected, op):
    if x.shape[1] != expected:
        raise ShapeError(op, "channel", expected, x.shape[1])


def _require_shape(want, got, op):
    """A ShapeError naming op and the first feature-map axis where shape got
    differs from want, or both shapes where they are not both rank 4."""
    if got != want:
        if len(got) == len(want) == len(AXES):
            name, dw, dg = next(t for t in zip(AXES, want, got) if t[1] != t[2])
            raise ShapeError(op, name, dw, dg)
        raise ShapeError(op, "shape", want, got)


def require_same_shape(a, b, op):
    _require_shape(a.shape, b.shape, op)


def require_cotangent(gy, out, op):
    """gy as float64, checked to be real and to have the shape of the
    forward output out (the array, or only its shape)."""
    gy = require_real(gy, op)
    _require_shape(tuple(getattr(out, "shape", out)), gy.shape, op)
    return gy


class Cache(dict):
    """What a forward keeps for its backward; `sub` opens a child's cache."""
    keep = dict.update

    def sub(self, name):
        return self.setdefault(name, Cache())


class _NoCache:
    """A forward-only call's cache: it keeps nothing, so threads share it."""

    def keep(self, **entries):
        pass

    def sub(self, name):
        return self


NO_CACHE = _NoCache()


def cached(fwd, *args):
    """(fwd(*args, cache=cache), cache) for a fresh Cache."""
    cache = Cache()
    return fwd(*args, cache=cache), cache


def to_tokens(x):
    """(N, C, H, W) -> (N, H*W, C), token n = h*W + w (width fastest)."""
    n, c, h, w = x.shape
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(n, h * w, c)


def from_tokens(t, h, w):
    """Inverse of to_tokens for spatial dims (h, w)."""
    n, _, c = t.shape
    return np.ascontiguousarray(t.reshape(n, h, w, c).transpose(0, 3, 1, 2))
