"""Feature-map conventions and contract helpers.

All real feature maps are dense rank-4 float64 arrays in (batch, channel,
height, width) layout, row-major with width fastest.  Frequency-domain maps
are complex128 arrays of the same layout.  Ops validate shapes at their
boundary and raise ShapeError naming the offending axis.
"""

import numpy as np

from .errors import ShapeError

AXES = ("batch", "channel", "height", "width")


def as_feature_map(x, op="tensor"):
    """Validate / coerce to a rank-4 float64 feature map; complex input is
    rejected rather than cast, which would drop its imaginary part."""
    if np.iscomplexobj(x):
        raise ShapeError(op, "dtype", "real", np.asarray(x).dtype)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ShapeError(op, "rank", 4, x.ndim)
    for name, d in zip(AXES, x.shape):
        if d < 1:
            raise ShapeError(op, name, ">= 1", d)
    return x


def require_channels(x, expected, op):
    if x.shape[1] != expected:
        raise ShapeError(op, "channel", expected, x.shape[1])


def require_same_shape(a, b, op):
    if a.shape != b.shape:
        for name, da, db in zip(AXES, a.shape, b.shape):
            if da != db:
                raise ShapeError(op, name, da, db)
        raise ShapeError(op, "rank", a.shape, b.shape)


def require_cotangent(gy, out, op):
    """gy as float64, checked to be real and to have the shape of the
    forward output out."""
    if np.iscomplexobj(gy):
        raise ShapeError(op, "dtype", "real", np.asarray(gy).dtype)
    gy = np.asarray(gy, dtype=np.float64)
    require_same_shape(out, gy, op)
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
