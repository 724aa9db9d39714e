"""Learnable parameter records for every pipeline stage.

All records are frozen dataclasses of float64 arrays (plus a few scalars and
structural integers).  Every constructor field carries a gradient unless the
class attribute `_fixed_` names it: head counts, group counts, eps values and
batch-norm running moments are structural and excluded from flattening.

Initialization is fully determined by a 64-bit seed: each tensor is drawn
from its own named substream (see rng.stream) so the values do not depend on
construction order.  Weights are uniform in [-b, b] with b = 1/sqrt(fan_in);
biases and position embeddings start at zero.
"""

import dataclasses
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError
from .rng import stream


def _uniform(seed, label, shape, fan_in):
    b = 1.0 / np.sqrt(fan_in)
    return stream(seed, label).uniform(shape, -b, b)


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DyTParams:
    """gamma * tanh(alpha * x) + beta, per channel."""

    alpha: float
    gamma: np.ndarray
    beta: np.ndarray


@dataclass(frozen=True)
class TssaParams:
    heads: int
    head_dim: int
    qkv_weight: np.ndarray       # (C, heads*head_dim)
    out_weight: np.ndarray       # (heads*head_dim, C)
    out_bias: np.ndarray         # (C,)
    eps: float = 1e-8
    pi_mode: str = "constant"    # "constant" or "distribution"

    _fixed_ = ("heads", "head_dim", "eps", "pi_mode")

    def __post_init__(self):
        if self.heads < 1 or self.head_dim < 1:
            raise ConfigError("TssaParams: heads and head_dim must be >= 1")
        if self.pi_mode not in ("constant", "distribution"):
            raise ConfigError(f"TssaParams: unknown pi_mode '{self.pi_mode}'")


@dataclass(frozen=True)
class MonaParams:
    """Bottleneck adapter: down 1x1, averaged depthwise 3/5/7, mix 1x1,
    up 1x1, plus a tiny-scaled full-channel linear skip."""

    down_weight: np.ndarray      # (Cr, C, 1, 1)
    down_bias: np.ndarray
    dw3_weight: np.ndarray       # (Cr, 1, 3, 3)
    dw3_bias: np.ndarray
    dw5_weight: np.ndarray
    dw5_bias: np.ndarray
    dw7_weight: np.ndarray
    dw7_bias: np.ndarray
    mix_weight: np.ndarray       # (Cr, Cr, 1, 1)
    mix_bias: np.ndarray
    up_weight: np.ndarray        # (C, Cr, 1, 1)
    up_bias: np.ndarray
    skip_weight: np.ndarray      # (C, C) per-pixel linear skip
    skip_scale: float            # init 1e-6


@dataclass(frozen=True)
class SeffParams:
    """Two-branch spectral feed-forward.  Frequency weights live at a base
    resolution per channel (real and imaginary planes stored separately) and
    are bilinearly resized to the runtime spatial dims."""

    split_weight: np.ndarray     # (2C, C, 1, 1)
    split_bias: np.ndarray
    branch1_weight: np.ndarray   # depthwise (C, 1, 3, 3)
    branch1_bias: np.ndarray
    branch2_weight: np.ndarray   # depthwise (C, 1, 3, 3), dilation 2
    branch2_bias: np.ndarray
    w1_re: np.ndarray            # (C, base, base)
    w1_im: np.ndarray
    w2_re: np.ndarray
    w2_im: np.ndarray
    freq_bias1: np.ndarray       # (C,) added to the real part
    freq_bias2: np.ndarray
    merge_weight: np.ndarray     # (C, C, 1, 1)
    merge_bias: np.ndarray


@dataclass(frozen=True)
class FtssaParams:
    """Two stages in series, each with its own DyT and Mona set."""

    dyt1: DyTParams
    tssa: TssaParams
    mona1: MonaParams
    dyt2: DyTParams
    seff: SeffParams
    mona2: MonaParams


@dataclass(frozen=True)
class GmmParams:
    """Column-then-row mixing.  Position embeddings are shaped to the
    regrouped layouts for the spatial dims the record was initialized with;
    batch-norm runs in inference mode on fixed running moments."""

    k: int
    pos_w: np.ndarray            # (1, C/k, H, k*W)
    col_conv_weight: np.ndarray  # (C/k, C/k, 3, 3)
    col_conv_bias: np.ndarray
    col_bn_scale: np.ndarray     # (C,)
    col_bn_shift: np.ndarray
    col_bn_mean: np.ndarray      # running moments, fixed
    col_bn_var: np.ndarray
    col_fuse_weight: np.ndarray  # (C, 2C, 1, 1)
    col_fuse_bias: np.ndarray
    pos_h: np.ndarray            # (1, C/k, k*H, W)
    row_conv_weight: np.ndarray
    row_conv_bias: np.ndarray
    row_bn_scale: np.ndarray
    row_bn_shift: np.ndarray
    row_bn_mean: np.ndarray
    row_bn_var: np.ndarray
    row_fuse_weight: np.ndarray
    row_fuse_bias: np.ndarray
    bn_eps: float = 1e-5

    _fixed_ = ("k", "col_bn_mean", "col_bn_var", "row_bn_mean", "row_bn_var",
               "bn_eps")

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("GmmParams: k must be >= 1")


@dataclass(frozen=True)
class DmmParams:
    conv46_weight: np.ndarray    # (C, C, 4, 6)
    conv46_bias: np.ndarray
    conv64_weight: np.ndarray    # (C, C, 6, 4)
    conv64_bias: np.ndarray
    ftssa: FtssaParams
    mlp_w1: np.ndarray           # (C, C/r)
    mlp_b1: np.ndarray
    mlp_w2: np.ndarray           # (C/r, C)
    mlp_b2: np.ndarray


@dataclass(frozen=True)
class DpamParams:
    conv_weight: np.ndarray      # (C, 2C, 7, 7)
    conv_bias: np.ndarray


@dataclass(frozen=True)
class FusionWeights:
    w_map: float = 1.0
    w_x1: float = 0.5
    w_x2: float = 0.5


@dataclass(frozen=True)
class AggregateParams:
    """1x1 projection applied to the resampled secondary input whenever the
    two input dims disagree; unused when they already match."""

    proj_weight: np.ndarray      # (C1, C2, 1, 1)
    proj_bias: np.ndarray


@dataclass(frozen=True)
class PipelineParams:
    agg: AggregateParams
    gmm: GmmParams
    dmm: DmmParams
    dpam: DpamParams
    fusion: FusionWeights


# ---------------------------------------------------------------------------
# flatten / rebuild / arithmetic over learnable leaves
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _fields(cls):
    """((name, is_record) per learnable field, fixed fields) of a record
    class, each in declaration order: every constructor field is learnable
    unless `_fixed_` names it; a field annotated with a record class holds a
    record."""
    fixed = getattr(cls, "_fixed_", ())
    init = [f for f in dataclasses.fields(cls) if f.init]
    learnable = tuple((f.name, dataclasses.is_dataclass(f.type))
                      for f in init if f.name not in fixed)
    return learnable, tuple(f.name for f in init if f.name in fixed)


def param_leaves(p, prefix=""):
    """Depth-first dict of learnable leaves, dotted names -> float|ndarray."""
    out = {}
    for name, nested in _fields(type(p))[0]:
        v = getattr(p, name)
        if nested:
            out.update(param_leaves(v, prefix + name + "."))
        else:
            out[prefix + name] = v
    return out


def replace_leaves(p, leaves, prefix=""):
    """Rebuild a record, through its constructor, with any leaves present in
    `leaves` substituted."""
    learnable, fixed = _fields(type(p))
    args = {name: getattr(p, name) for name in fixed}
    for name, nested in learnable:
        key = prefix + name
        if nested:
            args[name] = replace_leaves(getattr(p, name), leaves, key + ".")
        else:
            args[name] = leaves[key] if key in leaves else getattr(p, name)
    return type(p)(**args)


def zeros_like_params(p):
    return replace_leaves(p, {
        key: 0.0 if np.isscalar(v) else np.zeros_like(v)
        for key, v in param_leaves(p).items()})


def add_params(a, b):
    """Leafwise sum of two same-shape records (gradient accumulation)."""
    lb = param_leaves(b)
    return replace_leaves(a, {key: v + lb[key]
                              for key, v in param_leaves(a).items()})


def _walk(p, prefix=""):
    """(dotted name, value) of every field that holds no record, learnable
    or not, depth first in declaration order."""
    for f in dataclasses.fields(p):
        v = getattr(p, f.name)
        if dataclasses.is_dataclass(v):
            yield from _walk(v, prefix + f.name + ".")
        else:
            yield prefix + f.name, v


def all_tensors(p):
    """Every numeric field (learnable or not) as dotted name -> ndarray,
    scalars included as rank-0 arrays.  Used for serialization."""
    # ints and strings are structural; the manifest records them
    return {key: np.asarray(v, dtype=np.float64) if isinstance(v, float) else v
            for key, v in _walk(p) if isinstance(v, (np.ndarray, float))}


def structural_fields(p):
    """Non-tensor constants (ints, strings) as dotted name -> value."""
    return {key: v for key, v in _walk(p)
            if isinstance(v, (int, str)) and not isinstance(v, bool)}


# ---------------------------------------------------------------------------
# seeded initialization
# ---------------------------------------------------------------------------

def reduced_channels(c, ratio):
    return max(c // ratio, 1)


def init_dyt(c):
    return DyTParams(alpha=0.5, gamma=np.ones(c), beta=np.zeros(c))


def init_tssa(seed, label, c, heads, head_dim, pi_mode="constant"):
    hd = heads * head_dim
    return TssaParams(
        heads=heads,
        head_dim=head_dim,
        qkv_weight=_uniform(seed, label + ".qkv_weight", (c, hd), c),
        out_weight=_uniform(seed, label + ".out_weight", (hd, c), hd),
        out_bias=np.zeros(c),
        pi_mode=pi_mode,
    )


def init_mona(seed, label, c, ratio=4):
    cr = reduced_channels(c, ratio)
    return MonaParams(
        down_weight=_uniform(seed, label + ".down_weight", (cr, c, 1, 1), c),
        down_bias=np.zeros(cr),
        dw3_weight=_uniform(seed, label + ".dw3_weight", (cr, 1, 3, 3), 9),
        dw3_bias=np.zeros(cr),
        dw5_weight=_uniform(seed, label + ".dw5_weight", (cr, 1, 5, 5), 25),
        dw5_bias=np.zeros(cr),
        dw7_weight=_uniform(seed, label + ".dw7_weight", (cr, 1, 7, 7), 49),
        dw7_bias=np.zeros(cr),
        mix_weight=_uniform(seed, label + ".mix_weight", (cr, cr, 1, 1), cr),
        mix_bias=np.zeros(cr),
        up_weight=_uniform(seed, label + ".up_weight", (c, cr, 1, 1), cr),
        up_bias=np.zeros(c),
        skip_weight=_uniform(seed, label + ".skip_weight", (c, c), c),
        skip_scale=1e-6,
    )


def init_seff(seed, label, c, base=8):
    return SeffParams(
        split_weight=_uniform(seed, label + ".split_weight", (2 * c, c, 1, 1), c),
        split_bias=np.zeros(2 * c),
        branch1_weight=_uniform(seed, label + ".branch1_weight", (c, 1, 3, 3), 9),
        branch1_bias=np.zeros(c),
        branch2_weight=_uniform(seed, label + ".branch2_weight", (c, 1, 3, 3), 9),
        branch2_bias=np.zeros(c),
        w1_re=_uniform(seed, label + ".w1_re", (c, base, base), 1),
        w1_im=_uniform(seed, label + ".w1_im", (c, base, base), 1),
        w2_re=_uniform(seed, label + ".w2_re", (c, base, base), 1),
        w2_im=_uniform(seed, label + ".w2_im", (c, base, base), 1),
        freq_bias1=np.zeros(c),
        freq_bias2=np.zeros(c),
        merge_weight=_uniform(seed, label + ".merge_weight", (c, c, 1, 1), c),
        merge_bias=np.zeros(c),
    )


def init_ftssa(seed, label, c, heads=4, head_dim=16, mona_ratio=4,
               seff_base=8, pi_mode="constant"):
    return FtssaParams(
        dyt1=init_dyt(c),
        tssa=init_tssa(seed, label + ".tssa", c, heads, head_dim, pi_mode),
        mona1=init_mona(seed, label + ".mona1", c, mona_ratio),
        dyt2=init_dyt(c),
        seff=init_seff(seed, label + ".seff", c, seff_base),
        mona2=init_mona(seed, label + ".mona2", c, mona_ratio),
    )


def init_gmm(seed, label, c, h, w, k=2):
    if c % k:
        raise ConfigError(f"GmmParams: k {k} must divide channel count {c}")
    ck = c // k
    return GmmParams(
        k=k,
        pos_w=np.zeros((1, ck, h, k * w)),
        col_conv_weight=_uniform(seed, label + ".col_conv_weight", (ck, ck, 3, 3), ck * 9),
        col_conv_bias=np.zeros(ck),
        col_bn_scale=np.ones(c),
        col_bn_shift=np.zeros(c),
        col_bn_mean=np.zeros(c),
        col_bn_var=np.ones(c),
        col_fuse_weight=_uniform(seed, label + ".col_fuse_weight", (c, 2 * c, 1, 1), 2 * c),
        col_fuse_bias=np.zeros(c),
        pos_h=np.zeros((1, ck, k * h, w)),
        row_conv_weight=_uniform(seed, label + ".row_conv_weight", (ck, ck, 3, 3), ck * 9),
        row_conv_bias=np.zeros(ck),
        row_bn_scale=np.ones(c),
        row_bn_shift=np.zeros(c),
        row_bn_mean=np.zeros(c),
        row_bn_var=np.ones(c),
        row_fuse_weight=_uniform(seed, label + ".row_fuse_weight", (c, 2 * c, 1, 1), 2 * c),
        row_fuse_bias=np.zeros(c),
    )


def init_dmm(seed, label, c, heads=4, head_dim=16, mona_ratio=4,
             mlp_ratio=4, seff_base=8, pi_mode="constant"):
    ch = reduced_channels(c, mlp_ratio)
    return DmmParams(
        conv46_weight=_uniform(seed, label + ".conv46_weight", (c, c, 4, 6), c * 24),
        conv46_bias=np.zeros(c),
        conv64_weight=_uniform(seed, label + ".conv64_weight", (c, c, 6, 4), c * 24),
        conv64_bias=np.zeros(c),
        ftssa=init_ftssa(seed, label + ".ftssa", c, heads, head_dim,
                         mona_ratio, seff_base, pi_mode),
        mlp_w1=_uniform(seed, label + ".mlp_w1", (c, ch), c),
        mlp_b1=np.zeros(ch),
        mlp_w2=_uniform(seed, label + ".mlp_w2", (ch, c), ch),
        mlp_b2=np.zeros(c),
    )


def init_dpam(seed, label, c):
    return DpamParams(
        conv_weight=_uniform(seed, label + ".conv_weight", (c, 2 * c, 7, 7), 2 * c * 49),
        conv_bias=np.zeros(c),
    )


def init_aggregate(seed, label, c1, c2):
    return AggregateParams(
        proj_weight=_uniform(seed, label + ".proj_weight", (c1, c2, 1, 1), c2),
        proj_bias=np.zeros(c1),
    )


def init_pipeline(seed, c1, c2, h, w, k=2, heads=4, head_dim=16,
                  mona_ratio=4, mlp_ratio=4, seff_base=8, pi_mode="constant"):
    """All parameters for the full fusion pipeline on a primary input of
    channel count c1 and spatial dims (h, w)."""
    return PipelineParams(
        agg=init_aggregate(seed, "agg", c1, c2),
        gmm=init_gmm(seed, "gmm", c1, h, w, k),
        dmm=init_dmm(seed, "dmm", c1, heads, head_dim, mona_ratio,
                     mlp_ratio, seff_base, pi_mode),
        dpam=init_dpam(seed, "dpam", c1),
        fusion=FusionWeights(),
    )
