"""Analytic multiply-accumulate estimates for the pipeline.

Counting conventions (documented, deliberately simple):
  - convolution: 2 * kh * kw * (Cin/groups) * Cout * Hout * Wout per batch item
  - linear map:  2 * m * n * p for (m, n) @ (n, p)
  - real FFT (rfft2 / irfft2, as seff runs): 5 * H * (W // 2 + 1) *
    log2(H * W) per channel per direction, over the H * (W // 2 + 1)
    half-spectrum bins; seff's spectral product, bias and weight are
    likewise counted per half bin
  - activations, softmax, and other elementwise passes: 1 op per element
  - complex spectral multiply: 6 ops per element
  - bilinear resample (H, W) -> (H', W'), as ops.bilinear_resize runs it:
    two linear maps per channel, (H', H) @ (H, W) then (H', W) @ (W, W')
  - seff's half-spectrum weight from its b x b grid, per channel and branch:
    the linear maps of ops.half_spectrum_weight, (2H, b) @ (b, b) and twice
    (H, b) @ (b, W // 2 + 1) per plane, plus 4 per half bin
Totals are exact sums of the recorded entries; the ablation series enables
stages cumulatively so its totals must strictly increase.
"""

import itertools
import math
from dataclasses import dataclass, field

from .ops import ConvSpec, same_spec
from .params import reduced_channels


@dataclass(frozen=True)
class FlopEntry:
    module: str
    op: str
    flops: int


@dataclass
class FlopReport:
    entries: list = field(default_factory=list)

    def add(self, module, op, flops):
        self.entries.append(FlopEntry(module, op, int(flops)))

    def module_totals(self):
        totals = {}
        for e in self.entries:
            totals[e.module] = totals.get(e.module, 0) + e.flops
        return totals

    @property
    def total(self):
        return sum(e.flops for e in self.entries)

    def table(self):
        lines = [f"{'module':<12} {'op':<28} {'flops':>14}"]
        for e in self.entries:
            lines.append(f"{e.module:<12} {e.op:<28} {e.flops:>14}")
        lines.append("-" * 56)
        for mod, tot in self.module_totals().items():
            lines.append(f"{mod:<12} {'(module total)':<28} {tot:>14}")
        lines.append(f"{'all':<12} {'(grand total)':<28} {self.total:>14}")
        return "\n".join(lines)


def conv_flops(spec: ConvSpec, h, w, batch=1):
    ho, wo = spec.output_hw(h, w)
    per_item = (2 * spec.kernel_h * spec.kernel_w
                * (spec.in_channels // spec.groups)
                * spec.out_channels * ho * wo)
    return batch * per_item


def linear_flops(m, n, p):
    return 2 * m * n * p


def rfft_flops(h, w, channels, batch=1):
    bins = h * (w // 2 + 1)
    return int(batch * channels * 5 * bins * max(math.log2(h * w), 0.0))


# ---------------------------------------------------------------------------
# per-stage counters; shapes follow the run configuration
# ---------------------------------------------------------------------------

def _count_aggregate(rep, cfg):
    n, c1, h, w = cfg.f1_shape
    _, c2, h2, w2 = cfg.f2_shape
    if cfg.f1_shape != cfg.f2_shape:
        rep.add("gdim", "aggregate.resample",
                n * c2 * (linear_flops(h, h2, w2) + linear_flops(h, w2, w)))
        rep.add("gdim", "aggregate.proj",
                conv_flops(same_spec(c2, 1, 1, out_channels=c1), h, w, n))
    rep.add("gdim", "aggregate.sum", n * c1 * h * w)


def _count_gmm(rep, cfg):
    n, c, h, w = cfg.f1_shape
    k = cfg.k
    ck = c // k
    for pass_name, gh, gw in (("col", h, k * w), ("row", k * h, w)):
        rep.add("gdim", f"gmm.{pass_name}.pos_add", n * ck * gh * gw)
        rep.add("gdim", f"gmm.{pass_name}.conv",
                conv_flops(same_spec(ck, 3, 3), gh, gw, n))
        rep.add("gdim", f"gmm.{pass_name}.bn", 2 * n * c * h * w)
        rep.add("gdim", f"gmm.{pass_name}.gelu", n * c * h * w)
        rep.add("gdim", f"gmm.{pass_name}.fuse",
                conv_flops(same_spec(2 * c, 1, 1, out_channels=c), h, w, n))


def _count_tssa(rep, module, cfg, c, tokens, batch):
    hd = cfg.heads * cfg.head_dim
    rep.add(module, "tssa.qkv", batch * linear_flops(tokens, c, hd))
    # normalize, square, head-sum, ratios, attention, product: a handful of
    # elementwise passes over (heads, tokens, head_dim)
    rep.add(module, "tssa.stats", 13 * batch * cfg.heads * tokens * cfg.head_dim)
    rep.add(module, "tssa.softmax", batch * cfg.heads * tokens)
    rep.add(module, "tssa.out", batch * linear_flops(tokens, hd, c))


def _count_mona(rep, module, tag, cfg, c, h, w, batch):
    cr = reduced_channels(c, cfg.mona_ratio)
    rep.add(module, f"{tag}.down",
            conv_flops(same_spec(c, 1, 1, out_channels=cr), h, w, batch))
    # dw3, dw5 and dw7 run as one depthwise 7x7 conv; its output is scaled
    # by 1/3 and added to the input
    rep.add(module, f"{tag}.dw",
            conv_flops(same_spec(cr, 7, 7, groups=cr), h, w, batch))
    rep.add(module, f"{tag}.avg_add", 2 * batch * cr * h * w)
    rep.add(module, f"{tag}.mix", conv_flops(same_spec(cr, 1, 1), h, w, batch))
    rep.add(module, f"{tag}.gelu", batch * cr * h * w)
    rep.add(module, f"{tag}.up",
            conv_flops(same_spec(cr, 1, 1, out_channels=c), h, w, batch))
    rep.add(module, f"{tag}.skip", 2 * batch * c * c * h * w + 2 * batch * c * h * w)


def _count_seff(rep, module, cfg, c, h, w, batch):
    rep.add(module, "seff.split",
            conv_flops(same_spec(c, 1, 1, out_channels=2 * c), h, w, batch))
    rep.add(module, "seff.branch1",
            conv_flops(same_spec(c, 3, 3, groups=c), h, w, batch))
    rep.add(module, "seff.branch2",
            conv_flops(same_spec(c, 3, 3, groups=c, dilation=(2, 2)), h, w, batch))
    bins = h * (w // 2 + 1)
    rep.add(module, "seff.fft", 2 * rfft_flops(h, w, c, batch))
    b = cfg.seff_base_resolution
    rep.add(module, "seff.freq_weight", 2 * c * (
        2 * linear_flops(2 * h, b, b) + 4 * linear_flops(h, b, w // 2 + 1) + 4 * bins))
    rep.add(module, "seff.freq_mul", 2 * 7 * batch * c * bins)
    rep.add(module, "seff.ifft", 2 * rfft_flops(h, w, c, batch))
    rep.add(module, "seff.gate", 2 * batch * c * h * w)
    rep.add(module, "seff.merge", conv_flops(same_spec(c, 1, 1), h, w, batch))


def _count_ftssa(rep, module, cfg, c, h, w, batch):
    el = batch * c * h * w
    tokens = h * w
    rep.add(module, "daff.dyt", 3 * el)
    _count_tssa(rep, module, cfg, c, tokens, batch)
    rep.add(module, "daff.residual", el)
    _count_mona(rep, module, "daff.mona", cfg, c, h, w, batch)
    rep.add(module, "serr.dyt", 3 * el)
    _count_seff(rep, module, cfg, c, h, w, batch)
    rep.add(module, "serr.residual", el)
    _count_mona(rep, module, "serr.mona", cfg, c, h, w, batch)


def _count_dmm(rep, cfg):
    n, c, h, w = cfg.f1_shape
    # conv4x6 and conv6x4 run as one 6x6 conv, added to its input
    rep.add("gdim", "dmm.directional", conv_flops(same_spec(c, 6, 6), h, w, n))
    rep.add("gdim", "dmm.add", n * c * h * w)
    _count_ftssa(rep, "ftssa", cfg, c, h, w, n)
    rep.add("gdim", "dmm.gap", n * c * h * w)
    ch = reduced_channels(c, cfg.mlp_ratio)
    rep.add("gdim", "dmm.mlp", n * (linear_flops(1, c, ch) + linear_flops(1, ch, c)))
    rep.add("gdim", "dmm.mlp_act", n * (ch + c))
    rep.add("gdim", "dmm.gate_mul", n * c * h * w)


def _count_dpam(rep, cfg):
    n, c, h, w = cfg.f1_shape
    rep.add("dpam", "dpam.conv",
            conv_flops(same_spec(2 * c, 7, 7, out_channels=c), h, w, n))
    rep.add("dpam", "dpam.sigmoid", n * c * h * w)
    rep.add("dpam", "fuse.blend", 6 * n * c * h * w)


ABLATION_ORDER = ("aggregate", "+gmm", "+dmm_wo_ftssa", "+ftssa", "+dpam")
# the stage each step enables: an entry's module, or for a gdim entry the
# first part of its op name
_ABLATION_STAGES = ("aggregate", "gmm", "dmm", "ftssa", "dpam")


def pipeline_flops(cfg):
    """Full-pipeline report (every stage enabled)."""
    rep = FlopReport()
    _count_aggregate(rep, cfg)
    _count_gmm(rep, cfg)
    _count_dmm(rep, cfg)
    _count_dpam(rep, cfg)
    return rep


def ablation_series(cfg):
    """Cumulative stage enablement: (label, total) pairs whose totals must
    strictly increase, summed from one full-pipeline report."""
    steps = [0] * len(ABLATION_ORDER)
    for e in pipeline_flops(cfg).entries:
        stage = e.op.split(".")[0] if e.module == "gdim" else e.module
        steps[_ABLATION_STAGES.index(stage)] += e.flops
    return list(zip(ABLATION_ORDER, itertools.accumulate(steps)))
