"""Analytic op-count tests and the scaling-benchmark plumbing (ratio
bookkeeping, table shape); the actual timing thresholds live in the
acceptance suite."""

import dataclasses
import time

import numpy as np
import pytest

from mgdfis import bench, dpam, flops, ftssa, gdim, ops, pipeline
from mgdfis.config import RunConfig, parse_config
from mgdfis.ops import ConvSpec, same_spec


def tiny_cfg():
    return parse_config("""
seed = 3
f1_shape = 1x4x6x6
f2_shape = 1x4x6x6
k = 2
heads = 2
head_dim = 2
seff_base_resolution = 4
""")


# ---------------------------------------------------------------------------
# op counts
# ---------------------------------------------------------------------------

def test_linear_flops_single_mac():
    assert flops.linear_flops(1, 1, 1) == 2


def test_conv_flops_hand_counted():
    # 3x3 same conv, 4 -> 4 channels on a 4x4 map: 2*9*4*4*16
    assert flops.conv_flops(same_spec(4, 3, 3), 4, 4) == 4608


def test_conv_flops_respects_groups_and_stride():
    dw = same_spec(4, 3, 3, groups=4)
    assert flops.conv_flops(dw, 4, 4) == 2 * 9 * 1 * 4 * 16
    strided = ConvSpec(2, 6, 2, 2, stride=(2, 2))
    assert flops.conv_flops(strided, 6, 6) == 2 * 4 * 2 * 6 * 3 * 3
    assert flops.conv_flops(dw, 4, 4, batch=3) == 3 * flops.conv_flops(dw, 4, 4)


def test_seff_entries_count_the_half_spectrum():
    # C = 4 on a 6x6 map: seff's real FFTs and spectral product cover
    # 6 * (6 // 2 + 1) = 24 bins per channel, the spatial passes all 36
    # pixels; each branch's weight maps the 4x4 base grid to its 24 bins as
    # (12, 4) @ (4, 4) on both planes, then (6, 4) @ (4, 4) on both planes for
    # the direct and the mirrored columns, plus 4 per bin
    seff = {e.op: e.flops for e in flops.pipeline_flops(tiny_cfg()).entries
            if e.op.startswith("seff.")}
    assert seff == {
        "seff.split": 2 * 4 * 8 * 36,
        "seff.branch1": 2 * 9 * 4 * 36,
        "seff.branch2": 2 * 9 * 4 * 36,
        "seff.fft": 2 * int(4 * 5 * 24 * np.log2(36)),
        "seff.freq_weight": 2 * 4 * (2 * 2 * 12 * 4 * 4 + 4 * 2 * 6 * 4 * 4
                                     + 4 * 24),
        "seff.freq_mul": 2 * 7 * 4 * 24,
        "seff.ifft": 2 * int(4 * 5 * 24 * np.log2(36)),
        "seff.gate": 2 * 4 * 36,
        "seff.merge": 2 * 4 * 4 * 36,
    }
    assert seff["seff.fft"] == 4962


def test_folded_convs_count_one_entry_each():
    # C = 4 on a 6x6 map: each Mona adapter runs dw3/dw5/dw7 as one depthwise
    # 7x7 conv on its C / 4 = 1 channel, and dmm runs conv4x6 and conv6x4 as
    # one 6x6 conv
    counts = {e.op: e.flops for e in flops.pipeline_flops(tiny_cfg()).entries}
    for tag in ("daff.mona", "serr.mona"):
        assert counts[f"{tag}.dw"] == 2 * 49 * 1 * 1 * 36
        assert not {f"{tag}.dw{k}" for k in (3, 5, 7)} & set(counts)
    assert counts["dmm.directional"] == 2 * 36 * 4 * 4 * 36
    assert "dmm.conv46" not in counts and "dmm.conv64" not in counts


# the conv entries of pipeline_flops, in the order a full forward runs them
_CONV_OPS = (
    "aggregate.proj",
    "gmm.col.conv", "gmm.col.fuse", "gmm.row.conv", "gmm.row.fuse",
    "dmm.directional",
    "daff.mona.down", "daff.mona.dw", "daff.mona.mix", "daff.mona.up",
    "seff.split", "seff.branch1", "seff.branch2", "seff.merge",
    "serr.mona.down", "serr.mona.dw", "serr.mona.mix", "serr.mona.up",
    "dpam.conv",
)


def test_full_forward_runs_exactly_the_counted_convs(monkeypatch):
    # a full forward with a mismatched f2 makes one conv2d call per conv
    # entry, each with that entry's flops: a conv added to, dropped from or
    # reshaped in the pipeline without its count fails here
    cfg = dataclasses.replace(tiny_cfg(), f2_shape=(1, 8, 3, 3))
    ran = []

    def counting(x, w, b, spec):
        ran.append(flops.conv_flops(spec, *x.shape[2:], batch=x.shape[0]))
        return ops.conv2d(x, w, b, spec)

    for mod in (ftssa, gdim, dpam):
        monkeypatch.setattr(mod, "conv2d", counting)
    pipeline.execute_stage(cfg, pipeline.build_params(cfg),
                           *pipeline.load_inputs(cfg), threads=1)
    counted = {e.op: e.flops for e in flops.pipeline_flops(cfg).entries}
    assert len(_CONV_OPS) == 19
    assert ran == [counted[op] for op in _CONV_OPS]


def test_report_totals_are_entry_sums():
    rep = flops.FlopReport()
    rep.add("a", "x", 10)
    rep.add("a", "y", 5)
    rep.add("b", "z", 7)
    assert rep.total == 22
    assert rep.module_totals() == {"a": 15, "b": 7}
    table = rep.table()
    assert "(grand total)" in table and "22" in table


def test_pipeline_flops_covers_all_modules():
    rep = flops.pipeline_flops(tiny_cfg())
    totals = rep.module_totals()
    assert set(totals) == {"gdim", "ftssa", "dpam"}
    assert all(v > 0 for v in totals.values())
    assert rep.total == sum(e.flops for e in rep.entries)


def test_mismatched_inputs_add_reconcile_work():
    cfg = tiny_cfg()
    mis = dataclasses.replace(cfg, f2_shape=(1, 8, 3, 3))
    ops_eq = {e.op for e in flops.pipeline_flops(cfg).entries}
    ops_mis = [e.op for e in flops.pipeline_flops(mis).entries]
    assert "aggregate.resample" not in ops_eq
    # the f2 reconcile runs once, shared by aggregate and fuse
    assert ops_mis.count("aggregate.resample") == 1
    assert ops_mis.count("aggregate.proj") == 1
    assert flops.pipeline_flops(mis).total > flops.pipeline_flops(cfg).total


def test_resample_counts_the_two_gemms_bilinear_resize_runs():
    # f2 (1, 8, 3, 3) -> 6x6: per channel (6, 3) @ (3, 3), then (6, 3) @ (3, 6)
    mis = dataclasses.replace(tiny_cfg(), f2_shape=(1, 8, 3, 3))
    entry, = [e for e in flops.pipeline_flops(mis).entries
              if e.op == "aggregate.resample"]
    assert entry.flops == 8 * (2 * 6 * 3 * 3 + 2 * 6 * 3 * 6) == 2592


@pytest.mark.parametrize("cfg", [tiny_cfg(), RunConfig()],
                         ids=["tiny", "default"])
def test_ablation_series_strictly_increases(cfg):
    series = flops.ablation_series(cfg)
    labels = [label for label, _ in series]
    assert labels == list(flops.ABLATION_ORDER)
    totals = [total for _, total in series]
    assert all(b > a for a, b in zip(totals, totals[1:]))


def test_ablation_attention_step_counts_attention_only():
    # the +ftssa step adds exactly the attention-stage module total
    cfg = tiny_cfg()
    series = dict(flops.ablation_series(cfg))
    ftssa_total = flops.pipeline_flops(cfg).module_totals()["ftssa"]
    assert series["+ftssa"] - series["+dmm_wo_ftssa"] == ftssa_total


# ---------------------------------------------------------------------------
# benchmark plumbing
# ---------------------------------------------------------------------------

def test_doubling_ratio_lookup():
    rows = [bench.BenchRow(64, 1.0), bench.BenchRow(128, 3.9)]
    assert bench.doubling_ratio(rows, 64) == pytest.approx(3.9)
    with pytest.raises(ValueError):
        bench.doubling_ratio(rows, 128)
    with pytest.raises(ValueError):
        bench.doubling_ratio(rows, 100)


def test_attach_ratios_normalizes_to_per_doubling():
    rows = [bench.BenchRow(64, 1.0), bench.BenchRow(128, 4.0),
            bench.BenchRow(512, 64.0)]
    out = bench._attach_ratios(rows)
    assert out[0].ratio is None
    assert out[1].ratio == pytest.approx(4.0)   # one doubling
    assert out[2].ratio == pytest.approx(4.0)   # 16x over two doublings
    assert [r.tokens for r in out] == [64, 128, 512]


def test_attention_core_matches_plain_softmax_attention():
    rng = np.random.default_rng(0)
    q, k, v = (rng.standard_normal((20, 8)) for _ in range(3))
    got = bench.attention_core(q, k, v, block=7)
    s = q @ k.T / np.sqrt(8)
    e = np.exp(s - s.max(axis=1, keepdims=True))
    want = (e / e.sum(axis=1, keepdims=True)) @ v
    assert np.max(np.abs(got - want)) < 1e-12


def test_time_medians_alternates_neighbours(monkeypatch):
    # the fast first fn needs the most runs to reach the timing floor; its
    # neighbour runs in alternation with it, the farther fns about their own
    monkeypatch.setattr(bench, "_MIN_TIMED_S", 0.03)
    log = []

    def fn(i, seconds):
        return lambda: log.append(i) or time.sleep(seconds)

    meds = bench._time_medians([fn(0, 0.001), fn(1, 0.005), fn(2, 0.005),
                                fn(3, 0.01)], reps=3, warmup=1)
    assert all(m > 0 for m in meds)
    assert log[:4] == [0, 1, 2, 3]
    timed = log[4:]
    runs = [timed.count(i) for i in range(4)]
    assert runs[0] == runs[1] > runs[2] >= runs[3] >= 3
    assert [i for i in timed if i < 2] == [0, 1] * runs[0]


def test_bench_tssa_tiny_sweep():
    res = bench.bench_tssa([64, 128], seed=1, reps=1, warmup=0)
    assert set(res) == {"tssa", "baseline"}
    for rows in res.values():
        assert [r.tokens for r in rows] == [64, 128]
        assert all(r.median_ms > 0 for r in rows)
        assert rows[0].ratio is None and rows[1].ratio is not None
    table = bench.format_table(res)
    assert "tokens" in table.splitlines()[0]
    assert table.count("\n") == 2
