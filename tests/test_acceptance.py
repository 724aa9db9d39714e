"""Acceptance suite.

Seven release criteria, one test each.  Every test prints a single
machine-greppable pass/fail line (run with `pytest -s tests/test_acceptance.py`
to see them live) and then asserts, so a red criterion fails the suite with
its measured numbers in the message.
"""

import dataclasses
import subprocess
import sys
import time

import numpy as np

import oracles as orc
from mgdfis import checks, ops
from mgdfis.bench import bench_tssa, doubling_ratio
from mgdfis.config import RunConfig
from mgdfis.dpam import dpam
from mgdfis.flops import ablation_series
from mgdfis.ftssa import _tssa_parts, dyt, seff, tssa
from mgdfis.gdim import dmm, gmm
from mgdfis.mgdt import read_tensor
from mgdfis.params import (DyTParams, init_dmm, init_dpam, init_gmm,
                           init_seff, init_tssa)
from mgdfis.rng import stream


def _report(criterion, ok, detail):
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"{criterion}: {detail}"


def _u(seed, label, shape, lo=-1.0, hi=1.0):
    return stream(seed, label).uniform(shape, lo, hi)


def _pick(seed, label, options):
    idx = int(stream(seed, label).uniform((), 0, len(options)))
    return options[min(idx, len(options) - 1)]


# ---------------------------------------------------------------------------
# criterion 1: module outputs match independent straight-line oracles
# ---------------------------------------------------------------------------

def test_c1_oracle_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    instances = 0
    for i in range(50):
        s = 1000 + i

        c = _pick(s, "c1.tssa.c", (2, 4))
        heads = _pick(s, "c1.tssa.h", (1, 2))
        hd = _pick(s, "c1.tssa.d", (1, 2, 3))
        hw = (_pick(s, "c1.tssa.hh", (1, 2, 3, 4)), _pick(s, "c1.tssa.ww", (2, 3, 4)))
        mode = _pick(s, "c1.tssa.m", ("constant", "distribution"))
        p = init_tssa(s, "c1.t", c, heads, hd, pi_mode=mode)
        x = _u(s, "c1.t.x", (1, c) + hw)
        worst = max(worst, float(np.max(np.abs(tssa(x, p) - orc.tssa_ref(x, p)))))

        c = _pick(s, "c1.gmm.c", (2, 4))
        k = _pick(s, "c1.gmm.k", (1, 2))
        hw = (_pick(s, "c1.gmm.hh", (2, 3, 4, 5)), _pick(s, "c1.gmm.ww", (2, 3, 4, 5)))
        p = init_gmm(s, "c1.g", c, hw[0], hw[1], k=k)
        f = _u(s, "c1.g.f", (1, c) + hw)
        worst = max(worst, float(np.max(np.abs(gmm(f, p) - orc.gmm_ref(f, p)))))

        c = _pick(s, "c1.seff.c", (1, 2))
        hw = (_pick(s, "c1.seff.hh", (3, 4, 5)), _pick(s, "c1.seff.ww", (3, 4, 5, 6)))
        p = init_seff(s, "c1.s", c, base=_pick(s, "c1.seff.b", (3, 4)))
        x = _u(s, "c1.s.x", (1, c) + hw)
        worst = max(worst, float(np.max(np.abs(seff(x, p) - orc.seff_ref(x, p)))))

        hw = (_pick(s, "c1.dmm.hh", (4, 5, 6)), _pick(s, "c1.dmm.ww", (4, 5, 6)))
        p = init_dmm(s, "c1.d", 2, heads=2, head_dim=2, seff_base=4)
        f = _u(s, "c1.d.f", (1, 2) + hw)
        worst = max(worst, float(np.max(np.abs(dmm(f, p) - orc.dmm_ref(f, p)))))

        c = _pick(s, "c1.dpam.c", (1, 2, 3))
        hw = (_pick(s, "c1.dpam.hh", (3, 4, 5)), _pick(s, "c1.dpam.ww", (3, 4, 5, 6)))
        p = init_dpam(s, "c1.p", c)
        fa = _u(s, "c1.p.a", (1, c) + hw)
        fh = _u(s, "c1.p.b", (1, c) + hw)
        worst = max(worst, float(np.max(np.abs(
            dpam(fa, fh, p) - orc.dpam_ref(fa, fh, p)))))
        instances += 5

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 60.0
    _report("criterion 1",
            ok,
            f"{instances} tiny instances across tssa/gmm/seff/dmm/dpam, "
            f"max |diff| {worst:.3e} (<= 1e-9), {elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# criterion 2: analytic gradients match central differences
# ---------------------------------------------------------------------------

def test_c2_gradient_checks():
    t0 = time.perf_counter()
    reports = checks.run_all(seeds=20, eps=1e-4, tol=1e-4)
    elapsed = time.perf_counter() - t0
    failed = [r.name for r in reports if not r.passed]
    worst = max(r.max_rel_err for r in reports)
    ok = not failed and elapsed < 300.0
    _report("criterion 2",
            ok,
            f"{len(reports)} ops x 20 seeds, worst rel err {worst:.3e} "
            f"(tol 1e-4, eps 1e-4), {elapsed:.1f}s (< 300s)"
            + (f", failed: {failed}" if failed else ""))


# ---------------------------------------------------------------------------
# criterion 3: attention scales near-linearly, the dense baseline does not
# ---------------------------------------------------------------------------

def test_c3_scaling_benchmark():
    sweep = [1024, 2048, 4096, 8192, 16384, 32768]
    res = bench_tssa(sweep, seed=1)
    checkpoints = (1024, 4096, 16384)
    tssa_r = [doubling_ratio(res["tssa"], n) for n in checkpoints]
    base_r = [doubling_ratio(res["baseline"], n) for n in checkpoints]
    ok = all(r <= 2.6 for r in tssa_r) and all(r >= 3.4 for r in base_r)
    fmt = lambda rs: "/".join(f"{r:.2f}" for r in rs)
    _report("criterion 3",
            ok,
            f"t(2N)/t(N) at N=1k/4k/16k: tssa {fmt(tssa_r)} (<= 2.6), "
            f"baseline {fmt(base_r)} (>= 3.4)")


# ---------------------------------------------------------------------------
# criterion 4: probabilistic invariants under fuzzing
# ---------------------------------------------------------------------------

def test_c4_invariants_fuzz():
    bad = []

    p = init_tssa(1, "c4.t", 4, 2, 2)
    for i in range(1000):
        t = _u(2000 + i, "c4.t.x", (1, 6, 4), -3.0, 3.0)
        parts = _tssa_parts(t, p)
        if np.max(np.abs(parts["pi"].sum(axis=1) - 1.0)) > 1e-6:
            bad.append(f"pi sum off at {i}")
            break
        if not (np.all(parts["attn"] > 0.0) and np.all(parts["attn"] <= 1.0)):
            bad.append(f"attn out of (0,1] at {i}")
            break

    dp = init_dpam(2, "c4.p", 2)
    for i in range(1000):
        fa = _u(3000 + i, "c4.p.a", (1, 2, 4, 4))
        fh = _u(3000 + i, "c4.p.b", (1, 2, 4, 4))
        amap = dpam(fa, fh, dp)
        if not (np.all(amap > 0.0) and np.all(amap < 1.0)):
            bad.append(f"amap touched 0/1 at {i}")
            break

    gamma = _u(3, "c4.d.g", (3,), -2.0, 2.0)
    beta = _u(3, "c4.d.b", (3,), -1.0, 1.0)
    dyt_p = DyTParams(alpha=1.1, gamma=gamma, beta=beta)
    for i in range(1000):
        x = _u(4000 + i, "c4.d.x", (1, 3, 3, 3), -20.0, 20.0)
        out = dyt(x, dyt_p)
        for c in range(3):
            band = abs(gamma[c]) + 1e-12
            if np.any(np.abs(out[:, c] - beta[c]) > band):
                bad.append(f"dyt out of channel band at {i}")
                break
        if bad:
            break

    _report("criterion 4",
            not bad,
            "1000 fuzzed inputs each: head distribution sums to 1 +/- 1e-6, "
            "attention in (0,1], pixel map strictly inside (0,1), "
            "tanh transform inside per-channel bands"
            + (f"; first violation: {bad[0]}" if bad else ""))


# ---------------------------------------------------------------------------
# criterion 5: spectral transform accuracy on every small size
# ---------------------------------------------------------------------------

def test_c5_fft_accuracy():
    worst_rt = worst_par = 0.0
    for h in range(1, 17):
        for w in range(1, 17):
            x = _u(h * 100 + w, "c5.x", (1, 1, h, w))
            spec = ops.rfft2(x)
            back = ops.irfft2(spec, w)
            scale = max(float(np.max(np.abs(x))), 1e-30)
            worst_rt = max(worst_rt, float(np.max(np.abs(back - x))) / scale)
            # bins 0 and w/2 count once; every other half column also stands
            # for its mirror
            k = np.arange(w // 2 + 1)
            lhs = float(np.sum(x * x))
            rhs = float(np.sum(np.where((k == 0) | (2 * k == w), 1, 2)
                               * np.abs(spec) ** 2)) / (h * w)
            worst_par = max(worst_par, abs(lhs - rhs) / max(lhs, 1e-30))

    worst_dft = 0.0
    for h in range(1, 9):
        for w in range(1, 9):
            x = _u(h * 100 + w, "c5.d", (1, 2, h, w))
            worst_dft = max(worst_dft, float(np.max(np.abs(
                ops.rfft2(x) - orc.dft2_ref(x)[..., :w // 2 + 1]))))

    ok = worst_rt <= 1e-6 and worst_par <= 1e-6 and worst_dft <= 1e-9
    _report("criterion 5",
            ok,
            f"rfft2/irfft2 on sizes 1..16 incl primes: roundtrip rel "
            f"{worst_rt:.3e} and half-spectrum energy-identity rel "
            f"{worst_par:.3e} (<= 1e-6); naive-transform diff {worst_dft:.3e} "
            f"on sizes <= 8 (<= 1e-9)")


# ---------------------------------------------------------------------------
# criterion 6: op counts grow strictly through the ablation
# ---------------------------------------------------------------------------

def test_c6_flop_ablation():
    series = ablation_series(RunConfig())
    totals = [t for _, t in series]
    ok = all(b > a for a, b in zip(totals, totals[1:]))
    chain = " < ".join(f"{label}:{total}" for label, total in series)
    _report("criterion 6", ok, f"cumulative totals strictly increase: {chain}")


# ---------------------------------------------------------------------------
# criterion 7: the full run is fast and byte-deterministic
# ---------------------------------------------------------------------------

def test_c7_full_run_determinism(tmp_path):
    cfg = tmp_path / "full.cfg"
    cfg.write_text("seed = 1\nstage = full\n")   # default 1x64x80x80 + 1x64x40x40
    elapsed = []
    for sub in ("a", "b"):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "mgdfis.cli", "run", "--config", str(cfg),
             "--out", str(tmp_path / sub)],
            capture_output=True, text=True)
        elapsed.append(time.perf_counter() - t0)
        assert proc.returncode == 0, proc.stderr
    out_a = (tmp_path / "a" / "full.mgdt").read_bytes()
    out_b = (tmp_path / "b" / "full.mgdt").read_bytes()
    shape = read_tensor(tmp_path / "a" / "full.mgdt").shape
    ok = (out_a == out_b and shape == (1, 64, 80, 80)
          and all(e < 10.0 for e in elapsed))
    _report("criterion 7",
            ok,
            f"stage full wrote {'x'.join(map(str, shape))}, runs "
            f"{elapsed[0]:.1f}s/{elapsed[1]:.1f}s (< 10s), outputs "
            f"{'byte-identical' if out_a == out_b else 'DIFFER'}")
