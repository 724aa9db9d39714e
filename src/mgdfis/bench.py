"""Wall-clock scaling benchmark for the token-statistics attention.

Medians over at least 9 timed repetitions (2 discarded warmup runs) per
token count, for the linear-cost attention and for a bundled naive
quadratic softmax attention baseline; fast token counts repeat until the
timed runs total 0.2 s, so a sub-10 ms median rests on enough samples.
A sweep times its token counts in rounds of one run each, and a count keeps
running while a neighbour still needs runs, so N and 2N are timed in
alternation and machine drift moves both medians alike.
The ratio column normalizes consecutive timings to a per-doubling growth
factor, (t_i / t_{i-1}) ** (1 / log2(N_i / N_{i-1})), which for an
exactly doubling sweep is just t(2N) / t(N).  Timing runs in a single
thread; nothing here spawns workers.
"""

import math
import time
from dataclasses import dataclass
from functools import partial
from statistics import median

import numpy as np

from .params import init_tssa
from .ftssa import tssa_tokens
from .rng import stream

BENCH_CHANNELS = 32
BENCH_HEADS = 1
BENCH_HEAD_DIM = 64


@dataclass(frozen=True)
class BenchRow:
    tokens: int
    median_ms: float
    ratio: float = None   # per-doubling growth vs the previous row


# Timing keeps repeating past `reps` until the timed runs add up to this.
_MIN_TIMED_S = 0.2


def _time_medians(fns, reps=9, warmup=2):
    """Median wall time of each of `fns`, timed in rounds.  Each fn runs
    until it has `reps` timed runs adding up to _MIN_TIMED_S, and also while
    an adjacent fn has not."""
    for fn in fns:
        for _ in range(warmup):
            fn()
    times, totals = [[] for _ in fns], [0.0] * len(fns)
    while True:
        short = [len(t) < reps or s < _MIN_TIMED_S for t, s in zip(times, totals)]
        if not any(short):
            return [median(t) for t in times]
        for i, fn in enumerate(fns):
            if any(short[max(0, i - 1):i + 2]):
                t0 = time.perf_counter()
                fn()
                times[i].append(time.perf_counter() - t0)
                totals[i] += times[i][-1]


def attention_core(q, k, v, block=256, work=None):
    """Row-blocked softmax(q k^T / sqrt(d)) v; the O(N^2) part of attention.

    `work` may provide a preallocated (block, N) scratch buffer so repeated
    timing runs do not measure allocator traffic; the softmax runs in place
    on that buffer for the same reason.
    """
    n, d = q.shape
    scale = 1.0 / math.sqrt(d)
    kt = k.T
    out = np.empty_like(q)
    if work is None:
        work = np.empty((min(block, n), n))
    for i0 in range(0, n, block):
        rows = min(block, n - i0)
        s = work[:rows]
        np.matmul(q[i0:i0 + rows], kt, out=s)
        s *= scale
        s -= s.max(axis=1, keepdims=True)
        np.exp(s, out=s)
        s /= s.sum(axis=1, keepdims=True)
        np.matmul(s, v, out=out[i0:i0 + rows])
    return out


def _attach_ratios(rows):
    out = [rows[0]]
    for prev, cur in zip(rows, rows[1:]):
        if cur.tokens > prev.tokens and prev.median_ms > 0:
            exponent = 1.0 / math.log2(cur.tokens / prev.tokens)
            ratio = (cur.median_ms / prev.median_ms) ** exponent
        else:
            ratio = None
        out.append(BenchRow(cur.tokens, cur.median_ms, ratio))
    return out


def bench_tssa(token_counts, seed=1, reps=9, warmup=2):
    """Returns {"tssa": [BenchRow], "baseline": [BenchRow]}."""
    token_counts = sorted(token_counts)
    c, h, d = BENCH_CHANNELS, BENCH_HEADS, BENCH_HEAD_DIM
    p = init_tssa(seed, "bench.tssa", c, h, d)
    wq = stream(seed, "bench.base.wq").uniform((c, d), -0.2, 0.2)
    wk = stream(seed, "bench.base.wk").uniform((c, d), -0.2, 0.2)
    wv = stream(seed, "bench.base.wv").uniform((c, d), -0.2, 0.2)

    linear, quad = [], []
    for n in token_counts:
        t = stream(seed, f"bench.tokens.{n}").uniform((1, n, c), -1.0, 1.0)
        linear.append(partial(tssa_tokens, t, p))
        # Project once outside the timed region: the contrast is about how the
        # O(N^2) attention core grows, and the linear-cost projections only
        # blur the doubling ratio at small N.
        tokens = t[0]
        q, k, v = tokens @ wq, tokens @ wk, tokens @ wv
        quad.append(partial(attention_core, q, k, v, work=np.zeros((min(256, n), n))))
    return {name: _attach_ratios([BenchRow(n, 1000.0 * s) for n, s in zip(
                token_counts, _time_medians(fns, reps, warmup))])
            for name, fns in (("tssa", linear), ("baseline", quad))}


def doubling_ratio(rows, n):
    """Measured t(2N)/t(N); needs both N and 2N in the sweep."""
    by_tokens = {r.tokens: r.median_ms for r in rows}
    if n not in by_tokens or 2 * n not in by_tokens:
        raise ValueError(f"sweep lacks {n} and {2 * n} token rows")
    return by_tokens[2 * n] / by_tokens[n]


def format_table(results):
    lines = [f"{'tokens':>8} {'tssa_ms':>12} {'ratio':>7} "
             f"{'baseline_ms':>12} {'ratio':>7}"]
    for lin, quad in zip(results["tssa"], results["baseline"]):
        lr = f"{lin.ratio:.2f}" if lin.ratio is not None else "-"
        qr = f"{quad.ratio:.2f}" if quad.ratio is not None else "-"
        lines.append(f"{lin.tokens:>8} {lin.median_ms:>12.3f} {lr:>7} "
                     f"{quad.median_ms:>12.3f} {qr:>7}")
    return "\n".join(lines)
