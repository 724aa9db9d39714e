"""Closed-loop benchmark of the mgdfis pipeline.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller in one process issues the next call only after the previous one
returns.  Inputs are generated from --seed, written as .mgdt files and read
back; the program sees only those files or the arrays read from them.
Scratch files go to perfbench/out/<workload>/.

Workloads:
  full_forward     `mgdfis run --stage full` at the paper config: f1 1x64x80x80
                   and f2 1x64x40x40.  Big-map conv GEMMs dominate it, and
                   the smaller f2 goes through the reconcile path.
  full_backward    the same forward plus the VJP of <gy, output> into f1, f2
                   and every parameter, chained through the public forward
                   and VJP entry points.  This is where recomputation in the
                   VJPs, conv2d_vjp and memory show; full_forward is its
                   bypass workload, which a forward-cache change leaves alone.
  gradcheck_sweep  every case of mgdfis.checks.OP_CHECKS through grad_check
                   (eps 1e-4, tol 1e-4), one seed's sweep of all cases per
                   call.  Maps are at most 6x6 with C <= 4, so per-call
                   overhead dominates.

With --trace 0 the last line of stdout carries the end-to-end metrics.  With
--trace 1 the run times half its window untraced and half with a span around
every public function of the program, and reports per-layer metrics per
workload call.  The line before the result holds the environment record and
the figures that are not metrics.
"""

import argparse
import os
import sys

# BLAS threads are fixed before numpy loads; MGDFIS_THREADS stays unset so
# every run takes the serial path.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = str(min(2, len(os.sched_getaffinity(0))))
os.environ.pop("MGDFIS_THREADS", None)

import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
sys.path.insert(0, HERE)

import machine  # noqa: E402
from tracer import Tracer  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 9
FINGERPRINT_TOL = 1e-12
GRAD_EPS = GRAD_TOL = 1e-4
DIRECTIONAL_EPS = 1e-5
DIRECTIONAL_TOL = 1e-6

# Submodules load by name: the package re-exports functions called gdim,
# ftssa and dpam that shadow the modules of the same name.
MODULES = ("config", "pipeline", "params", "mgdt", "ops", "ftssa", "gdim",
           "dpam", "gradcheck", "checks", "flops")

SETUP_API = ["config.RunConfig", "pipeline.build_params", "mgdt.write_tensor",
             "mgdt.read_tensor"]
# The public entry points each workload calls; a change that keeps these
# signatures keeps the benchmark running.
ENTRY_POINTS = {
    "full_forward": ["pipeline.run"],
    "full_backward": ["gdim.aggregate", "gdim.gdim", "dpam.dpam",
                      "dpam.mgdfis_fuse", "dpam.mgdfis_fuse_vjp",
                      "dpam.dpam_vjp", "gdim.aggregate_vjp", "gdim.gdim_vjp",
                      "params.param_leaves", "params.replace_leaves",
                      "params.add_params", "params.PipelineParams"],
    "gradcheck_sweep": ["checks.OP_CHECKS", "gradcheck.grad_check"],
}
TRACE_API = ["flops.conv_flops"]


# ---------------------------------------------------------------------------
# program loading and set-up
# ---------------------------------------------------------------------------

class Program:
    """The program's submodules, loaded fresh from the checkout's src/."""

    def __init__(self):
        for name in [n for n in sys.modules
                     if n == "mgdfis" or n.startswith("mgdfis.")]:
            del sys.modules[name]
        for name in MODULES:
            setattr(self, name, importlib.import_module("mgdfis." + name))
        origin = os.path.dirname(os.path.abspath(self.config.__file__))
        if origin != os.path.join(SRC, "mgdfis"):
            raise ImportError(f"mgdfis loaded from {origin}, not {SRC}")

    def resolve(self, dotted):
        mod, attr = dotted.split(".", 1)
        return getattr(getattr(self, mod), attr)


def generate_inputs(seed, cfg):
    rng = np.random.default_rng(seed)
    f1 = rng.uniform(-1.0, 1.0, cfg.f1_shape)
    f2 = rng.uniform(-1.0, 1.0, cfg.f2_shape)
    gy = rng.uniform(-1.0, 1.0, cfg.f1_shape)
    return f1, f2, gy


@dataclasses.dataclass
class State:
    prog: Program
    cfg: object
    params: object
    f1: np.ndarray
    f2: np.ndarray
    gy: np.ndarray


def write_inputs(prog, seed, workdir, tag=""):
    """Paper-config RunConfig for `seed` with its inputs written as .mgdt."""
    cfg = prog.config.RunConfig(
        seed=seed, stage="full",
        f1_path=os.path.join(workdir, f"{tag}f1.mgdt"),
        f2_path=os.path.join(workdir, f"{tag}f2.mgdt"),
        out_dir=os.path.join(workdir, f"{tag}run")).validate()
    f1, f2, gy = generate_inputs(seed, cfg)
    prog.mgdt.write_tensor(cfg.f1_path, f1)
    prog.mgdt.write_tensor(cfg.f2_path, f2)
    prog.mgdt.write_tensor(os.path.join(workdir, f"{tag}gy.mgdt"), gy)
    return cfg


def setup(seed, workdir):
    """Imports, init_pipeline, input generation and .mgdt writing."""
    prog = Program()
    cfg = write_inputs(prog, seed, workdir)
    params = prog.pipeline.build_params(cfg)
    read = prog.mgdt.read_tensor
    return State(prog, cfg, params, read(cfg.f1_path), read(cfg.f2_path),
                 read(os.path.join(workdir, "gy.mgdt")))


def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.float64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def fingerprint(out):
    """Means and fixed samples that move by at most the largest elementwise
    change, so a 1e-12 bound on them holds whenever every entry does."""
    flat = np.ascontiguousarray(out, dtype=np.float64).ravel()
    weights = np.random.default_rng(12345).uniform(-1.0, 1.0, flat.size)
    picks = np.linspace(0, flat.size - 1, 16).astype(np.int64)
    return {"shape": [int(d) for d in out.shape],
            "mean": float(flat.mean()),
            "mean_abs": float(np.abs(flat).mean()),
            "weighted_mean": float(flat @ weights / flat.size),
            "samples": [float(v) for v in flat[picks]]}


def fingerprint_problems(got, want):
    if got["shape"] != want["shape"]:
        return [f"fingerprint shape {got['shape']} != {want['shape']}"]
    problems = []
    for key in ("mean", "mean_abs", "weighted_mean", "samples"):
        a = np.atleast_1d(got[key])
        b = np.atleast_1d(want[key])
        err = float(np.max(np.abs(a - b)))
        if not err <= FINGERPRINT_TOL:
            problems.append(f"fingerprint {key} off by {err:.3e}")
    return problems


class FullForward:
    """pipeline.run on the paper config, inputs read from .mgdt files."""

    def __init__(self, st, workdir):
        self.st, self.workdir = st, workdir
        self.first = None
        self.problems = []

    def reference_output(self):
        prog, cfg = self.st.prog, self.st.cfg
        if cfg.seed != DEFAULT_SEED:
            cfg = write_inputs(prog, DEFAULT_SEED, self.workdir, "ref_")
        return prog.pipeline.run(cfg).output

    def warmup(self):
        # the default-seed forward warms lazy state and checks the output
        # against the fingerprint recorded for this seed
        with open(REFERENCE) as fh:
            want = json.load(fh)["full_forward"]
        self.problems += fingerprint_problems(
            fingerprint(self.reference_output()), want)

    def call(self, i):
        d = digest([self.st.prog.pipeline.run(self.st.cfg).output])
        self.first = self.first or d
        return d == self.first

    def finish(self):
        return self.problems


class FullBackward:
    """Forward plus the VJP of <gy, output> into f1, f2 and every parameter.
    After the window, the first call's gradients are checked against a
    central difference along a seeded direction."""

    def __init__(self, st, workdir):
        self.st = st
        self.first = None
        self.grads = None

    def leaves(self):
        st = self.st
        return {"f1": st.f1, "f2": st.f2,
                **st.prog.params.param_leaves(st.params)}

    def forward(self, f1, f2, p):
        g, d = self.st.prog.gdim, self.st.prog.dpam
        f_agg = g.aggregate(f1, f2, p.agg)
        f_hat = g.gdim(f1, f2, p.gmm, p.dmm, p.agg)
        amap = d.dpam(f_agg, f_hat, p.dpam)
        out = d.mgdfis_fuse(amap, f_hat, f1, f2, p.fusion, p.agg)
        return f_agg, f_hat, amap, out

    def loss(self, leaves):
        prog = self.st.prog
        p = prog.params.replace_leaves(self.st.params, leaves)
        out = self.forward(leaves["f1"], leaves["f2"], p)[-1]
        return float(np.sum(self.st.gy * out))

    def forward_backward(self):
        st = self.st
        prog, p, f1, f2 = st.prog, st.params, st.f1, st.f2
        g, d, P = prog.gdim, prog.dpam, prog.params
        f_agg, f_hat, amap, _ = self.forward(f1, f2, p)
        g_amap, g_hat, g1, g2, g_fusion, g_agg = d.mgdfis_fuse_vjp(
            amap, f_hat, f1, f2, p.fusion, p.agg, st.gy)
        g_fagg, g_hat2, g_dpam = d.dpam_vjp(f_agg, f_hat, p.dpam, g_amap)
        g1b, g2b, g_agg2 = g.aggregate_vjp(f1, f2, p.agg, g_fagg)
        g1c, g2c, g_gmm, g_dmm, g_agg3 = g.gdim_vjp(
            f1, f2, p.gmm, p.dmm, p.agg, g_hat + g_hat2)
        grads = P.PipelineParams(
            agg=P.add_params(P.add_params(g_agg, g_agg2), g_agg3),
            gmm=g_gmm, dmm=g_dmm, dpam=g_dpam, fusion=g_fusion)
        return {"f1": g1 + g1b + g1c, "f2": g2 + g2b + g2c,
                **P.param_leaves(grads)}

    def warmup(self):
        # both difference forwards run before the window and warm it up
        base = self.leaves()
        rng = np.random.default_rng([self.st.cfg.seed, 0xD1])
        self.direction = {k: rng.uniform(-1.0, 1.0, np.shape(v))
                          for k, v in base.items()}

        def shifted(sign):
            step = sign * DIRECTIONAL_EPS
            return {k: v + step * self.direction[k] if np.ndim(v)
                    else float(v + step * self.direction[k])
                    for k, v in base.items()}

        self.l_plus = self.loss(shifted(1.0))
        self.l_minus = self.loss(shifted(-1.0))

    def call(self, i):
        grads = self.forward_backward()
        d = digest([grads[k] for k in sorted(grads)])
        if self.first is None:
            self.first, self.grads = d, grads
        return d == self.first

    def finish(self):
        base = self.leaves()
        problems = [f"gradient {k}: shape {np.shape(self.grads.get(k))}"
                    for k, v in base.items()
                    if np.shape(self.grads.get(k)) != np.shape(v)]
        if problems:
            return problems
        analytic = sum(float(np.sum(self.grads[k] * self.direction[k]))
                       for k in base)
        numeric = (self.l_plus - self.l_minus) / (2.0 * DIRECTIONAL_EPS)
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        if not rel <= DIRECTIONAL_TOL:
            problems.append(f"directional derivative: analytic {analytic!r}, "
                            f"central difference {numeric!r}, rel {rel:.3e}")
        return problems


class GradcheckSweep:
    """Every registered gradient check through grad_check.  One call is one
    sweep: every case at one seed, derived from the workload seed and the
    call index.  Case times run from under a millisecond to seconds, so a
    median over cases would jump between neighbouring ops from run to run;
    per-op times are per-layer figures instead."""

    def __init__(self, st, workdir):
        self.st = st
        self.names = list(st.prog.checks.OP_CHECKS)
        self.case_times = {name: [] for name in self.names}
        self.tracer = None
        self.first = None
        self.problems = []

    def seed(self, i):
        rng = np.random.default_rng([self.st.cfg.seed, i])
        return int(rng.integers(1, 2 ** 31))

    def run_case(self, name, seed):
        prog = self.st.prog
        fwd, bwd, leaves = prog.checks.OP_CHECKS[name](seed)
        if self.tracer is not None:
            fwd = self.counted(fwd)
        return prog.gradcheck.grad_check(name, fwd, bwd, leaves,
                                         eps=GRAD_EPS, tol=GRAD_TOL)

    def counted(self, fwd):
        counts = self.tracer.counts

        def forward(lv):
            counts["gradcheck.grad_check.forward_calls"] += 1
            return fwd(lv)
        return forward

    @staticmethod
    def outcome(rep):
        return (rep.max_rel_err, rep.checked, rep.worst_leaf,
                tuple(rep.failures))

    def warmup(self):
        # the first case runs once untimed; the timed sweep must repeat it
        self.first = self.outcome(self.run_case(self.names[0], self.seed(0)))

    def call(self, i):
        seed = self.seed(i)
        ok = True
        for name in self.names:
            t0 = time.perf_counter()
            rep = self.run_case(name, seed)
            if self.tracer is None:
                self.case_times[name].append(time.perf_counter() - t0)
            else:
                counts = self.tracer.counts
                counts["gradcheck.grad_check.entries"] += rep.checked
            if (i, name) == (0, self.names[0]) and (
                    self.outcome(rep) != self.first):
                self.problems.append(f"{name} seed {seed}: report differs "
                                     "from its untimed run")
            if not rep.passed:
                print(rep.summary(), file=sys.stderr)
                ok = False
        return ok

    def finish(self):
        return self.problems


WORKLOADS = {"full_forward": FullForward, "full_backward": FullBackward,
             "gradcheck_sweep": GradcheckSweep}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def closed_loop(wl, seconds, first=0):
    """Call until `seconds` have passed."""
    times, oks = [], []
    t_start = time.perf_counter()
    i = first
    while True:
        t0 = time.perf_counter()
        ok = wl.call(i)
        t1 = time.perf_counter()
        times.append(t1 - t0)
        oks.append(bool(ok))
        i += 1
        if t1 - t_start >= seconds:
            return times, oks, t1 - t_start


def counters(conv_flops):
    """Flops and computed bytes per conv call, file bytes per .mgdt call.
    A VJP counts twice the forward flops; bytes are the sizes of the arrays
    passed in and returned, not measured traffic."""
    def conv(factor):
        def count(counts, name, args, out):
            x, spec = args[0], args[3]
            flops = conv_flops(spec, x.shape[2], x.shape[3], batch=x.shape[0])
            arrays = list(args[:3]) + list(args[4:5])
            arrays += list(out) if isinstance(out, tuple) else [out]
            counts[name + ".flops"] += factor * flops
            counts[name + ".bytes"] += sum(a.nbytes for a in arrays)
        return count

    def file_bytes(counts, name, args, out):
        counts[name + ".bytes"] += os.path.getsize(args[0])

    return {"ops.conv2d": conv(1), "ops.conv2d_vjp": conv(2),
            "mgdt.read_tensor": file_bytes, "mgdt.write_tensor": file_bytes}

# span groups reported under one name
GROUPS = {
    "ops.fft": ("ops.fft2", "ops.ifft2", "ops.fft2_vjp", "ops.ifft2_vjp"),
    "ops.linear": ("ops.linear", "ops.linear_vjp"),
    "ops.act": ("ops.activation", "ops.activation_grad", "ops.activation_vjp",
                "ops.sigmoid", "ops.silu", "ops.gelu"),
}
SELF_S = ["ops.bilinear_resize", "ftssa.ftssa", "ftssa.ftssa_vjp",
          "ftssa.tssa", "ftssa.seff", "ftssa.mona", "ftssa.dyt",
          "gdim.aggregate", "gdim.gmm", "gdim.dmm_directional",
          "gdim.dmm_attention", "gdim.gdim", "gdim.gmm_vjp", "gdim.dmm_vjp",
          "gdim.gdim_vjp", "dpam.dpam", "dpam.dpam_vjp", "dpam.mgdfis_fuse",
          "dpam.mgdfis_fuse_vjp", "pipeline.run", "pipeline.load_inputs",
          "pipeline.build_params", "params.init_pipeline", "mgdt.read_tensor",
          "mgdt.write_tensor", "gradcheck.grad_check"]
CALLS = ["ops.conv2d", "ops.conv2d_vjp", "ops.fft", "ops.bilinear_resize",
         "ftssa.ftssa", "ftssa.ftssa_vjp"]


def layer_metrics(tracer, ncalls, refs, case_times, check_names):
    """Per-layer figures, each per workload call unless it is a ratio."""
    totals = tracer.totals()
    for group, members in GROUPS.items():
        parts = [totals.get(m, (0, 0.0, 0.0)) for m in members]
        totals[group] = tuple(sum(p[j] for p in parts) for j in range(3))
    m = {}
    for name in CALLS:
        m[name + ".calls"] = totals.get(name, (0,))[0] / ncalls
    for name in SELF_S + list(GROUPS) + ["ops.conv2d", "ops.conv2d_vjp"]:
        m[name + ".self_s"] = totals.get(name, (0, 0.0, 0.0))[2] / ncalls
    for name in ("ops.conv2d", "ops.conv2d_vjp"):
        flops = tracer.counts[name + ".flops"]
        busy = totals.get(name, (0, 0.0, 0.0))[1]
        rate = flops / busy / 1e9 if busy else 0.0
        nbytes = tracer.counts[name + ".bytes"]
        m[name + ".flops"] = flops / ncalls
        m[name + ".gflops_s"] = rate
        m[name + ".peak_frac"] = rate / refs["gemm_gflops"]
        m[name + ".flops_per_byte"] = flops / nbytes if nbytes else 0.0
    for name in ("mgdt.read_tensor", "mgdt.write_tensor"):
        m[name + ".bytes"] = tracer.counts[name + ".bytes"] / ncalls
    fwd = totals.get("gdim.gdim", (0, 0.0))[1]
    m["gdim.vjp_over_fwd"] = (totals.get("gdim.gdim_vjp", (0, 0.0))[1] / fwd
                              if fwd else 0.0)
    for span in ("gdim.gdim", "gdim.gdim_vjp"):
        m[span + ".conv2d_calls"] = (
            tracer.descendants_of(span, "ops.conv2d") / ncalls)
    for key in ("forward_calls", "entries"):
        m["gradcheck.grad_check." + key] = (
            tracer.counts["gradcheck.grad_check." + key] / ncalls)
    for op in check_names:
        times = case_times.get(op)
        m[f"checks.{op}.s"] = statistics.fmean(times) if times else 0.0
    m["machine.gemm_gflops"] = refs["gemm_gflops"]
    m["machine.copy_gbs"] = refs["copy_gbs"]
    return m


UNITS = {"calls": "count", "self_s": "s", "flops": "flop", "gflops_s": "GF/s",
         "peak_frac": "ratio", "flops_per_byte": "flop/B_computed",
         "bytes": "B", "vjp_over_fwd": "ratio",
         "conv2d_calls": "count", "forward_calls": "count",
         "entries": "count", "s": "s", "gemm_gflops": "GF/s",
         "copy_gbs": "GB/s", "overhead_s": "s"}


def metric(value, unit):
    return {"value": float(value), "unit": unit}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="record the full_forward fingerprint at the default "
                         "seed in perfbench/reference.json and exit")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "mgdfis", "__init__.py")):
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(OUT, args.workload)
    os.makedirs(workdir, exist_ok=True)

    if args.write_reference:
        st = setup(DEFAULT_SEED, workdir)
        out = st.prog.pipeline.run(st.cfg).output
        with open(REFERENCE, "w") as fh:
            json.dump({"full_forward": fingerprint(out)}, fh, indent=1)
            fh.write("\n")
        return 0

    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        st = None
        gc.collect()    # drop the previous set-up's modules and arrays
        t0 = time.perf_counter()
        st = setup(args.seed, workdir)
        setup_times.append(time.perf_counter() - t0)
    for dotted in SETUP_API + ENTRY_POINTS[args.workload] + TRACE_API:
        st.prog.resolve(dotted)

    wl = WORKLOADS[args.workload](st, workdir)
    wl.warmup()
    report = {"workload": args.workload, "seed": args.seed,
              "loop": "closed, 1 caller",
              "entry_points": ["mgdfis." + e for e in
                               SETUP_API + ENTRY_POINTS[args.workload]],
              "env": machine.environment()}
    if args.trace:
        metrics, oks = traced_run(wl, args.seconds, workdir, report)
    else:
        metrics, oks = untraced_run(wl, args.seconds, setup_times, report)

    failed = [not ok for ok in oks]
    if report["problems"]:
        failed[0] = True
    report["fail_ratio"] = sum(failed) / len(failed)
    print(json.dumps(report))
    print(json.dumps({"correct": not any(failed), "attempted": len(failed),
                      "failed": sum(failed), "metrics": metrics}))
    return 0


def untraced_run(wl, seconds, setup_times, report):
    times, oks, elapsed = closed_loop(wl, seconds)
    report["problems"] = wl.finish()
    report["iter_s_samples"] = len(times)
    report["setup_s_samples"] = len(setup_times)
    if len(times) >= 100:
        report["iter_s_p90"] = statistics.quantiles(times, n=10)[-1]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"setup_s": metric(statistics.median(setup_times), "s"),
            "iter_s_p50": metric(statistics.median(times), "s"),
            "calls_per_s": metric(len(times) / elapsed, "1/s"),
            "peak_rss_mb": metric(rss_mb, "MB")}, oks


def traced_run(wl, seconds, workdir, report):
    """Half the window untraced, half traced, then the machine references."""
    times, oks, _ = closed_loop(wl, seconds / 2.0)
    prog = wl.st.prog
    tracer = Tracer(counters(prog.flops.conv_flops))
    tracer.install()
    wl.tracer = tracer
    try:
        t_times, t_oks, _ = closed_loop(wl, seconds / 2.0, first=len(times))
    finally:
        tracer.uninstall()
        wl.tracer = None
    report["problems"] = wl.finish()
    report["traced_calls"] = len(t_times)
    case_times = getattr(wl, "case_times", {})
    check_names = list(prog.checks.OP_CHECKS)
    report["machine"] = refs = machine.references()
    tracer.save(os.path.join(workdir, "trace.npz"))
    values = layer_metrics(tracer, len(t_times), refs, case_times, check_names)
    values["trace.overhead_s"] = (statistics.median(t_times)
                                  - statistics.median(times))
    metrics = {name: metric(v, UNITS[name.rsplit(".", 1)[1]])
               for name, v in values.items()}
    return metrics, oks + t_oks


if __name__ == "__main__":
    sys.exit(main())
