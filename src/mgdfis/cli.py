"""Command-line interface.

Exit codes: 0 success, 1 usage/configuration error (a config too large to
allocate included), 2 tensor-file or other I/O error, 3 contract violation
(shape errors, failed gradient checks).
"""

import argparse
import sys

from .bench import bench_tssa, format_table
from .checks import run_all
from .config import RunConfig, apply_overrides, load_config
from .errors import ConfigError, ShapeError, TensorFormatError
from .flops import ablation_series, pipeline_flops
from .pipeline import dump_params, run


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2 (2 means I/O here)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(prog="mgdfis",
                     description="feature-fusion pipeline: run stages, "
                                 "benchmark attention scaling, estimate "
                                 "flops, verify gradients")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a pipeline stage")
    run_p.add_argument("--config", help="key = value config file")
    run_p.add_argument("--stage", help="ftssa | gmm | dmm | gdim | dpam | full")
    run_p.add_argument("--seed", type=int, help="unsigned 64-bit seed")
    run_p.add_argument("--out", help="output directory")

    bench_p = sub.add_parser("bench-tssa", help="attention scaling benchmark")
    bench_p.add_argument("--tokens", default="1024,2048,4096",
                         help="comma-separated token counts")
    bench_p.add_argument("--seed", type=int, default=1)

    flops_p = sub.add_parser("flops", help="analytic flop report")
    flops_p.add_argument("--config", help="key = value config file")
    flops_p.add_argument("--seed", type=int)

    sub.add_parser("gradcheck", help="finite-difference gradient suite")

    dump_p = sub.add_parser("dump-params", help="write parameter tensors")
    dump_p.add_argument("--config", help="key = value config file")
    dump_p.add_argument("--seed", type=int)
    dump_p.add_argument("--out", help="output directory")

    return parser


def _config_from(args):
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    return apply_overrides(cfg,
                           seed=getattr(args, "seed", None),
                           stage=getattr(args, "stage", None),
                           out_dir=getattr(args, "out", None))


def _cmd_run(args):
    res = run(_config_from(args))
    shape = "x".join(str(d) for d in res.output.shape)
    print(f"stage {res.stage}: wrote {shape} tensor to {res.out_path} "
          f"({res.elapsed_s:.3f}s)")
    return 0


def _cmd_bench(args):
    try:
        tokens = [int(part) for part in args.tokens.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"--tokens expects comma-separated integers, "
                          f"got '{args.tokens}'") from None
    if not tokens or any(n < 1 for n in tokens):
        raise ConfigError("--tokens needs at least one positive count")
    print(format_table(bench_tssa(tokens, seed=args.seed)))
    return 0


def _cmd_flops(args):
    cfg = _config_from(args)
    print(pipeline_flops(cfg).table())
    print()
    print("ablation totals (cumulative stages):")
    for label, total in ablation_series(cfg):
        print(f"  {label:<16} {total:>14}")
    return 0


def _cmd_gradcheck(_args):
    reports = run_all()
    failed = [r for r in reports if not r.passed]
    for rep in reports:
        print(rep.summary())
    print(f"gradcheck: {len(reports) - len(failed)}/{len(reports)} ops pass")
    return 3 if failed else 0


def _cmd_dump(args):
    pdir = dump_params(_config_from(args))
    print(f"wrote parameter tensors and manifest to {pdir}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "bench-tssa": _cmd_bench,
    "flops": _cmd_flops,
    "gradcheck": _cmd_gradcheck,
    "dump-params": _cmd_dump,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"mgdfis: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"mgdfis: configuration too large to allocate: {exc}",
              file=sys.stderr)
        return 1
    except TensorFormatError as exc:
        print(f"mgdfis: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"mgdfis: {exc}", file=sys.stderr)
        return 2
    except ShapeError as exc:
        print(f"mgdfis: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
