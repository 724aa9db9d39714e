"""Exit 0 when the last line of each named perfbench output file is one
strict-JSON result line reporting "correct": true; otherwise name the file
and the fault and exit 1.

    python .github/scripts/bench_result_ok.py OUT [OUT ...]

Strict means that NaN, Infinity and -Infinity, which json.loads accepts by
default, are rejected: a metric that reads one of them is no measurement.
"""
import json
import sys


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


def check(path):
    """None when path's last line is a passing result line, else the fault."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        return "no output"
    try:
        result = json.loads(lines[-1], parse_constant=_reject_constant)
    except ValueError as exc:
        return f"last line is not strict JSON ({exc}): {lines[-1][:200]!r}"
    if not isinstance(result, dict) or result.get("correct") is not True:
        return f'last line does not report "correct": true: {lines[-1][:200]!r}'
    return None


def main(paths):
    faults = [(p, check(p)) for p in paths]
    for path, fault in faults:
        if fault:
            print(f"{path}: {fault}", file=sys.stderr)
    return 1 if any(fault for _, fault in faults) or not paths else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
