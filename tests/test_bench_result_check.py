"""The CI check that a perfbench run ended in one strict-JSON result line
with "correct": true."""

import importlib.util
import pathlib

import pytest

_SCRIPT = pathlib.Path(__file__).parents[1] / ".github" / "scripts" / "bench_result_ok.py"
_spec = importlib.util.spec_from_file_location("bench_result_ok", _SCRIPT)
bench_result_ok = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_result_ok)

_REPORT = '{"workload": "full_forward", "fail_ratio": 0.0}'
_PASS = '{"correct": true, "attempted": 3, "failed": 0, "metrics": {"iter_s_p50": {"value": 0.3, "unit": "s"}}}'


def _out(tmp_path, text):
    path = tmp_path / "run.out"
    path.write_text(text)
    return str(path)


def test_a_passing_result_line_passes(tmp_path):
    assert bench_result_ok.main([_out(tmp_path, f"{_REPORT}\n{_PASS}\n")]) == 0


@pytest.mark.parametrize("last,fault", [
    (_PASS.replace("0.3", "NaN"), "non-finite number NaN"),
    (_PASS.replace("0.3", "-Infinity"), "non-finite number -Infinity"),
    (_PASS.replace("true", "false"), '"correct": true'),
    (_REPORT, '"correct": true'),
    ("Traceback (most recent call last):", "not strict JSON"),
    ('{"correct": true', "not strict JSON"),
])
def test_a_bad_last_line_fails_naming_the_fault(tmp_path, capsys, last, fault):
    path = _out(tmp_path, f"{_PASS}\n{last}\n")
    assert bench_result_ok.main([path]) == 1
    assert f"{path}: " in capsys.readouterr().err
    assert fault in bench_result_ok.check(path)


def test_empty_output_and_no_file_fail(tmp_path):
    assert bench_result_ok.check(_out(tmp_path, "")) == "no output"
    assert bench_result_ok.main([]) == 1
