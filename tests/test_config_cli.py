"""Config parsing, parameter initialisation, stage execution, and the
command-line surface (exit codes, outputs on disk, determinism)."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import oracles as orc
from mgdfis import cli, pipeline
from mgdfis.config import RunConfig, apply_overrides, load_config, parse_config
from mgdfis.errors import ConfigError, ShapeError
from mgdfis.mgdt import read_tensor, write_tensor
from mgdfis.params import (add_params, all_tensors, init_gmm, init_mona,
                           init_pipeline, init_tssa, param_leaves,
                           structural_fields, zeros_like_params)
from mgdfis.rng import stream

TINY = """
# tiny smoke configuration
seed = 5
f1_shape = 1x4x6x6
f2_shape = 1x4x6x6
k = 2
heads = 2
head_dim = 2
seff_base_resolution = 4
stage = gmm
"""


def tiny_cfg(**over):
    cfg = parse_config(TINY)
    return dataclasses.replace(cfg, **over) if over else cfg


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_full_config():
    cfg = tiny_cfg()
    assert cfg.seed == 5
    assert cfg.f1_shape == (1, 4, 6, 6)
    assert cfg.k == 2 and cfg.heads == 2 and cfg.head_dim == 2
    assert cfg.stage == "gmm"
    assert cfg.tssa_pi_mode == "constant"  # default survives


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'colour'"):
        parse_config("seed = 1\ncolour = red\n")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError, match=r"line 3: duplicate key 'seed'"):
        parse_config("seed = 1\n# note\nseed = 2\n")


def test_parse_rejects_bad_shape():
    with pytest.raises(ConfigError, match="dims like"):
        parse_config("f1_shape = 1x64x\n")


def test_parse_rejects_bad_int():
    with pytest.raises(ConfigError, match="expects an integer"):
        parse_config("heads = two\n")


def test_parse_rejects_bare_line():
    with pytest.raises(ConfigError, match="expected key = value"):
        parse_config("seedless\n")


def test_validate_stage_and_pi_mode():
    with pytest.raises(ConfigError, match="stage must be one of"):
        tiny_cfg(stage="warp").validate()
    with pytest.raises(ConfigError, match="tssa_pi_mode"):
        tiny_cfg(tssa_pi_mode="sometimes").validate()


def test_validate_k_divides_channels():
    with pytest.raises(ConfigError, match="divide"):
        tiny_cfg(k=3).validate()


def test_validate_seed_range():
    with pytest.raises(ConfigError, match="64-bit"):
        tiny_cfg(seed=-1).validate()
    with pytest.raises(ConfigError, match="64-bit"):
        tiny_cfg(seed=1 << 64).validate()


def test_apply_overrides():
    cfg = apply_overrides(tiny_cfg(), seed=9, stage="full", out_dir="elsewhere")
    assert (cfg.seed, cfg.stage, cfg.out_dir) == (9, "full", "elsewhere")
    same = apply_overrides(cfg, seed=None, stage=None, out_dir=None)
    assert same == cfg


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config("/nonexistent/path.cfg")


# ---------------------------------------------------------------------------
# parameter initialisation
# ---------------------------------------------------------------------------

def test_init_same_seed_reproduces_every_tensor():
    a = init_pipeline(5, 4, 4, 6, 6, k=2, heads=2, head_dim=2, seff_base=4)
    b = init_pipeline(5, 4, 4, 6, 6, k=2, heads=2, head_dim=2, seff_base=4)
    ta, tb = dict(all_tensors(a)), dict(all_tensors(b))
    assert ta.keys() == tb.keys()
    for name in ta:
        assert np.array_equal(ta[name], tb[name]), name


def test_init_different_seeds_differ():
    a = dict(all_tensors(init_pipeline(5, 4, 4, 6, 6, k=2, heads=2,
                                       head_dim=2, seff_base=4)))
    b = dict(all_tensors(init_pipeline(6, 4, 4, 6, 6, k=2, heads=2,
                                       head_dim=2, seff_base=4)))
    assert any(not np.array_equal(a[n], b[n]) for n in a)


def test_record_leaves_are_the_fields_not_fixed_in_declaration_order():
    assert list(param_leaves(init_tssa(1, "t", 4, heads=2, head_dim=2))) == [
        "qkv_weight", "out_weight", "out_bias"]
    assert list(param_leaves(init_gmm(1, "g", 4, 6, 6, k=2))) == [
        "pos_w", "col_conv_weight", "col_conv_bias", "col_bn_scale",
        "col_bn_shift", "col_fuse_weight", "col_fuse_bias", "pos_h",
        "row_conv_weight", "row_conv_bias", "row_bn_scale", "row_bn_shift",
        "row_fuse_weight", "row_fuse_bias"]
    p = init_pipeline(5, 4, 4, 6, 6, k=2, heads=2, head_dim=2, seff_base=4)
    assert len(param_leaves(p)) == 80
    assert structural_fields(p) == {
        "gmm.k": 2, "dmm.ftssa.tssa.heads": 2,
        "dmm.ftssa.tssa.head_dim": 2, "dmm.ftssa.tssa.pi_mode": "constant"}


def test_adding_zero_gradients_keeps_leaves_and_fixed_fields():
    p = init_pipeline(5, 4, 4, 6, 6, k=2, heads=2, head_dim=2, seff_base=4)
    zero = zeros_like_params(p)
    assert not any(np.any(v) for v in param_leaves(zero).values())
    q = add_params(p, zero)
    assert type(q) is type(p)
    assert list(param_leaves(q)) == list(param_leaves(p))
    # every numeric field, learnable or fixed (batch-norm moments, eps values)
    want, got = all_tensors(p), all_tensors(q)
    assert list(got) == list(want)
    assert all(np.array_equal(got[key], want[key]) for key in want)
    assert structural_fields(q) == structural_fields(p)
    assert q.gmm.col_bn_var is p.gmm.col_bn_var


def test_init_skip_scale_starts_tiny():
    assert init_mona(1, "m", 8).skip_scale == 1e-6


def test_init_fan_in_bound():
    # fan-in 16 implies weights drawn from [-0.25, 0.25)
    p = init_mona(2, "m", 16)
    w = p.down_weight  # fan_in = c = 16
    assert np.max(np.abs(w)) <= 0.25
    assert np.max(np.abs(w)) > 0.2  # the draw actually fills the band


# ---------------------------------------------------------------------------
# stage execution
# ---------------------------------------------------------------------------

def test_run_writes_stage_tensor_and_summary(tmp_path):
    cfg = tiny_cfg(stage="full", out_dir=str(tmp_path / "out"))
    res = pipeline.run(cfg)
    assert res.output.shape == (1, 4, 6, 6)
    assert os.path.exists(res.out_path)
    assert np.array_equal(read_tensor(res.out_path), res.output)
    text = open(res.summary_path).read()
    assert "stage = full" in text
    assert "seed = 5" in text
    assert "output_shape = 1x4x6x6" in text
    assert "timing" in text  # excluded from the determinism contract


def test_run_is_deterministic_in_process(tmp_path):
    cfg = tiny_cfg(stage="full", out_dir=str(tmp_path / "a"))
    r1 = pipeline.run(cfg)
    r2 = pipeline.run(dataclasses.replace(cfg, out_dir=str(tmp_path / "b")))
    assert np.array_equal(r1.output, r2.output)


def test_run_stage_dpam_zero_rig_gives_flat_map(tmp_path, monkeypatch):
    # zeroed map-head weights force sigmoid(0): the stage output must be
    # exactly 0.5 everywhere
    real = pipeline.build_params

    def rigged(cfg):
        p = real(cfg)
        return dataclasses.replace(p, dpam=zeros_like_params(p.dpam))

    monkeypatch.setattr(pipeline, "build_params", rigged)
    cfg = tiny_cfg(stage="dpam", out_dir=str(tmp_path / "out"))
    res = pipeline.run(cfg)
    assert np.array_equal(res.output, np.full((1, 4, 6, 6), 0.5))


def test_run_stage_gdim_matches_reference(tmp_path):
    cfg = tiny_cfg(stage="gdim", out_dir=str(tmp_path / "out"))
    res = pipeline.run(cfg)
    params = pipeline.build_params(cfg)
    f1 = stream(cfg.seed, "input.f1").uniform(cfg.f1_shape, -1.0, 1.0)
    f2 = stream(cfg.seed, "input.f2").uniform(cfg.f2_shape, -1.0, 1.0)
    want = orc.gdim_ref(f1, f2, params.gmm, params.dmm, params.agg)
    assert np.max(np.abs(res.output - want)) < 1e-9


def test_run_stage_ftssa_uses_primary_input_only(tmp_path):
    cfg = tiny_cfg(stage="ftssa", out_dir=str(tmp_path / "out"))
    res = pipeline.run(cfg)
    params = pipeline.build_params(cfg)
    f1 = stream(cfg.seed, "input.f1").uniform(cfg.f1_shape, -1.0, 1.0)
    from mgdfis.ftssa import ftssa
    assert np.array_equal(res.output, ftssa(f1, params.dmm.ftssa))


@pytest.mark.parametrize("stage", ["gmm", "dmm", "gdim", "dpam", "full"])
def test_dpam_and_full_stages_equal_public_composition(stage):
    # f2 differs from f1 in dims and channels, so it goes through the
    # resample-and-project reconcile that the stage runs only once
    from mgdfis.dpam import dpam, mgdfis_fuse
    from mgdfis.gdim import aggregate, dmm, gdim, gmm
    cfg = tiny_cfg(stage=stage, f2_shape=(1, 6, 3, 3))
    params = pipeline.build_params(cfg)
    f1, f2 = pipeline.load_inputs(cfg)
    f_agg = aggregate(f1, f2, params.agg)
    f_gmm = gmm(f_agg, params.gmm)
    f_hat = gdim(f1, f2, params.gmm, params.dmm, params.agg)
    amap = dpam(f_agg, f_hat, params.dpam)
    want = {"gmm": f_gmm, "dmm": dmm(f_gmm, params.dmm), "gdim": f_hat,
            "dpam": amap,
            "full": mgdfis_fuse(amap, f_hat, f1, f2, params.fusion, params.agg),
            }[stage]
    got = pipeline.execute_stage(cfg, params, f1, f2, threads=1)
    assert np.array_equal(got, want)


def test_stage_submodules_are_not_shadowed():
    import importlib
    import types
    for name in ("ftssa", "gdim", "dpam"):
        mod = importlib.import_module("mgdfis." + name)
        assert isinstance(mod, types.ModuleType)
        # `import mgdfis.<name> as m` binds the package attribute
        assert isinstance(getattr(importlib.import_module("mgdfis"), name),
                          types.ModuleType)


def test_run_loads_input_files(tmp_path):
    f1 = stream(99, "alt.f1").uniform((1, 4, 6, 6), -1.0, 1.0)
    path = tmp_path / "f1.mgdt"
    write_tensor(path, f1)
    cfg = tiny_cfg(stage="ftssa", out_dir=str(tmp_path / "out"),
                   f1_path=str(path))
    res = pipeline.run(cfg)
    from mgdfis.ftssa import ftssa
    params = pipeline.build_params(cfg)
    assert np.array_equal(res.output, ftssa(f1, params.dmm.ftssa))


def test_run_rejects_input_with_wrong_dims(tmp_path):
    path = tmp_path / "f1.mgdt"
    write_tensor(path, np.zeros((1, 4, 5, 6)))
    cfg = tiny_cfg(stage="ftssa", out_dir=str(tmp_path / "out"),
                   f1_path=str(path))
    with pytest.raises(ShapeError, match="input"):
        pipeline.run(cfg)


def test_batch_thread_pool_matches_serial(tmp_path, monkeypatch):
    # at the second input's size a batched evaluation would round
    # differently from the per-item one
    for f1_shape, f2_shape in [((3, 4, 6, 6), (3, 4, 6, 6)),
                               ((2, 16, 8, 8), (2, 16, 4, 4))]:
        cfg = tiny_cfg(stage="full", out_dir=str(tmp_path / "a"),
                       f1_shape=f1_shape, f2_shape=f2_shape)
        monkeypatch.delenv("MGDFIS_THREADS", raising=False)
        serial = pipeline.run(cfg).output
        monkeypatch.setenv("MGDFIS_THREADS", "3")
        threaded = pipeline.run(dataclasses.replace(
            cfg, out_dir=str(tmp_path / "b"))).output
        assert np.array_equal(serial, threaded), f1_shape


def test_summary_statistics_are_plain_floats(tmp_path):
    res = pipeline.run(tiny_cfg(stage="full", out_dir=str(tmp_path / "out")))
    with open(res.summary_path) as fh:
        fields = dict(line.split(" = ", 1) for line in fh.read().splitlines()
                      if " = " in line)
    assert float(fields["output_min"]) == res.output.min()
    assert float(fields["output_max"]) == res.output.max()
    assert float(fields["output_mean"]) == res.output.mean()


def test_dump_params_writes_manifest(tmp_path):
    cfg = tiny_cfg(out_dir=str(tmp_path / "out"))
    pdir = pipeline.dump_params(cfg)
    manifest = open(os.path.join(pdir, "manifest.txt")).read()
    assert "seed = 5" in manifest
    assert "[tensors]" in manifest and "[constants]" in manifest
    files = [f for f in os.listdir(pdir) if f.endswith(".mgdt")]
    assert files
    one = read_tensor(os.path.join(pdir, files[0]))
    assert np.all(np.isfinite(one))


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _write_cfg(tmp_path, text=TINY):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_cli_run_roundtrip(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    out = str(tmp_path / "out")
    code = cli.main(["run", "--config", cfg_path, "--stage", "gmm",
                     "--out", out])
    assert code == 0
    assert "stage gmm" in capsys.readouterr().out
    assert os.path.exists(os.path.join(out, "gmm.mgdt"))
    assert os.path.exists(os.path.join(out, "summary.txt"))


def test_cli_seed_override_changes_output(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["run", "--config", cfg_path, "--out", a]) == 0
    assert cli.main(["run", "--config", cfg_path, "--out", b,
                     "--seed", "77"]) == 0
    ta = read_tensor(os.path.join(a, "gmm.mgdt"))
    tb = read_tensor(os.path.join(b, "gmm.mgdt"))
    assert not np.array_equal(ta, tb)


def test_cli_bad_config_exits_one(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, "stage = warp\n")
    assert cli.main(["run", "--config", cfg_path]) == 1
    assert "stage" in capsys.readouterr().err


def test_cli_missing_config_exits_two(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1
    # load failures surface as configuration errors, not raw I/O
    assert "cannot read config" in capsys.readouterr().err


def test_cli_corrupt_input_tensor_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.mgdt"
    bad.write_bytes(b"XXXX\x01\x00\x00")
    cfg_path = _write_cfg(tmp_path, TINY + f"f1_path = {bad}\n")
    assert cli.main(["run", "--config", cfg_path]) == 2
    assert "magic" in capsys.readouterr().err


def test_cli_wrong_input_dims_exit_three(tmp_path, capsys):
    alt = tmp_path / "alt.mgdt"
    write_tensor(alt, np.zeros((1, 4, 5, 6)))
    cfg_path = _write_cfg(tmp_path, TINY + f"f1_path = {alt}\n")
    assert cli.main(["run", "--config", cfg_path]) == 3
    capsys.readouterr()


def test_cli_complex_input_exits_three(tmp_path, capsys):
    # the imaginary part must not be dropped by a silent cast to float64
    alt = tmp_path / "f1.mgdt"
    f1 = stream(99, "alt.f1").uniform((1, 4, 6, 6), -1.0, 1.0)
    write_tensor(alt, f1 + 1j * f1)
    cfg_path = _write_cfg(tmp_path, TINY + f"f1_path = {alt}\n")
    assert cli.main(["run", "--config", cfg_path]) == 3
    assert "input: axis 'dtype' expected real" in capsys.readouterr().err


def test_cli_batch_mismatch_in_config_exits_one(tmp_path, capsys):
    text = TINY.replace("f1_shape = 1x4x6x6", "f1_shape = 2x4x6x6")
    cfg_path = _write_cfg(tmp_path, text)
    assert cli.main(["run", "--config", cfg_path]) == 1
    assert "batch" in capsys.readouterr().err


def test_cli_input_file_batch_mismatch_exits_three(tmp_path, capsys):
    alt = tmp_path / "f2.mgdt"
    write_tensor(alt, np.zeros((1, 4, 6, 6)))
    text = TINY.replace("1x4x6x6", "2x4x6x6") + f"f2_path = {alt}\n"
    cfg_path = _write_cfg(tmp_path, text)
    assert cli.main(["run", "--config", cfg_path]) == 3
    assert "batch" in capsys.readouterr().err


def test_cli_bad_thread_count_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MGDFIS_THREADS", "abc")
    cfg_path = _write_cfg(tmp_path)
    assert cli.main(["run", "--config", cfg_path,
                     "--out", str(tmp_path / "out")]) == 1
    assert "MGDFIS_THREADS" in capsys.readouterr().err


def test_cli_oversize_config_exits_one(tmp_path, capsys):
    # the attention projection would take 284 PiB, so allocation fails at once
    text = (TINY.replace("heads = 2", "heads = 100000000")
            .replace("head_dim = 2", "head_dim = 100000000"))
    cfg_path = _write_cfg(tmp_path, text)
    assert cli.main(["run", "--config", cfg_path,
                     "--out", str(tmp_path / "out")]) == 1
    assert "too large to allocate" in capsys.readouterr().err


def _fuzz_input(rng, path, shape, kind):
    """Write an input file of `kind` for a config expecting `shape`: a valid
    tensor, one with wrong dims, or a valid one cut short or with one byte
    overwritten; returns the exit codes a valid config may end in."""
    dims = shape if kind != "dims" else shape[:3] + (shape[3] + 1,)
    write_tensor(path, rng.uniform(-1.0, 1.0, dims))
    raw = bytearray(path.read_bytes())
    if kind == "truncated":
        path.write_bytes(raw[:int(rng.integers(0, len(raw)))])
        return {2}
    if kind == "corrupt":
        raw[int(rng.integers(0, len(raw)))] = int(rng.integers(0, 256))
        path.write_bytes(raw)
        return {0, 2}
    return {0} if kind == "valid" else {3}


def test_cli_fuzz_ends_in_documented_exit_codes(tmp_path, capsys, monkeypatch):
    # a seeded sweep of small configs and input files through the whole CLI:
    # every run ends in a documented exit code, never a traceback, and a run
    # that succeeds writes a finite map with the first input's dims
    monkeypatch.delenv("MGDFIS_THREADS", raising=False)
    rng = np.random.default_rng(20)
    out = tmp_path / "out"
    seen = set()
    for case in range(200):
        n = int(rng.integers(1, 3))
        f1 = (n,) + tuple(int(d) for d in rng.integers(1, [9, 10, 10]))
        f2 = f1
        if rng.random() < 0.6:  # a smaller or larger f2, rarely another batch
            f2 = ((n if rng.random() < 0.95 else 3 - n),) + tuple(
                int(d) for d in rng.integers(1, [9, 10, 10]))
        divisors = [k for k in range(1, f1[1] + 1) if f1[1] % k == 0]
        keys = {
            "seed": case, "f1_shape": f1, "f2_shape": f2,
            "k": int(rng.choice(divisors) if rng.random() < 0.85
                     else rng.integers(0, 6)),
            "heads": int(rng.integers(1, 5)), "head_dim": int(rng.integers(1, 5)),
            "mona_ratio": int(rng.integers(1, 9)), "mlp_ratio": int(rng.integers(1, 9)),
            "seff_base_resolution": int(rng.integers(1, 9)),
            "tssa_pi_mode": str(rng.choice(["constant", "distribution"])),
            "stage": str(rng.choice(["ftssa", "gmm", "dmm", "gdim", "dpam", "full"])),
        }
        kind = rng.choice(["none", "valid", "dims", "truncated", "corrupt"],
                          p=[0.6, 0.1, 0.1, 0.1, 0.1])
        allowed = {0}
        if case % 40 == 39:  # sizes whose first allocation fails at once
            big, kind, allowed = 10 ** 8, "none", {1}
            if case % 80 == 39:
                keys.update(heads=big, head_dim=big)
            else:
                keys["f1_shape"] = (n, f1[1], big, big)
        if kind != "none":
            keys["f1_path"] = tmp_path / "f1.mgdt"
            allowed = _fuzz_input(rng, keys["f1_path"], f1, kind)
        text = "".join(f"{key} = {'x'.join(map(str, v)) if isinstance(v, tuple) else v}\n"
                       for key, v in keys.items())
        try:
            cfg = parse_config(text)
        except ConfigError:
            cfg, allowed = None, {1}
        code = cli.main(["run", "--config", _write_cfg(tmp_path, text),
                         "--out", str(out)])
        assert code in allowed, (case, text, capsys.readouterr().err)
        seen.add(code)
        if code == 0:
            res = read_tensor(out / f"{cfg.stage}.mgdt")
            assert res.shape == cfg.f1_shape and np.all(np.isfinite(res)), text
        capsys.readouterr()
    assert seen == {0, 1, 2, 3}


def test_cli_usage_error_exits_one(capsys):
    assert cli.main(["run", "--config"]) == 1
    assert cli.main(["no-such-command"]) == 1
    capsys.readouterr()


def test_cli_bench_small_counts(capsys):
    assert cli.main(["bench-tssa", "--tokens", "64,128"]) == 0
    out = capsys.readouterr().out
    assert "tokens" in out and "64" in out and "128" in out


def test_cli_bench_single_count_prints_no_ratio(capsys):
    assert cli.main(["bench-tssa", "--tokens", "64"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert any("-" in l for l in lines[1:])  # ratio column shows a dash


def test_cli_bench_rejects_bad_tokens(capsys):
    assert cli.main(["bench-tssa", "--tokens", "64,abc"]) == 1
    assert "comma-separated" in capsys.readouterr().err


def test_cli_flops_reports_totals(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    assert cli.main(["flops", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "total" in out
    assert "ablation totals" in out
    assert "+dpam" in out


def test_cli_dump_params(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    out = str(tmp_path / "out")
    assert cli.main(["dump-params", "--config", cfg_path, "--out", out]) == 0
    assert "manifest" in capsys.readouterr().out


def test_console_entry_point_runs():
    # the child finds the package where this process did, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "mgdfis.cli", "--help"],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "bench-tssa" in proc.stdout
