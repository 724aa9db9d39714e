"""Tests of the finite-difference checker itself: it must pass correct
gradients, flag wrong or missing ones with the offending leaf named, and the
per-op registry must stay complete."""

import numpy as np
import pytest

from mgdfis import checks
from mgdfis.gradcheck import grad_check
from mgdfis.ops import linear, linear_vjp
from mgdfis.rng import stream


def _leaves(seed):
    return {
        "x": stream(seed, "gc.x").uniform((3, 4), -1, 1),
        "w": stream(seed, "gc.w").uniform((4, 2), -1, 1),
        "b": stream(seed, "gc.b").uniform((2,), -1, 1),
    }


def _fwd(lv):
    return linear(lv["x"], lv["w"], lv["b"])


def _bwd(lv):
    gy = np.ones((3, 2))
    gx, gw, gb = linear_vjp(lv["x"], lv["w"], lv["b"], gy)
    return {"x": gx, "w": gw, "b": gb}


def test_correct_gradient_passes():
    rep = grad_check("linear", _fwd, _bwd, _leaves(1))
    assert rep.passed
    assert rep.checked == 3 * 4 + 4 * 2 + 2
    assert rep.max_rel_err < 1e-6
    assert rep.summary().startswith("pass")


def test_corrupted_backward_is_caught():
    def bad(lv):
        g = _bwd(lv)
        g["w"] = g["w"] + 0.05
        return g

    rep = grad_check("linear_bad", _fwd, bad, _leaves(1))
    assert not rep.passed
    assert rep.worst_leaf.startswith("w")
    assert rep.summary().startswith("FAIL")


def test_missing_leaf_gradient_is_reported():
    def partial(lv):
        g = _bwd(lv)
        del g["b"]
        return g

    rep = grad_check("linear_partial", _fwd, partial, _leaves(1))
    assert not rep.passed
    assert any("b: no analytic gradient" in m for m in rep.failures)


def test_unexpected_gradient_key_is_reported():
    def extra(lv):
        g = _bwd(lv)
        g["bias"] = g["b"]
        return g

    rep = grad_check("linear_extra", _fwd, extra, _leaves(1))
    assert not rep.passed
    assert any("bias: gradient returned for no leaf" in m for m in rep.failures)


def test_non_finite_gradient_is_reported():
    def poisoned(lv):
        g = _bwd(lv)
        g["x"] = g["x"].copy()
        g["x"][0, 0] = np.nan
        return g

    rep = grad_check("linear_nan", _fwd, poisoned, _leaves(1))
    assert not rep.passed
    assert any("non-finite" in m for m in rep.failures)


def test_constant_function_has_zero_gradients():
    # forward ignores the leaf: both analytic and numeric sides must be 0
    lv = {"x": np.array([0.3, -0.7])}
    rep = grad_check("const", lambda l: np.float64(4.0),
                     lambda l: {"x": np.zeros(2)}, lv)
    assert rep.passed
    assert rep.max_rel_err == 0.0


def test_shape_mismatch_is_reported():
    lv = {"x": np.zeros((2, 2))}
    rep = grad_check("shape", lambda l: l["x"].sum(),
                     lambda l: {"x": np.zeros(3)}, lv)
    assert not rep.passed
    assert any("shape" in m for m in rep.failures)


def test_registry_is_complete():
    assert len(checks.OP_CHECKS) == 29
    for expected in ("linear", "conv2d_depthwise", "conv2d_grouped_strided",
                     "softmax", "tssa", "tssa_distribution", "mona", "seff",
                     "daff", "serr", "ftssa", "gmm", "dmm", "dmm_directional",
                     "dmm_attention", "gdim", "dpam", "mgdfis_fuse",
                     "aggregate", "fft_filter", "dyt"):
        assert expected in checks.OP_CHECKS, expected


@pytest.mark.parametrize(
    "name", ["linear", "dyt", "global_avg_pool", "bilinear_resize"])
def test_registry_spot_checks_pass(name):
    rep = checks.run_check(name, seeds=3)
    assert rep.passed, rep.summary()


def test_run_check_merges_seeds():
    rep = checks.run_check("linear", seeds=2)
    one = checks.run_check("linear", seeds=1)
    assert rep.checked == 2 * one.checked
