"""Each VJP runs its forward once: a backward pass evaluates exactly the
forward convolutions of one forward evaluation of the same op (a conv VJP
evaluates none), and a composite's forward calls each child op it names."""

from collections import Counter

import numpy as np
import pytest

from mgdfis import checks, dpam, ftssa, gdim, ops
from mgdfis.params import init_aggregate, init_dmm, init_gmm
from mgdfis.rng import stream
from test_ops import _SPEC_CASES


@pytest.fixture
def conv_calls(monkeypatch):
    """Count forward conv2d calls made through every module binding."""
    calls = [0]
    real = ops.conv2d

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    for mod in (ops, ftssa, gdim, dpam):
        monkeypatch.setattr(mod, "conv2d", counting)
    return calls


def _count(calls, fn, *args):
    calls[0] = 0
    fn(*args)
    return calls[0]


@pytest.mark.parametrize("name", list(checks.OP_CHECKS))
def test_backward_closure_runs_at_most_one_forward(name, conv_calls):
    fwd, bwd, leaves = checks.OP_CHECKS[name](1)
    n_bwd = _count(conv_calls, bwd, leaves)
    n_fwd = _count(conv_calls, fwd, leaves)
    if name in ("conv2d_depthwise", "conv2d_grouped_strided"):
        # a conv VJP runs no forward conv by design; see
        # test_conv_vjp_makes_no_forward_conv_call
        assert n_bwd <= n_fwd
    else:
        assert n_bwd == n_fwd


def test_gdim_vjp_runs_exactly_one_forward(conv_calls):
    c = 4
    f1 = stream(1, "rc.f1").uniform((1, c, 6, 6), -1.0, 1.0)
    f2 = stream(1, "rc.f2").uniform((1, 6, 3, 3), -1.0, 1.0)
    gp = init_gmm(1, "rc.gmm", c, 6, 6, k=2)
    dp = init_dmm(1, "rc.dmm", c, heads=2, head_dim=2, seff_base=4)
    ap = init_aggregate(1, "rc.agg", c, 6)
    n_fwd = _count(conv_calls, gdim.gdim, f1, f2, gp, dp, ap)
    n_vjp = _count(conv_calls, gdim.gdim_vjp, f1, f2, gp, dp, ap,
                   np.ones_like(f1))
    assert n_fwd == 23
    assert n_vjp == n_fwd


def test_gdim_composes_the_public_ops(monkeypatch):
    # each composite calls its children by public name, through the module
    # binding, so wrapping that binding sees every call
    counts = Counter()
    named = {ftssa: ("dyt", "tssa", "seff", "mona", "xmona", "mona_op", "daff",
                     "serr"),
             gdim: ("ftssa", "aggregate", "gmm", "dmm", "dmm_directional",
                    "dmm_attention")}
    for mod, names in named.items():
        for name in names:
            def counting(*args, _real=getattr(mod, name), _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(mod, name, counting)
    # ftssa runs daff and serr, each one dyt and one mona (xmona + mona_op)
    want = {name: 1 for names in named.values() for name in names}
    want.update(dyt=2, mona=2, xmona=2, mona_op=2)
    c = 2
    args = (stream(1, "rc.f1").uniform((1, c, 3, 3), -1.0, 1.0),
            stream(1, "rc.f2").uniform((1, 3, 2, 2), -1.0, 1.0),
            init_gmm(1, "rc.gmm", c, 3, 3, k=2),
            init_dmm(1, "rc.dmm", c, heads=2, head_dim=1, seff_base=2),
            init_aggregate(1, "rc.agg", c, 3))
    for call in (lambda: gdim.gdim(*args),
                 lambda: gdim.gdim_vjp(*args, np.ones((1, c, 3, 3)))):
        counts.clear()
        call()
        assert counts == want


@pytest.mark.parametrize("spec,shape", _SPEC_CASES)
def test_conv_vjp_makes_no_forward_conv_call(spec, shape, conv_calls):
    x = stream(1, "rc.cx").uniform(shape, -1.0, 1.0)
    w = stream(1, "rc.cw").uniform(spec.weight_shape, -1.0, 1.0)
    b = np.zeros(spec.out_channels)
    gy = np.ones((shape[0], spec.out_channels) + spec.output_hw(*shape[2:]))
    assert _count(conv_calls, ops.conv2d_vjp, x, w, b, spec, gy) == 0
