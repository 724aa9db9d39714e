"""Each VJP runs its forward once: a backward pass evaluates exactly the
forward convolutions of one forward evaluation of the same op (a conv VJP
evaluates none), and a composite's forward calls each child op it names."""

from collections import Counter

import numpy as np
import pytest

from mgdfis import checks, ftssa, gdim, ops, pipeline
from mgdfis.params import (init_aggregate, init_dmm, init_gmm, init_pipeline,
                           init_tssa)
from mgdfis.rng import stream
from test_ops import _SPEC_CASES


def _count(calls, fn, *args):
    """The number of forward conv calls fn(*args) makes (the conv_calls fixture)."""
    calls.clear()
    fn(*args)
    return len(calls)


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
    # the 4x6 and 6x4 directional convs run as one folded 6x6 conv, and each
    # of the two Mona adapters runs its dw3/dw5/dw7 as one folded 7x7 conv
    assert n_fwd == 18
    assert n_vjp == n_fwd


def test_full_vjp_runs_exactly_one_forward(conv_calls):
    c = 4
    f1 = stream(1, "rc.f1").uniform((1, c, 6, 6), -1.0, 1.0)
    f2 = stream(1, "rc.f2").uniform((1, 6, 3, 3), -1.0, 1.0)
    p = init_pipeline(1, c, 6, 6, 6, k=2, heads=2, head_dim=2, seff_base=4)
    n_fwd = _count(conv_calls, pipeline.full, f1, f2, p)
    n_vjp = _count(conv_calls, pipeline.full_vjp, f1, f2, p, np.ones_like(f1))
    # gdim's 18 and dpam's 7x7; f2 is reconciled once, for aggregate and fuse
    assert n_fwd == 19
    assert n_vjp == n_fwd


def test_gdim_composes_the_public_ops(monkeypatch):
    # each composite calls its children by public name, through the module
    # binding, so wrapping that binding sees every call
    counts = Counter()
    named = {ftssa: ("dyt", "tssa", "seff", "spectral_filter", "mona", "xmona",
                     "mona_op", "daff", "serr"),
             gdim: ("ftssa", "aggregate", "gmm", "dmm", "dmm_directional",
                    "dmm_attention")}
    for mod, names in named.items():
        for name in names:
            def counting(*args, _real=getattr(mod, name), _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(mod, name, counting)
    # ftssa runs daff and serr, each one dyt and one mona (xmona + mona_op),
    # and seff one spectral filter per branch
    want = {name: 1 for names in named.values() for name in names}
    want.update(dyt=2, mona=2, xmona=2, mona_op=2, spectral_filter=2)
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


def test_tssa_vjp_runs_softmax_only_in_its_forward(monkeypatch):
    # 2500 tokens are three 1024-token blocks: the forward takes one softmax
    # per block, and the backward one softmax VJP per block on the head
    # distribution that block cached, with no softmax of its own
    counts = Counter()
    for name in ("softmax", "softmax_vjp"):
        def counting(*args, _real=getattr(ops, name), _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(ops, name, counting)
    x = stream(1, "rc.sm.x").uniform((1, 2, 50, 50), -1.0, 1.0)
    p = init_tssa(1, "rc.sm", 2, heads=2, head_dim=1, pi_mode="distribution")
    ftssa.tssa_vjp(x, p, np.ones_like(x))
    assert counts == {"softmax": 3, "softmax_vjp": 3}


@pytest.mark.parametrize("spec,shape", _SPEC_CASES)
def test_conv_vjp_makes_no_forward_conv_call(spec, shape, conv_calls):
    x = stream(1, "rc.cx").uniform(shape, -1.0, 1.0)
    w = stream(1, "rc.cw").uniform(spec.weight_shape, -1.0, 1.0)
    b = np.zeros(spec.out_channels)
    gy = np.ones((shape[0], spec.out_channels) + spec.output_hw(*shape[2:]))
    assert _count(conv_calls, ops.conv2d_vjp, x, w, b, spec, gy) == 0
