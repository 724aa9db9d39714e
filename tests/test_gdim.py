"""Mixing-module tests: input aggregation, channel-group column/row mixing,
directional detail capture with its pooled gate, and the composed module,
against trivial cases, the regroup bijection, and loop oracles."""

import dataclasses

import numpy as np
import pytest

import oracles as orc
from mgdfis import ops
from mgdfis.errors import ConfigError, ShapeError
from mgdfis.ftssa import ftssa
from mgdfis.gdim import (aggregate, dmm, dmm_attention, dmm_directional,
                         dmm_directional_vjp, gdim, gmm, regroup, restore)
from mgdfis.params import (init_aggregate, init_dmm, init_gmm,
                           zeros_like_params)
from mgdfis.rng import stream


def u(seed, label, shape, lo=-1.0, hi=1.0):
    return stream(seed, label).uniform(shape, lo, hi)


def _dmm_params(seed, c, mlp_ratio=4):
    return init_dmm(seed, "dm", c, heads=2, head_dim=2, mona_ratio=4,
                    mlp_ratio=mlp_ratio, seff_base=4)


# ---------------------------------------------------------------------------
# aggregate
# ---------------------------------------------------------------------------

def test_aggregate_zero_second_input_is_identity():
    f1 = u(1, "ag.f1", (1, 4, 3, 3))
    assert np.array_equal(aggregate(f1, np.zeros_like(f1)), f1)


def test_aggregate_equal_inputs_double():
    f = u(2, "ag.f", (2, 3, 4, 4))
    assert np.array_equal(aggregate(f, f), 2.0 * f)


def test_aggregate_mismatched_inputs_resample_and_project():
    f1 = u(3, "ag.f1", (1, 4, 8, 8))
    f2 = u(3, "ag.f2", (1, 8, 4, 4))
    p = init_aggregate(3, "ag.p", 4, 8)
    got = aggregate(f1, f2, p)
    assert got.shape == f1.shape
    assert np.max(np.abs(got - orc.aggregate_ref(f1, f2, p))) < 1e-10


def test_aggregate_mismatch_without_projection_params():
    with pytest.raises(ConfigError, match="projection parameters"):
        aggregate(np.zeros((1, 4, 8, 8)), np.zeros((1, 8, 4, 4)))


def test_aggregate_wrong_projection_channels():
    p = init_aggregate(4, "ag.p", 4, 8)
    with pytest.raises(ShapeError, match="channel"):
        aggregate(np.zeros((1, 4, 8, 8)), np.zeros((1, 6, 4, 4)), p)


# ---------------------------------------------------------------------------
# channel regrouping
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 4])
def test_regroup_restore_roundtrip(k):
    f = u(5, f"rg{k}", (2, 4, 3, 5))
    for axis in (2, 3):
        assert np.array_equal(restore(regroup(f, k, axis), k, axis), f)


def test_regroup_w_index_map():
    c, k = 4, 2
    f = u(6, "rg.f", (1, c, 2, 3))
    g = regroup(f, k, 3)
    assert g.shape == (1, c // k, 2, k * 3)
    for grp in range(k):
        for c2 in range(c // k):
            for y in range(2):
                for xx in range(3):
                    assert g[0, c2, y, grp * 3 + xx] == f[0, grp * (c // k) + c2, y, xx]


def test_regroup_h_index_map():
    c, k = 4, 2
    f = u(7, "rg.f", (1, c, 2, 3))
    g = regroup(f, k, 2)
    assert g.shape == (1, c // k, k * 2, 3)
    for grp in range(k):
        for c2 in range(c // k):
            for y in range(2):
                for xx in range(3):
                    assert g[0, c2, grp * 2 + y, xx] == f[0, grp * (c // k) + c2, y, xx]


# ---------------------------------------------------------------------------
# gmm
# ---------------------------------------------------------------------------

def test_gmm_k1_shape_and_determinism():
    p = init_gmm(8, "gm", 4, 6, 6, k=1)
    f = u(8, "gm.f", (1, 4, 6, 6))
    a = gmm(f, p)
    assert a.shape == (1, 4, 6, 6)
    assert np.array_equal(a, gmm(f, p))


def test_gmm_zero_params_zero_output():
    p = zeros_like_params(init_gmm(9, "gm", 4, 5, 5, k=2))
    assert np.max(np.abs(gmm(u(9, "gm.f", (1, 4, 5, 5)), p))) == 0.0


@pytest.mark.parametrize("k,shape", [(2, (1, 4, 4, 4)), (1, (2, 3, 3, 5)),
                                     (4, (1, 8, 3, 3))])
def test_gmm_matches_reference(k, shape):
    p = init_gmm(10 + k, "gm", shape[1], shape[2], shape[3], k=k)
    f = u(10 + k, "gm.f", shape)
    assert np.max(np.abs(gmm(f, p) - orc.gmm_ref(f, p))) < 1e-10


def test_gmm_wrong_spatial_dims_rejected():
    p = init_gmm(14, "gm", 4, 4, 4, k=2)
    with pytest.raises(ShapeError, match="pos_embed"):
        gmm(np.zeros((1, 4, 5, 4)), p)


def test_gmm_group_count_must_divide_channels():
    p = init_gmm(15, "gm", 4, 3, 3, k=2)
    with pytest.raises(ConfigError, match="divide"):
        gmm(np.zeros((1, 5, 3, 3)), p)


# ---------------------------------------------------------------------------
# dmm
# ---------------------------------------------------------------------------

def test_dmm_directional_zero_convs_is_identity():
    p = zeros_like_params(_dmm_params(16, 2))
    f = u(16, "dm.f", (1, 2, 6, 6))
    assert np.array_equal(dmm_directional(f, p), f)


def test_dmm_directional_zero_input_is_zero():
    p = _dmm_params(17, 2)  # conv biases init to zero
    assert np.max(np.abs(dmm_directional(np.zeros((1, 2, 6, 6)), p))) == 0.0


def test_dmm_directional_matches_reference():
    p = _dmm_params(18, 2)
    f = u(18, "dm.f", (1, 2, 6, 6))
    got = dmm_directional(f, p)
    assert np.max(np.abs(got - orc.dmm_directional_ref(f, p))) < 1e-10


@pytest.mark.parametrize("hw", [(1, 1), (2, 3), (6, 6)])
def test_dmm_directional_fold_equals_the_two_convs(hw):
    # the folded 6x6 kernel stands for conv4x6 + conv6x4, in the output, the
    # input gradient and every conv leaf's gradient, biases included
    p = _dmm_params(20, 3)
    p = dataclasses.replace(p, conv46_bias=u(20, "dm.b46", (3,)),
                            conv64_bias=u(20, "dm.b64", (3,)))
    f = u(20, "dm.f", (2, 3) + hw)
    gy = u(20, "dm.gy", f.shape)
    convs = {kk: (getattr(p, f"conv{kk}_weight"), getattr(p, f"conv{kk}_bias"),
                  ops.same_spec(3, int(kk[0]), int(kk[1]))) for kk in ("46", "64")}
    want = f + sum(ops.conv2d(f, *conv) for conv in convs.values())
    assert np.max(np.abs(dmm_directional(f, p) - want)) < 1e-12
    gf, gp = dmm_directional_vjp(f, p, gy)
    want_gf = gy
    for kk, conv in convs.items():
        g, gw, gb = ops.conv2d_vjp(f, *conv, gy)
        want_gf = want_gf + g
        for name, want_g in ((f"conv{kk}_weight", gw), (f"conv{kk}_bias", gb)):
            assert getattr(gp, name).shape == want_g.shape, name
            assert np.max(np.abs(getattr(gp, name) - want_g)) < 1e-12, name
    assert np.max(np.abs(gf - want_gf)) < 1e-12


def test_dmm_attention_zero_params_zero_gate():
    p = zeros_like_params(_dmm_params(19, 2))
    gate = dmm_attention(u(19, "dm.f", (1, 2, 4, 4)), p)
    assert gate.shape == (1, 2, 1, 1)
    assert np.max(np.abs(gate)) == 0.0


def _identity_ftssa(c):
    """Attention-stage params under which ftssa(f) is exactly f: everything
    zero but the Mona skips, which become identity maps."""
    p = zeros_like_params(_dmm_params(20, c).ftssa)
    skip = dataclasses.replace(p.mona1, skip_weight=np.eye(c), skip_scale=1.0)
    return dataclasses.replace(p, mona1=skip, mona2=skip)


def test_dmm_attention_identity_mlp_gates_on_pooled_mean():
    # an identity attention stage and identity affine layers: the gate
    # collapses to silu(gelu(channel mean))
    c = 2
    p = dataclasses.replace(_dmm_params(20, c, mlp_ratio=1),
                            ftssa=_identity_ftssa(c),
                            mlp_w1=np.eye(c), mlp_b1=np.zeros(c),
                            mlp_w2=np.eye(c), mlp_b2=np.zeros(c))
    f = u(20, "dm.f", (2, c, 4, 4))
    assert np.array_equal(ftssa(f, p.ftssa), f)
    gate = dmm_attention(f, p)
    want = ops.silu(ops.gelu(f.mean(axis=(2, 3))))[:, :, None, None]
    assert np.max(np.abs(gate - want)) < 1e-12


def test_dmm_attention_matches_reference():
    p = _dmm_params(21, 2)
    f = u(21, "dm.f", (1, 2, 4, 4))
    got = dmm_attention(f, p)
    assert np.max(np.abs(got - orc.dmm_attention_ref(f, p))) < 1e-10


def test_dmm_gate_hooks():
    p = _dmm_params(22, 2)
    f = u(22, "dm.f", (1, 2, 6, 6))
    # a zero last layer gives silu(0) = 0, a closed gate
    shut = dataclasses.replace(p, mlp_w2=np.zeros_like(p.mlp_w2),
                               mlp_b2=np.zeros_like(p.mlp_b2))
    assert np.max(np.abs(dmm(f, shut))) == 0.0
    f_add = dmm_directional(f, p)
    assert np.array_equal(dmm(f, p), f_add * dmm_attention(f_add, p))


def test_dmm_matches_reference():
    p = _dmm_params(23, 2)
    f = u(23, "dm.f", (1, 2, 6, 6))
    assert np.max(np.abs(dmm(f, p) - orc.dmm_ref(f, p))) < 1e-10


# ---------------------------------------------------------------------------
# composed module
# ---------------------------------------------------------------------------

def test_gdim_zero_params_zero_output():
    gp = zeros_like_params(init_gmm(24, "gm", 4, 4, 4, k=2))
    dp = zeros_like_params(_dmm_params(24, 4))
    f1 = u(24, "gd.f1", (1, 4, 4, 4))
    f2 = u(24, "gd.f2", (1, 4, 4, 4))
    assert np.max(np.abs(gdim(f1, f2, gp, dp))) == 0.0


def test_gdim_preserves_primary_dims():
    gp = init_gmm(25, "gm", 8, 16, 16, k=2)
    dp = _dmm_params(25, 8)
    f1 = u(25, "gd.f1", (1, 8, 16, 16))
    f2 = u(25, "gd.f2", (1, 8, 16, 16))
    assert gdim(f1, f2, gp, dp).shape == (1, 8, 16, 16)


def test_gdim_matches_reference():
    gp = init_gmm(26, "gm", 4, 4, 4, k=2)
    dp = _dmm_params(26, 4)
    f1 = u(26, "gd.f1", (1, 4, 4, 4))
    f2 = u(26, "gd.f2", (1, 4, 4, 4))
    got = gdim(f1, f2, gp, dp)
    assert np.max(np.abs(got - orc.gdim_ref(f1, f2, gp, dp))) < 1e-9


def test_gdim_with_mismatched_secondary_matches_reference():
    gp = init_gmm(27, "gm", 4, 6, 6, k=2)
    dp = _dmm_params(27, 4)
    ap = init_aggregate(27, "ag", 4, 6)
    f1 = u(27, "gd.f1", (1, 4, 6, 6))
    f2 = u(27, "gd.f2", (1, 6, 3, 3))
    got = gdim(f1, f2, gp, dp, ap)
    assert np.max(np.abs(got - orc.gdim_ref(f1, f2, gp, dp, ap))) < 1e-9
