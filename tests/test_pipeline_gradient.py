"""The end-to-end gradient where shapes vary: the chain of public VJPs that
differentiates <gy, mgdfis_fuse(dpam(aggregate, gdim), gdim, f1, f2)> into
f1, f2 and every parameter, checked along one random direction per seeded
geometry against a central difference of the loss."""

import numpy as np

from mgdfis import dpam as D
from mgdfis import gdim as G
from mgdfis.checks import _jitter
from mgdfis.params import (PipelineParams, add_params, init_pipeline,
                           param_leaves, replace_leaves)

EPS = 1e-5
TOL = 1e-6


def _geometries(count=300, seed=19):
    """Seeded pipeline geometries: k in {1, 2, 4}, C1 = k or 2k, C2 in 1..3,
    1-2 heads of 1-3 channels, both pi modes, seff base 1-4, maps of 1-9 per
    side (every other f1 of even width, so seff's Nyquist column carries a
    gradient), and every fourth f2 shaped like f1."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        k = int(rng.choice([1, 2, 4]))
        c1 = k * int(rng.integers(1, 3))
        h1 = int(rng.integers(1, 10))
        w1 = 2 * int(rng.integers(1, 5)) if t % 2 else int(rng.integers(1, 10))
        f1 = (1, c1, h1, w1)
        f2 = f1 if t % 4 == 3 else (1, int(rng.integers(1, 4)),
                                     *(int(s) for s in rng.integers(1, 10, 2)))
        yield t, f1, f2, dict(
            k=k, heads=int(rng.integers(1, 3)), head_dim=int(rng.integers(1, 4)),
            seff_base=int(rng.integers(1, 5)),
            pi_mode=("constant", "distribution")[t % 3 == 1])


def _forward(f1, f2, p):
    f_agg = G.aggregate(f1, f2, p.agg)
    f_hat = G.gdim(f1, f2, p.gmm, p.dmm, p.agg)
    amap = D.dpam(f_agg, f_hat, p.dpam)
    return f_agg, f_hat, amap, D.mgdfis_fuse(amap, f_hat, f1, f2, p.fusion, p.agg)


def _grads(f1, f2, p, gy):
    """Gradients of <gy, out> as one leaf dict: f1, f2 and param_leaves."""
    f_agg, f_hat, amap, _ = _forward(f1, f2, p)
    g_amap, g_hat, g1, g2, g_fusion, g_agg = D.mgdfis_fuse_vjp(
        amap, f_hat, f1, f2, p.fusion, p.agg, gy)
    g_fagg, g_hat2, g_dpam = D.dpam_vjp(f_agg, f_hat, p.dpam, g_amap)
    g1b, g2b, g_agg2 = G.aggregate_vjp(f1, f2, p.agg, g_fagg)
    g1c, g2c, g_gmm, g_dmm, g_agg3 = G.gdim_vjp(f1, f2, p.gmm, p.dmm, p.agg,
                                                g_hat + g_hat2)
    grads = PipelineParams(agg=add_params(add_params(g_agg, g_agg2), g_agg3),
                           gmm=g_gmm, dmm=g_dmm, dpam=g_dpam, fusion=g_fusion)
    return {"f1": g1 + g1b + g1c, "f2": g2 + g2b + g2c, **param_leaves(grads)}


def _directional_error(t, f1_shape, f2_shape, kw):
    rng = np.random.default_rng([19, t])
    p = _jitter(init_pipeline(t, f1_shape[1], f2_shape[1], *f1_shape[2:], **kw),
                t, "fz.pipe")
    base = {"f1": rng.uniform(-1.0, 1.0, f1_shape),
            "f2": rng.uniform(-1.0, 1.0, f2_shape), **param_leaves(p)}
    gy = rng.uniform(-1.0, 1.0, f1_shape)
    d = {key: rng.uniform(-1.0, 1.0, np.shape(v)) for key, v in base.items()}

    def loss(step):
        lv = {key: v + step * d[key] for key, v in base.items()}
        out = _forward(lv["f1"], lv["f2"], replace_leaves(p, lv))[-1]
        return float(np.sum(gy * out))

    grads = _grads(base["f1"], base["f2"], p, gy)
    assert grads.keys() == base.keys()
    analytic = sum(float(np.sum(grads[key] * d[key])) for key in base)
    numeric = (loss(EPS) - loss(-EPS)) / (2.0 * EPS)
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)


def test_pipeline_gradient_over_seeded_geometries():
    errors = [(_directional_error(t, f1, f2, kw), t, f1, f2, kw)
              for t, f1, f2, kw in _geometries()]
    worst = max(errors, key=lambda e: e[0])
    print(f"worst directional rel err {worst[0]:.2e} over {len(errors)} "
          f"geometries, at {worst[1:]}")
    assert worst[0] <= TOL, worst
