"""Dense-primitive tests: convolution, linear, softmax, activations,
pooling, FFT and resampling, each against trivial cases, loop oracles, or
arbitrary-precision references."""

import math

import mpmath
import numpy as np
import pytest

import oracles as orc
from mgdfis import ops
from mgdfis.errors import ConfigError, ShapeError
from mgdfis.rng import stream

mpmath.mp.dps = 50


def u(seed, label, shape, lo=-1.0, hi=1.0):
    return stream(seed, label).uniform(shape, lo, hi)


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

def test_conv_identity_kernel():
    x = u(1, "ident.x", (2, 1, 3, 4))
    w = np.ones((1, 1, 1, 1))
    out = ops.conv2d(x, w, np.zeros(1), ops.ConvSpec(1, 1, 1, 1))
    assert np.array_equal(out, x)


def test_conv_ones_kernel_constant_field():
    c = 0.7
    x = np.full((1, 1, 5, 5), c)
    w = np.ones((1, 1, 3, 3))
    spec = ops.same_spec(1, 3, 3)
    out = ops.conv2d(x, w, np.zeros(1), spec)
    # interior pixels see all nine taps, the corner only four
    assert abs(out[0, 0, 2, 2] - 9 * c) < 1e-12
    assert abs(out[0, 0, 0, 0] - 4 * c) < 1e-12


def test_conv_depthwise_dilated_ramp_matches_loop_reference():
    x = np.arange(25, dtype=np.float64).reshape(1, 1, 5, 5)
    w = u(3, "dw.w", (1, 1, 3, 3), -0.5, 0.5)
    b = u(3, "dw.b", (1,), -0.5, 0.5)
    spec = ops.same_spec(1, 3, 3, groups=1, dilation=(2, 2))
    got = ops.conv2d(x, w, b, spec)
    want = orc.conv2d_ref(x, w, b, pad=(2, 2, 2, 2), dilation=(2, 2))
    assert np.max(np.abs(got - want)) < 1e-9


_SPEC_CASES = [
    (ops.ConvSpec(2, 3, 3, 3, padding=(1, 1, 1, 1)), (2, 2, 4, 5)),
    (ops.ConvSpec(4, 4, 3, 3, padding=(1, 1, 1, 1), groups=4), (1, 4, 5, 4)),
    (ops.ConvSpec(4, 2, 2, 2, stride=(2, 2)), (1, 4, 6, 6)),
    (ops.ConvSpec(6, 6, 3, 2, stride=(1, 2), padding=(1, 0, 1, 0),
                  groups=3), (2, 6, 4, 6)),
    (ops.ConvSpec(2, 2, 3, 3, padding=(2, 2, 2, 2), dilation=(2, 2)), (1, 2, 5, 5)),
    (ops.ConvSpec(3, 5, 4, 6, padding=(1, 2, 2, 3)), (1, 3, 6, 7)),
    # whole kernel rows and columns fall in the padding of the 3x3 map
    (ops.ConvSpec(2, 3, 7, 7, padding=(9, 9, 9, 9)), (2, 2, 3, 3)),
    # every output reads padding only, so the output is the bias
    (ops.ConvSpec(1, 2, 1, 1, stride=(1, 3), padding=(0, 0, 2, 2)), (1, 1, 2, 1)),
    # unpadded stride-1 1x1: the VJP reads gy and writes gx in place
    (ops.ConvSpec(4, 6, 1, 1, groups=2), (2, 4, 3, 5)),
]


@pytest.mark.parametrize("spec,shape", _SPEC_CASES)
def test_conv_matches_reference(spec, shape):
    seed = hash((spec.kernel_h, spec.kernel_w, shape)) % 1000
    x = u(seed, "cv.x", shape)
    w = u(seed, "cv.w", spec.weight_shape)
    b = u(seed, "cv.b", (spec.out_channels,))
    got = ops.conv2d(x, w, b, spec)
    want = orc.conv2d_ref(x, w, b, spec.stride, spec.padding,
                          spec.dilation, spec.groups)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-9


@pytest.mark.parametrize("spec,shape", _SPEC_CASES)
def test_conv_paths_agree(spec, shape):
    # the column-stack GEMM kernel against the scalar loop, to rounding
    x = u(11, "p.x", shape)
    w = u(11, "p.w", spec.weight_shape)
    b = u(11, "p.b", (spec.out_channels,))
    got = ops.conv2d(x, w, b, spec)
    want = orc.conv2d_ref(x, w, b, spec.stride, spec.padding,
                          spec.dilation, spec.groups)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("spec,shape", _SPEC_CASES)
def test_conv_vjp_is_adjoint(spec, shape):
    # <conv(x, w, 0), gy> is bilinear in (x, w): its partials are gx and gw,
    # so <x, gx> and <w, gw> both equal it, and gb is the plain sum of gy
    x = u(12, "adj.x", shape)
    w = u(12, "adj.w", spec.weight_shape)
    b = u(12, "adj.b", (spec.out_channels,))
    y = ops.conv2d(x, w, np.zeros(spec.out_channels), spec)
    gy = u(12, "adj.gy", y.shape)
    gx, gw, gb = ops.conv2d_vjp(x, w, b, spec, gy)
    assert gx.shape == x.shape and gw.shape == w.shape
    lhs = float(np.sum(y * gy))
    assert abs(float(np.sum(x * gx)) - lhs) < 1e-10
    assert abs(float(np.sum(w * gw)) - lhs) < 1e-10
    assert np.max(np.abs(gb - gy.sum(axis=(0, 2, 3)))) < 1e-12


def _fuzz_geometries(count=80, seed=5):
    """Seeded conv geometries: groups, strides (2, 1) and (1, 3), dilation
    along the width, unpadded kernels wider than one column, asymmetric and
    oversized padding, batch 2, and maps down to 1x1."""
    rng = np.random.default_rng(seed)
    strides = [(1, 1), (2, 1), (1, 3), (2, 2)]
    dilations = [(1, 1), (1, 2), (1, 3), (2, 1)]
    cases = []
    while len(cases) < count:
        k = len(cases)
        g = int(rng.integers(1, 4))
        kh, kw = int(rng.integers(1, 6)), int(rng.integers(2 if k % 5 == 0 else 1, 6))
        pad = (0, 0, 0, 0) if k % 5 == 0 else tuple(int(p) for p in rng.integers(0, 7, 4))
        spec = ops.ConvSpec(g * int(rng.integers(1, 3)), g * int(rng.integers(1, 3)),
                            kh, kw, stride=strides[k % 4], padding=pad,
                            dilation=dilations[k // 4 % 4], groups=g)
        hw = (1, 1) if k % 10 == 1 else tuple(int(s) for s in rng.integers(1, 7, 2))
        shape = (1 + k % 2, spec.in_channels) + hw
        try:
            spec.output_hw(*shape[2:])
        except ShapeError:
            continue
        cases.append((spec, shape))
    return cases


def _check_conv_cases(cases):
    for t, (spec, shape) in enumerate(cases):
        x = u(t, "fz.x", shape)
        w = u(t, "fz.w", spec.weight_shape)
        b = u(t, "fz.b", (spec.out_channels,))
        got = ops.conv2d(x, w, b, spec)
        want = orc.conv2d_ref(x, w, b, spec.stride, spec.padding,
                              spec.dilation, spec.groups)
        assert got.shape == want.shape, (spec, shape)
        assert np.max(np.abs(got - want)) < 1e-12, (spec, shape)
        gy = u(t, "fz.gy", got.shape)
        gx, gw, gb = ops.conv2d_vjp(x, w, b, spec, gy)
        lhs = float(np.sum((got - b[:, None, None]) * gy))
        assert abs(float(np.sum(x * gx)) - lhs) < 1e-10, (spec, shape)
        assert abs(float(np.sum(w * gw)) - lhs) < 1e-10, (spec, shape)
        assert np.max(np.abs(gb - gy.sum(axis=(0, 2, 3)))) < 1e-12, (spec, shape)


def test_conv_fuzz_matches_reference_and_adjoint():
    _check_conv_cases(_fuzz_geometries())


def test_conv_fuzz_in_row_blocks(monkeypatch):
    # a budget of a few entries splits every conv that allocates a stack
    # into blocks of a row or two, which pipeline-size maps no longer need;
    # each block of the dilated 2x1 conv has one tap that reads one row of two
    monkeypatch.setattr(ops, "_STACK_ENTRIES", 64)
    ops._conv_plan.cache_clear()  # plans are cached without the budget
    try:
        gapped = (ops.ConvSpec(1, 2, 2, 1, dilation=(3, 1)), (2, 1, 4, 8))
        blocks = ops._conv_plan(gapped[0], 4, 8)[3]
        assert [(b[0].stop - b[0].start, len(b[2])) for b in blocks] == [(2, 1), (2, 1)]
        _check_conv_cases(_fuzz_geometries() + [gapped])
    finally:
        ops._conv_plan.cache_clear()


def test_conv_channel_mismatch_names_axis():
    spec = ops.ConvSpec(3, 3, 1, 1)
    with pytest.raises(ShapeError, match="channel"):
        ops.conv2d(np.zeros((1, 2, 3, 3)), np.zeros((3, 3, 1, 1)),
                   np.zeros(3), spec)


def test_conv_bad_groups_rejected():
    with pytest.raises(ConfigError):
        ops.ConvSpec(3, 3, 3, 3, groups=2)


@pytest.mark.parametrize("field,value", [
    ("stride", (1,)), ("stride", 2), ("padding", (1, 1)), ("padding", (1, 1, 1, 1.5)),
    ("dilation", (2,)), ("dilation", (2, 2, 2))])
def test_conv_spec_rejects_malformed_tuples(field, value):
    with pytest.raises(ConfigError, match=f"ConvSpec.{field}"):
        ops.ConvSpec(1, 1, 3, 3, **{field: value})


def test_conv_spec_stores_int_tuples():
    spec = ops.ConvSpec(1, 1, 3, 3, stride=[1, np.int64(2)], padding=[1, 1, 1, 1],
                        dilation=[1, 1])
    assert (spec.stride, spec.padding, spec.dilation) == ((1, 2), (1, 1, 1, 1), (1, 1))
    assert ops.conv2d(np.ones((1, 1, 3, 4)), np.ones((1, 1, 3, 3)), np.zeros(1),
                      spec).shape == (1, 1, 3, 2)
    assert ops.same_spec(2, 3, 3, dilation=[2, 2]) == ops.same_spec(2, 3, 3, dilation=(2, 2))
    with pytest.raises(ConfigError, match="ConvSpec.dilation"):
        ops.same_spec(2, 3, 3, dilation=(2,))


def test_conv_output_smaller_than_kernel():
    spec = ops.ConvSpec(1, 1, 5, 5)
    with pytest.raises(ShapeError):
        ops.conv2d(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 5, 5)),
                   np.zeros(1), spec)


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------

def test_linear_identity():
    x = u(5, "li.x", (3, 4))
    out = ops.linear(x, np.eye(4), np.zeros(4))
    assert np.array_equal(out, x)


def test_linear_zero_input_gives_bias_rows():
    b = u(5, "li.b", (3,))
    out = ops.linear(np.zeros((4, 2)), np.zeros((2, 3)), b)
    assert np.array_equal(out, np.tile(b, (4, 1)))


def test_linear_matches_triple_loop():
    x = u(6, "lm.x", (3, 4))
    w = u(6, "lm.w", (4, 2))
    b = u(6, "lm.b", (2,))
    assert np.max(np.abs(ops.linear(x, w, b) - orc.linear_ref(x, w, b))) < 1e-9


def test_linear_inner_mismatch():
    with pytest.raises(ShapeError, match="inner"):
        ops.linear(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros(2))


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

def test_softmax_uniform():
    out = ops.softmax(np.array([1.0, 1.0, 1.0]), 0)
    assert np.max(np.abs(out - 1.0 / 3.0)) < 1e-15


def test_softmax_large_inputs_stable():
    out = ops.softmax(np.array([1000.0, 0.0]), 0)
    assert np.all(np.isfinite(out))
    assert out[0] > 1.0 - 1e-12 and out[1] < 1e-12


def test_softmax_matches_high_precision():
    x = [0.5, 1.5, -1.0]
    exps = [mpmath.exp(v) for v in x]
    total = sum(exps, mpmath.mpf(0))
    want = np.array([float(e / total) for e in exps])
    got = ops.softmax(np.array(x), 0)
    assert np.max(np.abs(got - want)) < 1e-15


def test_softmax_shift_invariant():
    x = np.array([0.25, -1.5, 2.0, 0.0])
    # offset chosen exactly representable so x + c introduces no rounding
    assert np.array_equal(ops.softmax(x, 0), ops.softmax(x + 4.0, 0))


def test_softmax_rows_sum_to_one():
    x = u(9, "sm.x", (3, 5, 4), -6.0, 6.0)
    for axis in (0, 1, 2, -1):
        s = ops.softmax(x, axis).sum(axis=axis)
        assert np.max(np.abs(s - 1.0)) < 1e-6


def test_softmax_bad_axis():
    with pytest.raises(ShapeError):
        ops.softmax(np.zeros((2, 2)), 5)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def test_activation_zero_points():
    z = np.zeros(1)
    assert ops.sigmoid(z)[0] == 0.5
    assert ops.silu(z)[0] == 0.0
    assert np.tanh(z)[0] == 0.0
    assert ops.gelu(z)[0] == 0.0


def test_activation_values_match_high_precision():
    one = mpmath.mpf(1)
    want_gelu = float(one / 2 * (1 + mpmath.erf(one / mpmath.sqrt(2))))
    want_silu = float(one / (1 + mpmath.exp(-one)))
    want_tanh = float(mpmath.tanh(one))
    x = np.array([1.0])
    assert abs(ops.gelu(x)[0] - want_gelu) < 1e-12
    assert abs(ops.silu(x)[0] - want_silu) < 1e-12
    assert abs(ops.activation("tanh", x)[0] - want_tanh) < 1e-12


def test_activation_kinds_and_dispatch():
    assert ops.ACTIVATIONS == ("tanh", "gelu", "silu", "sigmoid")
    x = u(2, "act.x", (7,), -3.0, 3.0)
    for kind in ops.ACTIVATIONS:
        got = ops.activation(kind, x)
        want = [getattr(orc, f"{kind}_ref")(float(v)) for v in x]
        assert np.max(np.abs(got - np.array(want))) < 1e-12
    with pytest.raises(ConfigError):
        ops.activation("relu", x)


def test_sigmoid_monotone_and_bounded():
    x = np.linspace(-30, 30, 301)
    y = ops.sigmoid(x)
    assert np.all(np.diff(y) > 0)
    assert np.all((y > 0) & (y < 1))


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

def test_gap_constant():
    out = ops.global_avg_pool(np.full((2, 3, 4, 5), 1.25))
    assert out.shape == (2, 3, 1, 1)
    assert np.array_equal(out, np.full((2, 3, 1, 1), 1.25))


def test_gap_small_mean():
    x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2)
    assert ops.global_avg_pool(x)[0, 0, 0, 0] == 2.5


def test_gap_matches_direct_summation():
    x = u(4, "gap.x", (2, 3, 4, 4))
    assert np.max(np.abs(ops.global_avg_pool(x) - orc.gap_ref(x))) < 1e-12


# ---------------------------------------------------------------------------
# fft2 / ifft2
# ---------------------------------------------------------------------------

def test_fft_constant_input_concentrates_at_dc():
    c = -0.3
    x = np.full((1, 1, 4, 6), c)
    spec = ops.fft2(x)
    assert abs(spec[0, 0, 0, 0] - c * 24) < 1e-9
    rest = spec.copy()
    rest[0, 0, 0, 0] = 0
    assert np.max(np.abs(rest)) < 1e-9


def test_fft_delta_gives_flat_spectrum():
    x = np.zeros((1, 1, 3, 5))
    x[0, 0, 0, 0] = 1.0
    assert np.max(np.abs(ops.fft2(x) - 1.0)) < 1e-12


def test_fft_matches_naive_dft():
    x = u(8, "fft.x", (1, 1, 6, 5))
    assert np.max(np.abs(ops.fft2(x) - orc.dft2_ref(x))) < 1e-9


def test_ifft_matches_naive_inverse():
    z = orc.dft2_ref(u(8, "ifft.x", (1, 1, 4, 3)))
    assert np.max(np.abs(ops.ifft2(z) - orc.idft2_real_ref(z))) < 1e-9


@pytest.mark.parametrize("h,w", [(1, 1), (2, 3), (5, 7), (13, 4), (16, 11)])
def test_fft_roundtrip_and_parseval(h, w):
    x = u(h * 31 + w, "rt.x", (1, 2, h, w))
    spec = ops.fft2(x)
    back = ops.ifft2(spec)
    scale = max(1.0, float(np.max(np.abs(x))))
    assert np.max(np.abs(back - x)) / scale < 1e-6
    lhs = float(np.sum(x * x))
    rhs = float(np.sum(np.abs(spec) ** 2)) / (h * w)
    assert abs(lhs - rhs) / max(lhs, 1e-30) < 1e-6


@pytest.mark.parametrize("h,w", [(1, 1), (3, 4), (5, 5), (4, 1)])
def test_real_fft_matches_complex_fft(h, w):
    # a half spectrum stands for the Hermitian spectrum it determines, so the
    # half-spectrum ops and VJPs agree with fft2/ifft2 on Hermitian spectra
    x = u(9, "rf.x", (2, 2, h, w))
    re, im = u(9, "rf.wr", (2, 3, 3)), u(9, "rf.wi", (2, 3, 3))
    weight = (ops.bilinear_resize(re[None], h, w)
              + 1j * ops.bilinear_resize(im[None], h, w))
    full, half = ops.fft2(x), ops.rfft2(x)
    assert np.max(np.abs(half - full[..., :w // 2 + 1])) < 1e-12
    got = ops.irfft2(ops.half_spectrum_weight(re, im, h, w) * half, w)
    assert np.max(np.abs(got - ops.ifft2(weight * full))) < 1e-12
    assert np.max(np.abs(ops.irfft2_vjp(x) - ops.ifft2_vjp(x)[..., :w // 2 + 1])) < 1e-12
    assert np.max(np.abs(ops.rfft2_vjp(half, w) - ops.fft2_vjp(full))) < 1e-12
    # on a half cotangent the weight's VJP is the resize adjoint of the full
    g_re, g_im = ops.half_spectrum_weight_vjp(3, 3, w, half)
    assert np.max(np.abs(g_re - ops.bilinear_resize_vjp(3, 3, full.real))) < 1e-12
    assert np.max(np.abs(g_im - ops.bilinear_resize_vjp(3, 3, full.imag))) < 1e-12


def _hermitian_half_ref(z):
    """(z(k) + conj(z(-k))) / 2 on the half columns, by explicit indexing."""
    h, w = z.shape[-2:]
    negated = z[..., -np.arange(h) % h, :][..., -np.arange(w // 2 + 1) % w]
    return (z[..., :w // 2 + 1] + np.conj(negated)) / 2


# (base grid, map): even and odd sides, a 1x1 map, one-row and one-column
# maps, and bases larger than the map
_HALF_WEIGHT_CASES = [((4, 4), 6, 6), ((4, 4), 5, 7), ((3, 5), 4, 5),
                      ((4, 4), 1, 1), ((2, 2), 1, 6), ((4, 6), 3, 1),
                      ((8, 8), 3, 2), ((9, 7), 5, 4)]


@pytest.mark.parametrize("base,h,w", _HALF_WEIGHT_CASES)
def test_half_spectrum_weight_is_the_resampled_hermitian_part(base, h, w):
    re, im = u(10, "hw.re", (3,) + base), u(10, "hw.im", (3,) + base)
    full = (ops.bilinear_resize(re[None], h, w)
            + 1j * ops.bilinear_resize(im[None], h, w))[0]
    got = ops.half_spectrum_weight(re, im, h, w)
    assert got.shape == (3, h, w // 2 + 1)
    assert np.max(np.abs(got - _hermitian_half_ref(full))) < 1e-12


@pytest.mark.parametrize("base,h,w", _HALF_WEIGHT_CASES)
def test_half_spectrum_weight_vjp_meets_the_adjoint_identity(base, h, w):
    # L = sum(gy * irfft2(W_h(re, im) * rfft2(x), w)) is linear in (re, im),
    # so the VJP of its packed cotangent conj(rfft2(x)) * irfft2_vjp(gy)
    # (dL/dRe + i dL/dIm of W_h, summed over the batch) recovers L
    re, im = u(11, "hw.re", (3,) + base), u(11, "hw.im", (3,) + base)
    x, gy = u(11, "hw.x", (2, 3, h, w)), u(11, "hw.gy", (2, 3, h, w))
    spectrum = ops.rfft2(x)
    loss = float(np.sum(gy * ops.irfft2(
        ops.half_spectrum_weight(re, im, h, w) * spectrum, w)))
    g_re, g_im = ops.half_spectrum_weight_vjp(
        *base, w, (np.conj(spectrum) * ops.irfft2_vjp(gy)).sum(axis=0))
    assert g_re.shape == g_im.shape == re.shape
    assert abs(loss - float(np.sum(re * g_re + im * g_im))) < 1e-12 * max(1.0, abs(loss))


def test_fft_requires_rank_four():
    with pytest.raises(ShapeError):
        ops.fft2(np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# bilinear resize
# ---------------------------------------------------------------------------

def test_resize_identity_at_same_size():
    x = u(12, "rs.x", (1, 2, 5, 6))
    assert np.array_equal(ops.bilinear_resize(x, 5, 6), x)


def test_resize_preserves_constants():
    x = np.full((1, 1, 3, 3), 2.5)
    out = ops.bilinear_resize(x, 7, 5)
    assert np.max(np.abs(out - 2.5)) < 1e-12


@pytest.mark.parametrize("oh,ow", [(7, 3), (2, 9), (4, 4), (1, 1)])
def test_resize_matches_reference(oh, ow):
    x = u(13, "rs2.x", (2, 2, 4, 5))
    got = ops.bilinear_resize(x, oh, ow)
    assert np.max(np.abs(got - orc.bilinear_ref(x, oh, ow))) < 1e-9


def test_resize_sizes_below_one_are_shape_errors():
    x, grid = np.ones((1, 1, 3, 3)), np.ones((2, 2))
    calls = {
        "bilinear_resize": [lambda: ops.bilinear_resize(x, 0, 4),
                            lambda: ops.bilinear_resize(x, 2, -1),
                            lambda: ops.bilinear_resize(np.ones((1, 1, 0, 3)), 2, 2)],
        "bilinear_resize_vjp": [lambda: ops.bilinear_resize_vjp(0, 3, x),
                                lambda: ops.bilinear_resize_vjp(3, -2, x)],
        "half_spectrum_weight": [lambda: ops.half_spectrum_weight(grid, grid, 0, 4),
                                 lambda: ops.half_spectrum_weight(grid, grid, 4, 0)],
        "half_spectrum_weight_vjp": [
            lambda: ops.half_spectrum_weight_vjp(0, 2, 4, np.ones((3, 3), complex))],
    }
    for op, fails in calls.items():
        for call in fails:
            with pytest.raises(ShapeError, match=f"^{op}: axis 'size' expected >= 1"):
                call()


def test_resize_adjoint_dot_test():
    # <A u, v> == <u, A^T v> pins the backward to the forward
    x = u(14, "ad.x", (1, 1, 3, 4))
    gy = u(14, "ad.g", (1, 1, 5, 7))
    lhs = float(np.sum(ops.bilinear_resize(x, 5, 7) * gy))
    rhs = float(np.sum(x * ops.bilinear_resize_vjp(3, 4, gy)))
    assert abs(lhs - rhs) < 1e-10
