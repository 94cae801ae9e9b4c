"""Sanity checks for the FP64 reference layer and the error metrics."""

import math
import random
import struct
import tracemalloc
from fractions import Fraction

import pytest

from scaledq.core import (GELU_SERIES_CUBED, GELU_SERIES_LINEAR, ZERO, ScaledInt, dequantize,
                          quantize)
from scaledq.ops import ConvSpec, QTensor, ShapeError
from scaledq import reference as ref


class TestRefOps:
    def test_softmax_exact_normalizes(self):
        rng = random.Random(1)
        for _ in range(50):
            xs = [rng.uniform(-3, 3) for _ in range(rng.randint(1, 40))]
            out = ref.ref_softmax_exact(xs)
            assert abs(sum(out) - 1.0) < 1e-12
            assert all(v > 0 for v in out)

    def test_softmax_exact_equal_inputs(self):
        out = ref.ref_softmax_exact([0.4] * 5)
        assert all(abs(v - 0.2) < 1e-12 for v in out)

    def test_softmax_series_formula(self):
        out = ref.ref_softmax_series([0.0, 1.0])
        assert out == [1.0 / 3.5, 2.5 / 3.5]

    def test_gelu_exact_zero_and_known(self):
        assert ref.ref_gelu_exact(0.0) == 0.0
        assert ref.ref_gelu_exact(1.0) == pytest.approx(0.841192, abs=1e-5)

    def test_gelu_series_constants_are_dyadic(self):
        assert ref.GELU_C1 == 102 / 128
        assert ref.GELU_C3 == 18 / 512
        assert ref.ref_gelu_series(1.0, GELU_SERIES_LINEAR) == 0.916015625

    @pytest.mark.parametrize("x", [-2.0, -0.5, 0.25, 1.0, 1.5, 3.0])
    def test_gelu_series_cubed_matches_exact_fractions(self, x):
        # Dyadic x keeps every intermediate within 53 bits, so the float
        # series must equal the rational one exactly.
        fx = Fraction(x)
        a = Fraction(102, 128) * fx + Fraction(18, 512) * fx ** 3
        assert Fraction(ref.ref_gelu_series(x, GELU_SERIES_CUBED)) == fx * (1 + a + a ** 3) / 2

    @pytest.mark.parametrize("variant", ["bogus", "", "series-Linear"])
    def test_gelu_series_unknown_variant_named(self, variant):
        with pytest.raises(ValueError) as exc:
            ref.ref_gelu_series(0.5, variant)
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"unknown gelu variant {variant!r}"

    def test_newton_reference_value(self):
        final, seq = ref.ref_newton_inv_sqrt(15.25, 0.015625, 8)
        assert abs(final - 0.2426) <= 5e-4
        assert len(seq) == 9

    def test_newton_reference_converges(self):
        final, _ = ref.ref_newton_inv_sqrt(2.0, 0.015625, 40)
        assert final == pytest.approx(1 / math.sqrt(2), rel=1e-9)

    def test_layer_norm_constant_is_beta(self):
        x = ref.FTensor((4,), (0.3, 0.3, 0.3, 0.3))
        out = ref.ref_layer_norm(x, [2.0] * 4, [0.5] * 4, 1e-5)
        assert all(abs(v - 0.5) < 1e-3 for v in out.data)

    def test_relu(self):
        assert ref.ref_relu(-2.0) == 0.0
        assert ref.ref_relu(3.0) == 3.0

    def test_linear_matches_manual(self):
        x = ref.FTensor((1, 2), (2.0, 3.0))
        w = ref.FTensor((2, 2), (1.0, 0.0, 1.0, 1.0))
        b = ref.FTensor((2,), (0.5, -0.5))
        out = ref.ref_linear(x, w, b)
        assert out.data == (2.5, 4.5)

    def test_linear_and_matmul_refuse_mismatched_shapes(self):
        x = ref.FTensor((2, 3), (1.0,) * 6)
        with pytest.raises(ShapeError, match="trailing dim must be 2"):
            ref.ref_linear(x, ref.FTensor((1, 2), (1.0,) * 2), None)
        with pytest.raises(ShapeError, match="trailing dim must be 2"):
            ref.ref_matmul(x, ref.FTensor((2, 2), (1.0,) * 4))

    def test_conv_matches_linear_for_1x1(self):
        rng = random.Random(3)
        xs = [rng.random() for _ in range(8)]
        ws = [rng.uniform(-1, 1) for _ in range(2)]
        x = ref.FTensor((1, 2, 2, 2), tuple(xs))
        w = ref.FTensor((1, 2, 1, 1), tuple(ws))
        out = ref.ref_conv2d(x, w, None, ConvSpec(2, 1, 1))
        for pos in range(4):
            want = xs[pos] * ws[0] + xs[4 + pos] * ws[1]
            assert out.data[pos] == pytest.approx(want, abs=1e-15)



def oracle_ref_conv2d(x, weight, bias, spec):
    """``ref_conv2d`` as a plain loop that tests every tap's bounds, kept
    verbatim: the FP64 twin must keep its summation order, so its floats
    are compared with ``==``."""
    batch, in_ch, height, width = x.shape
    out_ch, k = spec.out_channels, spec.kernel
    w_ch = 1 if spec.depthwise else in_ch
    h_out = (height + 2 * spec.padding - k) // spec.stride + 1
    w_out = (width + 2 * spec.padding - k) // spec.stride + 1
    multiplier = out_ch // in_ch if spec.depthwise else 0
    out = []
    for b in range(batch):
        for o in range(out_ch):
            channels = [o // multiplier] if spec.depthwise else list(range(in_ch))
            for oh in range(h_out):
                for ow in range(w_out):
                    acc = 0.0
                    for ci, i in enumerate(channels):
                        for ky in range(k):
                            ih = oh * spec.stride - spec.padding + ky
                            if not 0 <= ih < height:
                                continue
                            for kx in range(k):
                                iw = ow * spec.stride - spec.padding + kx
                                if not 0 <= iw < width:
                                    continue
                                acc += (x.data[((b * in_ch + i) * height + ih) * width + iw]
                                        * weight.data[((o * w_ch + ci) * k + ky) * k + kx])
                    if bias is not None:
                        acc += bias.data[o]
                    out.append(acc)
    return ref.FTensor((batch, out_ch, h_out, w_out), tuple(out))


def _spread_floats(rng, n):
    """Floats of either sign over 2^-30..2^30, so a changed summation order
    changes the rounded sums."""
    return tuple(rng.uniform(-1, 1) * 2.0 ** rng.randint(-30, 30) for _ in range(n))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1, 2])
def test_ref_conv2d_matches_oracle(k, stride, padding):
    rng = random.Random(k * 100 + stride * 10 + padding)
    x = ref.FTensor((2, 2, 5, 4), _spread_floats(rng, 80))
    # multiplier 0 is the dense conv, 1-3 the depthwise multipliers
    for multiplier in range(4):
        if multiplier:
            spec = ConvSpec(2, 2 * multiplier, k, stride, padding, depthwise=True)
        else:
            spec = ConvSpec(2, 3, k, stride, padding)
        w_ch = 1 if spec.depthwise else 2
        w = ref.FTensor((spec.out_channels, w_ch, k, k),
                        _spread_floats(rng, spec.out_channels * w_ch * k * k))
        bias = ref.FTensor((spec.out_channels,), _spread_floats(rng, spec.out_channels))
        for b in (bias, None):
            got, want = ref.ref_conv2d(x, w, b, spec), oracle_ref_conv2d(x, w, b, spec)
            assert got.shape == want.shape
            assert got.data == want.data
            # a tap-less output sums to 0.0, never -0.0
            assert list(map(float.hex, got.data)) == list(map(float.hex, want.data))


def oracle_ref_matmul(a, b):
    """``ref_matmul`` as its own row-times-column loop, kept verbatim."""
    m, k = a.shape
    _, n = b.shape
    out = []
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a.data[i * k + t] * b.data[t * n + j]
            out.append(acc)
    return ref.FTensor((m, n), tuple(out))


def oracle_ref_attention(q, k, v, d_m):
    """``ref_attention`` with its softmax loop written out, kept verbatim."""
    tokens, feats = q.shape
    inv_root = 1.0 / math.sqrt(d_m)
    scores = oracle_ref_matmul(q, ref.ref_transpose(k))
    weights = []
    for i in range(tokens):
        row = [scores.data[i * tokens + j] * inv_root for j in range(tokens)]
        weights.extend(ref.ref_softmax_series(row))
    return oracle_ref_matmul(ref.FTensor((tokens, tokens), tuple(weights)), v)


def oracle_ref_factorized_attention(q, k, v, d_m):
    """``ref_factorized_attention`` with its per-column softmax loop, kept
    verbatim."""
    tokens, feats = q.shape
    inv_root = 1.0 / math.sqrt(d_m)
    cols = []
    for j in range(feats):
        cols.append(ref.ref_softmax_series([k.data[t * feats + j] for t in range(tokens)]))
    sk_t = ref.FTensor((feats, tokens), tuple(e for col in cols for e in col))
    context = oracle_ref_matmul(sk_t, v)
    q_scaled = ref.FTensor(q.shape, tuple(e * inv_root for e in q.data))
    return oracle_ref_matmul(q_scaled, context)


def assert_same_floats(got, want):
    assert got.shape == want.shape
    assert list(map(float.hex, got.data)) == list(map(float.hex, want.data))


@pytest.mark.parametrize("seed", range(8))
def test_ref_matmul_and_attentions_match_oracles(seed):
    """The FP64 twins the error metrics score against keep the summation
    order of their plain loops, on random shapes."""
    rng = random.Random(seed)
    m, k, n = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
    for inner in (k, 0):
        a = ref.FTensor((m, inner), _spread_floats(rng, m * inner))
        b = ref.FTensor((inner, n), _spread_floats(rng, inner * n))
        assert_same_floats(ref.ref_matmul(a, b), oracle_ref_matmul(a, b))
    tokens, feats = rng.randint(1, 6), rng.randint(1, 6)
    q, kk, v = (ref.FTensor((tokens, feats), _spread_floats(rng, tokens * feats))
                for _ in range(3))
    d_m = rng.randint(1, 64)
    assert_same_floats(ref.ref_attention(q, kk, v, d_m), oracle_ref_attention(q, kk, v, d_m))
    assert_same_floats(ref.ref_factorized_attention(q, kk, v, d_m),
                       oracle_ref_factorized_attention(q, kk, v, d_m))


class TestMetrics:
    def test_identical_is_zero(self):
        q = QTensor((2,), (ScaledInt(3, 2), ScaledInt(1, 0, True)))
        f = ref.dequantize_tensor(q)
        assert ref.mse(q, f) == 0.0
        assert ref.max_abs_error(q, f) == 0.0

    def test_uniform_offset(self):
        q = QTensor((4,), (ScaledInt(1, 0),) * 4)  # all 1.0
        f = ref.FTensor((4,), (1.25,) * 4)
        assert ref.mse(q, f) == pytest.approx(0.0625)
        assert ref.max_abs_error(q, f) == pytest.approx(0.25)

    def test_shape_mismatch(self):
        q = QTensor((2,), (ScaledInt(1, 0),) * 2)
        for f in (ref.FTensor((3,), (1.0,) * 3), ref.FTensor((2, 1), (1.0,) * 2)):
            for metric in (ref.mse, ref.max_abs_error, ref.error_sums):
                with pytest.raises(ShapeError):
                    metric(q, f)

    def test_dequantize_tensor_round_trip(self):
        vals = [0.5, -0.25, 12.0, 0.0]
        q = QTensor((4,), tuple(quantize(v) for v in vals))
        f = ref.dequantize_tensor(q)
        assert list(f.data) == vals


def plain_error_sums(q, f, sq=0.0, worst=0.0):
    """The scoring rule as a plain per-element loop: each ``dequantize(q) - r``
    added squared, left to right, and ``max(worst, abs(diff))``."""
    for qe, re in zip(q.data, f.data):
        diff = dequantize(qe) - re
        sq += diff * diff
        worst = max(worst, abs(diff))
    return sq, worst


def bits(*xs):
    """The floats' IEEE bytes, so equality is bit-equality, NaN and -0.0 included."""
    return struct.pack(f"<{len(xs)}d", *xs)


NAN = float("nan")
HALF, NEG_HALF = ScaledInt(1, 1), ScaledInt(1, 1, True)
SCORE_CASES = {
    "zeros": ((ZERO, ZERO), (0.0, -0.0)),
    "both signs": ((HALF, NEG_HALF, ScaledInt(3, 2), ScaledInt(200, 9, True)),
                   (0.25, -0.75, 0.7, -0.3)),
    "equal and opposite": ((HALF, HALF, NEG_HALF), (0.25, 0.75, -0.25)),
    "leading nan": ((HALF, HALF, NEG_HALF), (NAN, 0.1, 0.2)),
    "later nan": ((HALF, HALF, NEG_HALF), (0.1, NAN, 0.2)),
    "nan only": ((HALF,), (NAN,)),
    "empty": ((), ()),
}


class TestErrorSums:
    """``error_sums`` is bit-equal to the plain loop it replaced."""

    @pytest.mark.parametrize("carried", [(0.0, 0.0), (0.125, 0.3), (1e-3, 2.0)])
    @pytest.mark.parametrize("case", SCORE_CASES)
    def test_matches_plain_loop(self, case, carried):
        data, refs = SCORE_CASES[case]
        q, f = QTensor((len(data),), data), ref.FTensor((len(refs),), refs)
        want = plain_error_sums(q, f, *carried)
        assert bits(*ref.error_sums(q, f, *carried)) == bits(*want)
        if data:
            fresh_sq, fresh_worst = plain_error_sums(q, f)
            assert bits(ref.mse(q, f)) == bits(fresh_sq / len(data))
            assert bits(ref.max_abs_error(q, f)) == bits(fresh_worst)

    def test_nan_never_becomes_worst(self):
        q = QTensor((3,), (HALF, HALF, HALF))
        assert ref.max_abs_error(q, ref.FTensor((3,), (NAN, 0.0, 0.25))) == 0.5
        sq, worst = ref.error_sums(q, ref.FTensor((3,), (NAN,) * 3), 1.0, 0.75)
        assert math.isnan(sq) and worst == 0.75

    def test_random_tensor_across_calls(self):
        rng = random.Random(30)
        vals = [rng.uniform(-4, 4) for _ in range(600)]
        q = QTensor((600,), tuple(quantize(v) for v in vals))
        f = ref.FTensor((600,), tuple(v + rng.uniform(-1e-2, 1e-2) for v in vals))
        got = want = (0.0, 0.0)
        for _ in range(3):
            got, want = ref.error_sums(q, f, *got), plain_error_sums(q, f, *want)
        assert bits(*got) == bits(*want) and got[0] > 0.0

    def test_scoring_memory_is_constant(self):
        """A list of diffs over 2**20 elements would take over 8 MiB."""
        n = 1 << 20
        q = QTensor((n,), (HALF, NEG_HALF, ScaledInt(3, 2), ZERO) * (n // 4))
        f = ref.FTensor((n,), (0.25, 0.5, -1.0, 0.125) * (n // 4))
        tracemalloc.start()
        try:
            sq, worst = ref.error_sums(q, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert worst == 1.75 and sq > 0.0
        assert peak < 64 * 1024, peak
