"""Tensor operator tests against independent FP64 oracles."""

import copy
import gc
import hashlib
import json
import math
import pickle
import random
import sys
import tracemalloc
from fractions import Fraction
from operator import mul

import pytest

import spec
from scaledq.core import (
    GELU_SERIES_CUBED,
    GELU_SERIES_CUBED_CORRECTED,
    GELU_SERIES_LINEAR,
    GELU_VARIANTS,
    ONE,
    DivisionByZero,
    DomainError,
    SaturationCounter,
    ScaleConfig,
    ScaledInt,
    ZERO,
    box,
    dequantize,
    fit,
    handle_overflow,
    negate,
    quantize,
    scale_add,
    scale_div,
    scale_mul,
    scale_sub,
    shift_scale,
)
from scaledq.newton import NEWTON_ITERS, exponent_seed, newton_inv_sqrt
from scaledq.ops import (
    ConvSpec,
    LayerNormParams,
    QTensor,
    ShapeError,
    attention,
    conv2d,
    factorized_attention,
    gelu,
    gelu_map,
    layer_norm,
    linear,
    matmul,
    relu,
    relu_map,
    softmax,
    softmax_tensor,
    sum_aligned,
    transpose,
)
from scaledq import core, ops, reference as ref
from scaledq.bench import load_tensor

CFG = ScaleConfig()


def qt(shape, values):
    return QTensor(tuple(shape), tuple(quantize(v, CFG) for v in values))


def ft(shape, values):
    return ref.FTensor(tuple(shape), tuple(float(v) for v in values))


def deq(t: QTensor):
    return [dequantize(e) for e in t.data]


class TestQTensor:
    def test_shape_checked(self):
        with pytest.raises(ShapeError):
            QTensor((2, 2), (ZERO,) * 3)

    @pytest.mark.parametrize("shape", [(-2, -2), (-1, -4), (4, -1, -1)])
    def test_negative_dimension_refused(self, shape):
        # each shape's product is the element count, 4
        with pytest.raises(ShapeError, match="negative dimension"):
            QTensor(shape, (ZERO,) * 4)
        with pytest.raises(ShapeError, match="negative dimension"):
            ref.FTensor(shape, (0.0,) * 4)

    def test_conv_spec_validation(self):
        with pytest.raises(ShapeError):
            ConvSpec(3, 4, 1, depthwise=True)
        with pytest.raises(ShapeError):
            ConvSpec(0, 1, 1)


class TestConv2d:
    def test_identity_kernel_bit_exact(self):
        x = qt((1, 1, 2, 2), [0.3, -0.7, 0.11, 0.9])
        w = QTensor((1, 1, 1, 1), (ScaledInt(1, 0),))
        b = QTensor((1,), (ZERO,))
        out = conv2d(x, w, b, ConvSpec(1, 1, 1), CFG)
        assert out.data == x.data

    def test_zero_input_gives_bias(self):
        x = QTensor((1, 2, 2, 2), (ZERO,) * 8)
        w = qt((3, 2, 1, 1), [0.5, -0.25, 0.75, 0.1, -0.9, 0.3])
        b = qt((3,), [0.11, -0.22, 0.33])
        out = conv2d(x, w, b, ConvSpec(2, 3, 1), CFG)
        for o in range(3):
            for pos in range(4):
                assert out.data[o * 4 + pos] == b.data[o]

    def test_dyadic_exact(self):
        x = qt((1, 1, 2, 2), [1, 0.5, 0.25, 2])
        w = qt((1, 1, 1, 1), [0.5])
        b = qt((1,), [0.25])
        out = conv2d(x, w, b, ConvSpec(1, 1, 1), CFG)
        assert deq(out) == [0.75, 0.5, 0.375, 1.25]

    @pytest.mark.parametrize("out_ch,limit", [(1, 6.89e-4), (3, 7.64e-4), (9, 6.63e-4)])
    def test_random_vs_oracle(self, out_ch, limit):
        rng = random.Random(100 + out_ch)
        shape = (1, 3, 16, 16)
        x = qt(shape, [rng.random() for _ in range(3 * 256)])
        w = qt((out_ch, 3, 1, 1), [rng.uniform(-1, 1) for _ in range(out_ch * 3)])
        b = qt((out_ch,), [rng.uniform(-1, 1) for _ in range(out_ch)])
        spec = ConvSpec(3, out_ch, 1)
        got = conv2d(x, w, b, spec, CFG)
        want = ref.ref_conv2d(ref.dequantize_tensor(x), ref.dequantize_tensor(w),
                              ref.dequantize_tensor(b), spec)
        assert ref.mse(got, want) <= limit

    def test_kernel3_padding_stride_vs_oracle(self):
        rng = random.Random(5)
        x = qt((1, 2, 6, 6), [rng.random() for _ in range(72)])
        w = qt((2, 2, 3, 3), [rng.uniform(-1, 1) for _ in range(36)])
        b = qt((2,), [rng.uniform(-1, 1) for _ in range(2)])
        spec = ConvSpec(2, 2, 3, stride=2, padding=1)
        got = conv2d(x, w, b, spec, CFG)
        want = ref.ref_conv2d(ref.dequantize_tensor(x), ref.dequantize_tensor(w),
                              ref.dequantize_tensor(b), spec)
        assert got.shape == want.shape == (1, 2, 3, 3)
        assert ref.max_abs_error(got, want) < 0.05

    def test_shape_mismatch(self):
        x = qt((1, 1, 2, 2), [1, 2, 3, 4])
        w = qt((1, 2, 1, 1), [1, 1])
        with pytest.raises(ShapeError):
            conv2d(x, w, None, ConvSpec(1, 1, 1), CFG)


class TestDepthwise:
    def test_single_channel_matches_conv(self):
        rng = random.Random(42)
        x = qt((1, 1, 3, 3), [rng.random() for _ in range(9)])
        w = qt((1, 1, 1, 1), [0.7])
        b = qt((1,), [0.1])
        a = conv2d(x, w, b, ConvSpec(1, 1, 1), CFG)
        d = conv2d(x, w, b, ConvSpec(1, 1, 1, depthwise=True), CFG)
        assert a.data == d.data

    def test_identity_taps_passthrough(self):
        x = qt((1, 3, 2, 2), [0.1 * i for i in range(12)])
        w = QTensor((3, 1, 1, 1), (ScaledInt(1, 0),) * 3)
        out = conv2d(x, w, None, ConvSpec(3, 3, 1, depthwise=True), CFG)
        assert out.data == x.data

    @pytest.mark.parametrize("out_ch,limit", [(3, 2.8e-4), (9, 5.9e-2)])
    def test_random_vs_oracle(self, out_ch, limit):
        rng = random.Random(200 + out_ch)
        x = qt((1, 3, 16, 16), [rng.random() for _ in range(3 * 256)])
        w = qt((out_ch, 1, 1, 1), [rng.uniform(-1, 1) for _ in range(out_ch)])
        b = qt((out_ch,), [rng.uniform(-1, 1) for _ in range(out_ch)])
        spec = ConvSpec(3, out_ch, 1, depthwise=True)
        got = conv2d(x, w, b, spec, CFG)
        want = ref.ref_conv2d(ref.dequantize_tensor(x), ref.dequantize_tensor(w),
                              ref.dequantize_tensor(b), spec)
        assert ref.mse(got, want) <= limit


class TestLinear:
    def test_identity(self):
        x = qt((4, 3), [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2])
        eye = QTensor((3, 3), tuple(
            ScaledInt(1, 0) if r == c else ZERO for r in range(3) for c in range(3)))
        out = linear(x, eye, None, CFG)
        assert out.data == x.data

    def test_zero_input_gives_bias(self):
        x = QTensor((2, 3), (ZERO,) * 6)
        w = qt((2, 3), [0.4, -0.5, 0.6, 0.7, -0.8, 0.9])
        b = qt((2,), [0.25, -0.125])
        out = linear(x, w, b, CFG)
        assert out.data == (b.data[0], b.data[1]) * 2

    @pytest.mark.parametrize("out_f,limit", [(9, 3.31e-4), (1, 1.79e-4), (3, 3.45e-4)])
    def test_random_vs_oracle(self, out_f, limit):
        rng = random.Random(300 + out_f)
        x = qt((64, 3), [rng.random() for _ in range(192)])
        w = qt((out_f, 3), [rng.uniform(-1, 1) for _ in range(out_f * 3)])
        b = qt((out_f,), [rng.uniform(-1, 1) for _ in range(out_f)])
        got = linear(x, w, b, CFG)
        want = ref.ref_linear(ref.dequantize_tensor(x), ref.dequantize_tensor(w),
                              ref.dequantize_tensor(b))
        assert ref.mse(got, want) <= limit


def test_empty_inner_axis_gives_zeros_plus_bias():
    """A dot over an empty axis sums no products: zero, plus the bias."""
    x = QTensor((2, 0), ())
    b = qt((3,), [0.25, -0.5, 0.75])
    assert linear(x, QTensor((3, 0), ()), None, CFG) == QTensor((2, 3), (ZERO,) * 6)
    assert linear(x, QTensor((3, 0), ()), b, CFG) == QTensor((2, 3), b.data * 2)
    assert matmul(x, QTensor((0, 3), ()), CFG) == QTensor((2, 3), (ZERO,) * 6)


class TestMatmul:
    def test_identity_and_zero(self):
        a = qt((2, 2), [1.5, -0.25, 0.75, 2.0])
        eye = QTensor((2, 2), (ScaledInt(1, 0), ZERO, ZERO, ScaledInt(1, 0)))
        assert matmul(a, eye, CFG).data == a.data
        zero = QTensor((2, 2), (ZERO,) * 4)
        assert all(e.is_zero() for e in matmul(a, zero, CFG).data)

    def test_dyadic_exact(self):
        a = qt((2, 2), [1.5, -0.25, 0.75, 2.0])
        got = matmul(a, a, CFG)
        want = ref.ref_matmul(ref.dequantize_tensor(a), ref.dequantize_tensor(a))
        assert deq(got) == list(want.data)

    def test_transpose_pure_permutation(self):
        a = qt((2, 3), [1, 2, 3, 4, 5, 6])
        t = transpose(a)
        assert t.shape == (3, 2)
        assert t.data[2 * 2 + 1] == a.data[1 * 3 + 2]
        assert transpose(t).data == a.data

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(qt((2, 2), [1, 2, 3, 4]), qt((3, 2), [1] * 6), CFG)


class TestLayerNorm:
    def params(self, n, gamma=1.0, beta=0.0):
        return LayerNormParams(
            qt((n,), [gamma] * n), qt((n,), [beta] * n), ScaledInt(1, 15))

    def test_constant_input_gives_beta(self):
        params = self.params(4, gamma=2.5, beta=-0.375)
        x = qt((4,), [0.7] * 4)
        out = layer_norm(x, params, CFG)
        assert out.data == params.beta.data

    def test_pm_one(self):
        out = layer_norm(qt((2,), [-1, 1]), self.params(2), CFG)
        assert max(abs(g - w) for g, w in zip(deq(out), [-1.0, 1.0])) <= 0.02

    def test_one_to_four(self):
        out = layer_norm(qt((4,), [1, 2, 3, 4]), self.params(4), CFG)
        want = [-1.3416407864998738, -0.4472135954999579,
                0.4472135954999579, 1.3416407864998738]
        assert max(abs(g - w) for g, w in zip(deq(out), want)) <= 0.02

    def test_random_vs_oracle(self):
        rng = random.Random(77)
        n = 64
        x = qt((n,), [rng.random() for _ in range(n)])
        out = layer_norm(x, self.params(n), CFG)
        want = ref.ref_layer_norm(ref.dequantize_tensor(x), [1.0] * n, [0.0] * n, 2.0 ** -15)
        assert ref.mse(out, want) <= 1.5e-2

    def test_affine_applied(self):
        params = self.params(2, gamma=0.5, beta=0.25)
        out = layer_norm(qt((2,), [-1, 1]), params, CFG)
        want = [-0.25, 0.75]
        assert max(abs(g - w) for g, w in zip(deq(out), want)) <= 0.02

    @pytest.mark.parametrize("log_spread", range(-9, 3))
    def test_per_row_error_bound_across_spreads(self, log_spread):
        """64 rows of 16 with means in [-1, 1) and spread 2**log_spread: each
        row is within 2**-5 of the FP64 layer norm of its quantized values
        (the worst measured, 0.021, is at spread 4)."""
        rng, n, rows = random.Random(1000 + log_spread), 16, 64
        values = []
        for _ in range(rows):
            mean = rng.uniform(-1, 1)
            values += [mean + 2.0 ** log_spread * rng.uniform(-1, 1) for _ in range(n)]
        x = qt((rows, n), values)
        got = deq(layer_norm(x, self.params(n), CFG))
        want = ref.ref_layer_norm(ref.dequantize_tensor(x), [1.0] * n, [0.0] * n, 2.0 ** -15).data
        for r in range(0, rows * n, n):
            assert max(abs(g - w) for g, w in zip(got[r:r + n], want[r:r + n])) <= 2 ** -5, r

    @pytest.mark.parametrize("n", [64, 256, 768])
    def test_wide_rows_keep_headroom(self, n):
        """Transformer widths at spreads up to 2**18: no saturation, and each
        row within 2**-5 of FP64.  Deviations of ``n * (x - mean)`` on the
        row's scale would overflow the variance numerator here (n = 256 at
        spread 8 was off by 6.4); the coarser grid keeps them in range."""
        rng = random.Random(n)
        for log_spread in (3, 6, 10, 14, 18):
            spread = 2.0 ** log_spread
            mean = spread * rng.uniform(-1, 1)
            x = qt((1, n), [mean + spread * rng.uniform(-1, 1) for _ in range(n)])
            sat = SaturationCounter()
            got = deq(layer_norm(x, self.params(n), CFG, sat))
            want = ref.ref_layer_norm(ref.dequantize_tensor(x), [1.0] * n, [0.0] * n,
                                      2.0 ** -15).data
            assert sat.count == 0, log_spread
            assert max(abs(g - w) for g, w in zip(got, want)) <= 2 ** -5, log_spread


class TestSoftmax:
    def test_length_one(self):
        out = softmax([quantize(0.37, CFG)], CFG)
        assert dequantize(out[0]) == 1.0

    def test_equal_inputs_power_of_two(self):
        out = softmax([quantize(0.3, CFG)] * 8, CFG)
        assert all(dequantize(o) == 0.125 for o in out)

    def test_zero_one_pair(self):
        out = softmax([ZERO, quantize(1.0, CFG)], CFG)
        got = [dequantize(o) for o in out]
        assert abs(got[0] - 2 / 7) <= 2 ** -6
        assert abs(got[1] - 5 / 7) <= 2 ** -6

    def test_positive_and_normalized(self):
        rng = random.Random(31337)
        worst = 0.0
        for _ in range(1000):
            n = rng.randint(1, 64)
            xs = [quantize(rng.uniform(-2, 2), CFG) for _ in range(n)]
            outs = softmax(xs, CFG)
            assert all(o.magnitude > 0 and not o.negative for o in outs)
            worst = max(worst, abs(sum(dequantize(o) for o in outs) - 1.0))
        assert worst <= 2 ** -6

    def test_vs_series_oracle(self):
        rng = random.Random(4)
        xs = [rng.random() for _ in range(64)]
        got = softmax([quantize(v, CFG) for v in xs], CFG)
        want = ref.ref_softmax_series([dequantize(quantize(v, CFG)) for v in xs])
        mse = sum((dequantize(g) - w) ** 2 for g, w in zip(got, want)) / len(want)
        assert mse <= 1.79e-4

    def test_tensor_rows_independent(self):
        x = qt((2, 3), [0.1, 0.2, 0.3, 0.3, 0.2, 0.1])
        out = softmax_tensor(x, CFG)
        assert deq(out)[:3] == deq(out)[3:][::-1]


class TestGelu:
    def test_zero_for_all_variants(self):
        for variant in (GELU_SERIES_LINEAR, GELU_SERIES_CUBED, GELU_SERIES_CUBED_CORRECTED):
            assert gelu(ZERO, CFG, variant=variant) == ZERO

    def test_one_series_linear(self):
        got = dequantize(gelu(quantize(1.0, CFG), CFG, variant=GELU_SERIES_LINEAR))
        want = ref.ref_gelu_series(1.0, GELU_SERIES_LINEAR)  # 0.5 * (1 + 0.83203125)
        assert want == 0.916015625
        assert abs(got - want) <= 2 ** -6

    def test_half_series_linear(self):
        got = dequantize(gelu(quantize(0.5, CFG), CFG, variant=GELU_SERIES_LINEAR))
        assert abs(got - ref.ref_gelu_series(0.5, GELU_SERIES_LINEAR)) <= 2 ** -6
        assert abs(got - 0.35071) <= 2 ** -6

    def test_variant_ordering_against_exact(self):
        rng = random.Random(88)
        xs = [rng.random() for _ in range(256)]
        errors = {}
        for variant in (GELU_SERIES_LINEAR, GELU_SERIES_CUBED):
            t = gelu_map(qt((256,), xs), CFG, variant=variant)
            exact = ft((256,), [ref.ref_gelu_exact(dequantize(quantize(v, CFG))) for v in xs])
            errors[variant] = ref.mse(t, exact)
        assert errors[GELU_SERIES_LINEAR] <= 2e-3
        assert errors[GELU_SERIES_CUBED] <= 6.6e-2
        assert errors[GELU_SERIES_LINEAR] < errors[GELU_SERIES_CUBED]

    def test_corrected_variant_tracks_series(self):
        rng = random.Random(89)
        for _ in range(100):
            v = rng.uniform(-1, 1)
            q = quantize(v, CFG)
            got = dequantize(gelu(q, CFG, variant=GELU_SERIES_CUBED_CORRECTED))
            want = ref.ref_gelu_series(dequantize(q), GELU_SERIES_CUBED_CORRECTED)
            assert abs(got - want) <= 2 ** -5

    def test_negative_inputs_track_series(self):
        rng = random.Random(90)
        for _ in range(200):
            v = -rng.random() * 1.5
            q = quantize(v, CFG)
            got = dequantize(gelu(q, CFG, variant=GELU_SERIES_LINEAR))
            want = ref.ref_gelu_series(dequantize(q), GELU_SERIES_LINEAR)
            assert abs(got - want) <= 2 ** -5


class TestRelu:
    def test_cases(self):
        assert relu(ScaledInt(5, 2)) == ScaledInt(5, 2)
        assert relu(ScaledInt(5, 2, True)) == ZERO
        assert relu(ZERO) == ZERO

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(200):
            q = ScaledInt(rng.randint(0, 255), rng.randint(-16, 15), rng.random() < 0.5)
            assert relu(relu(q)) == relu(q)

    def test_map(self):
        t = QTensor((3,), (ScaledInt(1, 0), ScaledInt(1, 0, True), ZERO))
        assert relu_map(t).data == (ScaledInt(1, 0), ZERO, ZERO)


class TestAttention:
    def test_single_token_returns_values(self):
        q = qt((1, 2), [0.5, -0.25])
        k = qt((1, 2), [0.3, 0.7])
        v = qt((1, 2), [0.9, -0.6])
        assert attention(q, k, v, 2, CFG).data == v.data

    def test_zero_values(self):
        q = qt((2, 2), [0.1, 0.2, 0.3, 0.4])
        v = QTensor((2, 2), (ZERO,) * 4)
        assert all(e.is_zero() for e in attention(q, q, v, 2, CFG).data)

    def test_small_case_vs_oracle(self):
        qv = [0.5, -0.25, 0.125, 0.75]
        kv = [0.25, 0.5, -0.5, 1.0]
        vv = [1.0, 0.5, -0.75, 0.25]
        got = attention(qt((2, 2), qv), qt((2, 2), kv), qt((2, 2), vv), 2, CFG)
        want = ref.ref_attention(ft((2, 2), qv), ft((2, 2), kv), ft((2, 2), vv), 2)
        assert ref.max_abs_error(got, want) < 2 ** -5

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            attention(qt((2, 2), [0] * 4), qt((2, 3), [0] * 6), qt((2, 2), [0] * 4), 2, CFG)


class TestFactorizedAttention:
    def test_single_token(self):
        qv, kv, vv = [0.5, -0.25], [0.3, 0.7], [0.9, -0.6]
        got = factorized_attention(qt((1, 2), qv), qt((1, 2), kv), qt((1, 2), vv), 2, CFG)
        want = ref.ref_factorized_attention(ft((1, 2), qv), ft((1, 2), kv), ft((1, 2), vv), 2)
        assert ref.max_abs_error(got, want) < 2 ** -5

    def test_constant_keys_average_values(self):
        qv = [0.5, -0.25, 0.125, 0.75]
        vv = [1.0, 0.5, -0.75, 0.25]
        kc = [0.4, 0.6, 0.4, 0.6]
        got = factorized_attention(qt((2, 2), qv), qt((2, 2), kc), qt((2, 2), vv), 2, CFG)
        want = ref.ref_factorized_attention(ft((2, 2), qv), ft((2, 2), kc), ft((2, 2), vv), 2)
        assert ref.max_abs_error(got, want) < 2 ** -5

    def test_random_small_case_vs_oracle(self):
        rng = random.Random(123)
        qv = [rng.uniform(-1, 1) for _ in range(6)]
        kv = [rng.uniform(-1, 1) for _ in range(6)]
        vv = [rng.uniform(-1, 1) for _ in range(6)]
        got = factorized_attention(qt((3, 2), qv), qt((3, 2), kv), qt((3, 2), vv), 2, CFG)
        want = ref.ref_factorized_attention(ft((3, 2), qv), ft((3, 2), kv), ft((3, 2), vv), 2)
        assert ref.max_abs_error(got, want) < 2 ** -5


class TestSumAligned:
    def test_single_term_untouched(self):
        q = ScaledInt(13, 9)
        assert sum_aligned([q, ZERO, ZERO], CFG) is q

    def test_empty_is_zero(self):
        assert sum_aligned([], CFG) == ZERO


def rand_tensor(rng, shape, cfg=CFG, zero_share=0.15):
    """Seeded elements over the whole format: any magnitude, any scale,
    either sign, with about ``zero_share`` of them zero."""
    data = []
    for _ in range(math.prod(shape)):
        if rng.random() < zero_share:
            data.append(ZERO)
        else:
            data.append(ScaledInt(rng.randint(1, cfg.max_magnitude),
                                  rng.randint(cfg.scale_min, cfg.scale_max),
                                  rng.random() < 0.5))
    return QTensor(tuple(shape), tuple(data))


def nonlinear_rows(rng, n, cfg=CFG):
    """Rows of ``n`` for the row-wise operators: full-range random rows
    with zeros, a constant row, one value stored in four forms (equal values
    that are not equal elements, so every quantized deviation vanishes), and
    rows of very small variance at scales across the range."""
    rows = [list(rand_tensor(rng, (n,), cfg).data) for _ in range(6)]
    rows.append([ScaledInt(3, 1, True)] * n)
    rows.append([ScaledInt(1 << (i % 4), i % 4) for i in range(n)])
    top = cfg.max_magnitude
    for scale in sorted({cfg.scale_min, 0, cfg.scale_max // 2, cfg.scale_max}):
        base = rng.randint(top // 2, top - 2)
        rows.append([ScaledInt(base + rng.randint(0, 2), scale) for _ in range(n)])
    return QTensor((len(rows), n), tuple(e for row in rows for e in row))


def tensor_digest(t: QTensor) -> str:
    body = ";".join(f"{e.signed_magnitude},{e.scale}" for e in t.data)
    return hashlib.sha256(f"{t.shape}|{body}".encode()).hexdigest()


def value_digest(t: QTensor) -> str:
    """Digest of the exact values alone: two storage forms of one value agree."""
    body = ";".join(dequantize(e).hex() for e in t.data)
    return hashlib.sha256(f"{t.shape}|{body}".encode()).hexdigest()


def _pinned_cases():
    rng = random.Random(2024)
    x = rand_tensor(rng, (1, 3, 7, 7))
    w_dense = rand_tensor(rng, (4, 3, 3, 3))
    w_depth = rand_tensor(rng, (6, 1, 3, 3))
    b4, b6 = rand_tensor(rng, (4,)), rand_tensor(rng, (6,))
    rows, w_lin, b_lin = rand_tensor(rng, (5, 8)), rand_tensor(rng, (6, 8)), rand_tensor(rng, (6,))
    a, b = rand_tensor(rng, (4, 6)), rand_tensor(rng, (6, 5))
    q, k, v = (rand_tensor(rng, (4, 6)) for _ in range(3))
    ln_x, sm_x = nonlinear_rows(rng, 8), nonlinear_rows(rng, 6)
    ln = LayerNormParams(rand_tensor(rng, (8,)), rand_tensor(rng, (8,)))
    g = rand_tensor(rng, (16, 8))
    return {
        "conv2d-dense": lambda sat: conv2d(
            x, w_dense, b4, ConvSpec(3, 4, 3, stride=2, padding=2), CFG, sat),
        "conv2d-depthwise": lambda sat: conv2d(
            x, w_depth, b6, ConvSpec(3, 6, 3, stride=2, padding=2, depthwise=True), CFG, sat),
        "linear-bias": lambda sat: linear(rows, w_lin, b_lin, CFG, sat),
        "linear": lambda sat: linear(rows, w_lin, None, CFG, sat),
        "matmul": lambda sat: matmul(a, b, CFG, sat),
        "attention": lambda sat: attention(q, k, v, 6, CFG, sat),
        "factorized-attention": lambda sat: factorized_attention(q, k, v, 6, CFG, sat),
        "layer-norm": lambda sat: layer_norm(ln_x, ln, CFG, sat),
        "softmax-tensor": lambda sat: softmax_tensor(sm_x, CFG, sat),
        **{f"gelu-map-{variant}": (lambda sat, variant=variant: gelu_map(g, CFG, sat, variant))
           for variant in GELU_VARIANTS},
    }


# SHA-256 of each output and its floor-saturation count, taken from the
# scalar composition of core primitives each operator was built from: for
# conv2d, linear and matmul before they shared a fused multiply-accumulate
# kernel, for layer_norm, softmax and gelu before they ran on int pairs.
# softmax-tensor was re-taken when core.quotient began to store every
# quotient in quantize's form; its PINNED_VALUES entry did not move.
# layer-norm was re-taken, in both tables, when layer_norm began to cut the
# mean once and to seed Newton from the exponent, and again when it began to
# keep its variance numerator in range; its full-range rows saturate no more.
# conv2d-dense was re-taken, in both tables, when each conv output became one
# dot over its whole receptive field instead of a dot per input channel.
# Every dot entry (conv2d-*, linear*, matmul and both attentions) was re-taken,
# in both tables, when a dot plus its bias became one cut of its exact value;
# the two attention entries also hold 1/sqrt(d_m) seeded from the exponent.
# layer-norm, softmax-tensor and both attentions were re-taken, in both
# tables, when layer_norm's variance and affine tail and each softmax
# numerator became one cut of its exact value.
PINNED = {
    "attention": ("11a00e0e4a8385dcdaf723ce0c1c4e8e8b8f0453fb992661fca9ff757beeb105", 31),
    "conv2d-dense": ("4c1e34aef98547d6826230d54bc1bfc5cc9a5db399ef4866def2ed4291f85bd6", 90),
    "conv2d-depthwise": ("216a94441f2f38b9e91102477912d6c17935f266f798a76f5e7adb6425c8737e", 87),
    "factorized-attention": ("a6ef6909e479bc85cdc9e5925863064377942deb2b20ddab7b5477e3d8e46246", 22),
    "gelu-map-series-cubed":
        ("f372dee8b9dddc9e4cc712d19736e4b8d12da0098b3ddd9f035efcf77a4d0f1a", 384),
    "gelu-map-series-cubed-corrected":
        ("2109005d0d9d33a7117de950feb090cfb6a26426abed7a8c125f2b7349178691", 317),
    "gelu-map-series-linear":
        ("8aa6697e25011881ec3ee99c7bd2f7993082bf7b0837dd4f6c97859595407d8c", 161),
    "layer-norm": ("3e20c9c288921114848c11bbef2b880df46b1ac63d1eab67121fb468d06e2db8", 0),
    "linear": ("1b8df3b33d88515d40f037edbc38731339a3d30c0747add9871d08137ae19586", 27),
    "linear-bias": ("6d17f349d29b085df0d6ecff49fed4e9af4ebcee9161fecb7c9a5e4c515da003", 27),
    "matmul": ("302d56b8f85a1bea2ba938e2c0c529efdf7572bfb3b19c16d1c075b69bbf9b24", 14),
    "softmax-tensor": ("b66148d8080303e31ab2e5947ab4705d4cc9a5a74c833660a5eec76418ad3af0", 24),
}


# SHA-256 of each output's exact values (``float.hex`` of every element) and
# its floor-saturation count, taken with ``PINNED``; unlike ``PINNED``, these
# hold across any change to how a value is stored.
PINNED_VALUES = {
    "attention": ("5264b4ccde040681ab128f928684273e0cc84a2b52bc519dfc3555ccec8ada4b", 31),
    "conv2d-dense": ("90060083769a8d8df106c8a273d0ae4b003bef10f0e6d45a00b0870a1c3c057d", 90),
    "conv2d-depthwise": ("7f520f091a8fc69a2cc33bb918469f0c0dd303bcee8f6e308de62bb8f5dc2649", 87),
    "factorized-attention": ("68b958ba7792e6e67ebd4eab9489a463cc74f8d9ed100677c91ab00852d527eb", 22),
    "gelu-map-series-cubed":
        ("be7deab7f7f3c6392a74d9d6173344174012a1513bae79bbf7e5099df2b4e5cd", 384),
    "gelu-map-series-cubed-corrected":
        ("146fd1c0718be77c1939185e7b20386dd765fd28c21e8d26c504e3bdbec64800", 317),
    "gelu-map-series-linear":
        ("b4bc1ed8cc06364517580fec59dc0b7218b277e1dfd327fb57453d3ff1803e04", 161),
    "layer-norm": ("9ba82fa6e14fe707933db8c36685a1ee20adada7e40d3330645048f801dd5173", 0),
    "linear": ("8dc896d7233c7fd7afb513124ad196db0c27759cfa94b487e2f5009ebc407d8d", 27),
    "linear-bias": ("e01e5caaf591edb7ba9d46cfc696dc0f291bfee492e8dd55d2cf174e2029ef8e", 27),
    "matmul": ("5f7121c30f8aed7c78ad7ee4bc102e38c75cdb74b3fef432694cb704ebac6f74", 14),
    "softmax-tensor": ("35d8f10aa1e08fb5900d74acb335491242f8a211b321ce38a00dad9dc2e50220", 24),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_operator_bytes(name):
    sat = SaturationCounter()
    out = _pinned_cases()[name](sat)
    assert (tensor_digest(out), sat.count) == PINNED[name]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_operator_values(name):
    sat = SaturationCounter()
    out = _pinned_cases()[name](sat)
    assert (value_digest(out), sat.count) == PINNED_VALUES[name]


def _output_cases():
    """Each public operator's output elements, by name, as functions of a
    scratch directory; the pinned cases plus zero and cancelling operands."""
    a, b = ScaledInt(122, 3, True), ScaledInt(33, 7)
    x = rand_tensor(random.Random(7), (3, 6))

    def loaded(tmp_path):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"shape": [3], "kind": "scaled",
                                    "data": [[-7, 2], [0, 0], [5, -3]]}))
        return load_tensor(str(path), CFG).data

    def inv_sqrt(_):
        seed = ScaledInt(1, min(6, CFG.scale_max))
        y, trace = newton_inv_sqrt(ScaledInt(122, 3), seed, 20, CFG)
        pinned, _ = newton_inv_sqrt(ScaledInt(255, -15), seed, 3, CFG)
        return [y, pinned, exponent_seed(ScaledInt(255, -15), CFG),
                *(e for _, e in trace.entries)]

    return {
        **{name: (lambda _, case=case: case(None).data)
           for name, case in _pinned_cases().items()},
        "relu-map": lambda _: relu_map(x).data,
        "softmax": lambda _: softmax(x.data[:6], CFG),
        **{f"gelu-{variant}": (lambda _, variant=variant:
                               [gelu(e, CFG, variant=variant) for e in x.data])
           for variant in GELU_VARIANTS},
        "sum-aligned-0-live": lambda _: [sum_aligned([ZERO, ZERO], CFG), sum_aligned([], CFG)],
        "sum-aligned-1-live": lambda _: [sum_aligned([ZERO, a], CFG)],
        "sum-aligned-3-live": lambda _: [sum_aligned([a, b, ScaledInt(1, -2)], CFG),
                                         sum_aligned([a, b, negate(b), negate(a)], CFG)],
        "negate": lambda _: [negate(a), negate(ZERO)],
        "handle-overflow": lambda _: [handle_overflow(1020, 0, CFG),
                                      handle_overflow(7, 18, CFG),
                                      handle_overflow(-200, -20, CFG)],
        "scale-mul": lambda _: [scale_mul(a, b, CFG), scale_mul(a, ZERO, CFG)],
        "scale-add": lambda _: [scale_add(a, b, CFG), scale_add(a, negate(a), CFG)],
        "scale-sub": lambda _: [scale_sub(a, b, CFG), scale_sub(a, a, CFG)],
        "scale-div": lambda _: [scale_div(a, b, CFG), scale_div(ZERO, b, CFG)],
        "shift-scale": lambda _: [shift_scale(a, 2, CFG), shift_scale(a, 40, CFG)],
        "quantize": lambda _: [quantize(v, CFG) for v in (-15.25, 0.2561, 2 ** -16, 0.0)],
        "load-tensor": loaded,
        "newton-inv-sqrt": inv_sqrt,
    }


@pytest.mark.parametrize("name", sorted(_output_cases()))
def test_every_output_element_is_a_scaled_int(name, tmp_path):
    """No operator leaks a plain ``(magnitude, scale)`` pair: readers such as
    ``tensor_digest`` use the named attributes."""
    out = list(_output_cases()[name](tmp_path))
    assert out and all(type(e) is ScaledInt for e in out)


def _boxed_cases():
    """The pinned operator cases and ``load_tensor``, each as a function of a
    scratch directory giving its output elements."""
    cases = {name: (lambda _, case=case: case(None).data)
             for name, case in _pinned_cases().items()}
    cases["load-tensor"] = _output_cases()["load-tensor"]
    return cases


@pytest.mark.parametrize("name", sorted(_boxed_cases()))
def test_every_output_element_is_the_tables_box(name, tmp_path):
    """Each kernel boxes its outputs through ``core.box``, so every element
    is its format's one ``ScaledInt`` for that pair, and two calls give the
    same objects; inputs built with ``ScaledInt(...)`` included."""
    case = _boxed_cases()[name]
    out, again = case(tmp_path), case(tmp_path)
    assert all(e is CFG.boxes[e] for e in out)
    assert all(a is b for a, b in zip(out, again, strict=True))


def _traced_second_conv(side):
    """A seed-0 1x3xSIDExSIDE conv2d, 3 -> 9 channels, run twice, the second
    time under tracemalloc: both outputs, and the bytes the second call
    retained and its peak."""
    cfg, rng = ScaleConfig(), random.Random(0)
    x = QTensor((1, 3, side, side), tuple(quantize(rng.random(), cfg)
                                          for _ in range(3 * side * side)))
    w = QTensor((9, 3, 3, 3), tuple(quantize(rng.uniform(-1, 1), cfg) for _ in range(243)))
    b = QTensor((9,), tuple(quantize(rng.uniform(-1, 1), cfg) for _ in range(9)))
    spec = ConvSpec(3, 9, 3, padding=1)
    first = conv2d(x, w, b, spec, cfg)
    gc.collect()
    tracemalloc.start()
    try:
        out = conv2d(x, w, b, spec, cfg)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return first, out, retained, peak


def test_conv_output_costs_a_pointer_per_element():
    """A second conv2d on a seed-0 1x3x32x32 image retains at most 16 bytes
    per output element: the output tuple's pointer and no box per element
    (a fresh 2-tuple per element retained about 83 bytes)."""
    first, out, retained, _ = _traced_second_conv(32)
    assert out == first
    assert retained / out.size <= 16


def test_conv_read_back_holds_a_chunk_of_lanes():
    """A second conv2d on a seed-0 1x3x64x64 image peaks at under 56 traced
    bytes per output element: about 43 with the lanes read back a chunk of
    rows at a time, and about 79 when a whole call's lanes were unpacked at
    once (2836 KiB against 1536 KiB, beside an output tuple of 288 KiB)."""
    first, out, _, peak = _traced_second_conv(64)
    assert out == first
    assert peak / out.size < 56


@pytest.mark.parametrize("clone", [lambda t: pickle.loads(pickle.dumps(t)), copy.deepcopy])
def test_copied_tensors_and_configs_compare_equal(clone):
    cfg = ScaleConfig(p_bits=6, scale_bits=4)
    rng = random.Random(6)
    x = QTensor((2, 3), tuple(quantize(rng.uniform(-2, 2), cfg) for _ in range(6)))
    w = QTensor((4, 3), tuple(quantize(rng.uniform(-1, 1), cfg) for _ in range(12)))
    out = linear(x, w, None, cfg)
    got_cfg, got = clone(cfg), clone(out)
    assert got_cfg == cfg and got == out
    assert linear(clone(x), clone(w), None, got_cfg) == out


def test_pinned_inputs_reach_both_range_edges():
    """The pinned inputs saturate at the scale floor and flush to zero at the
    scale ceiling, so the pins cover both edges of ``handle_overflow``."""
    rng = random.Random(2024)
    x, w = rand_tensor(rng, (1, 3, 7, 7)), rand_tensor(rng, (4, 3, 3, 3))
    sat = SaturationCounter()
    products = [scale_mul(a, b, CFG, sat) for a in x.data for b in w.data
                if a.magnitude and b.magnitude]
    assert sat.count > 0
    assert any(p.is_zero() for p in products)


# --- one dot and sum_aligned against the specification in tests/spec.py ---

# (12, 10) puts values up to 2**1035 on the 2**-scale_max grid, so the kernel's
# products are ints of about 2000 bits.
SPEC_FORMATS = [(8, 5)] + [(p, s) for p in (2, 4, 12) for s in (3, 5, 6)] + [(12, 10)]


@pytest.mark.parametrize("p_bits,scale_bits", SPEC_FORMATS)
def test_dot_and_sum_aligned_match_spec(p_bits, scale_bits):
    """Random dots of 0 to 8 terms over the whole format, zeros included,
    each one row against one weight row through ``_lane_dots``, give the
    specification's pair, so its value in its stored form, with the same
    running saturation count; a single live term comes back as itself."""
    cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
    rng = random.Random(p_bits * 100 + scale_bits)
    got_sat, want_sat = SaturationCounter(), SaturationCounter()
    singles = 0
    for _ in range(2000):
        n = rng.randint(0, 8)
        xs, ws = (rand_tensor(rng, (n,), cfg).data for _ in range(2))
        assert _one_dot(xs, ws, cfg, got_sat) == spec.dot(xs, ws, cfg, want_sat)
        assert got_sat.count == want_sat.count
        got = sum_aligned(xs, cfg, got_sat)
        assert got == spec.sum_aligned(xs, cfg, want_sat)
        assert got_sat.count == want_sat.count
        live = [x for x in xs if x.magnitude]
        if len(live) == 1:
            assert got is live[0]
            singles += 1
    assert want_sat.count > 0 and singles > 0
    assert _one_dot((), (), cfg, got_sat) == spec.dot((), (), cfg, want_sat) == (0, 0)
    assert sum_aligned((), cfg) == ZERO


def _one_dot(xs, ws, cfg, sat, bias=None):
    """``ops._lane_dots`` of one row ``xs``, one weight row ``ws`` and
    ``bias``, any pair, when given: the one dot's output."""
    ints, grid = ops._fixed(xs, cfg)
    w_ints, g_w = ops._fixed(ws, cfg)
    return ops._lane_dots([ints], grid, max(map(abs, ints), default=0), ([w_ints], g_w),
                          None if bias is None else [bias], cfg, sat)[0]


def _dot_and_count(xs, ws, cfg, bias=(0, 0)):
    """One dot of two pair sequences plus ``bias`` through ``_lane_dots``,
    and its saturations, asserted equal to ``spec.dot``'s."""
    got_sat, want_sat = SaturationCounter(), SaturationCounter()
    got = _one_dot(xs, ws, cfg, got_sat, bias)
    assert (got, got_sat.count) == (spec.dot(xs, ws, cfg, want_sat, bias), want_sat.count)
    return got, got_sat.count


def _value(pair):
    """The exact value of a ``(magnitude, scale)`` pair."""
    return Fraction(pair[0]) / Fraction(2) ** pair[1]


def _check_cut_once(got, exact, cfg):
    """Assert that the pair ``got`` is one truncation of the ``Fraction``
    ``exact``, and return whether it saturated.  A value of at least
    ``2**(P - scale_min)`` saturates to +/-``max_value``.  Otherwise ``got``
    has the exact value's sign, ``|got| <= |exact|`` and ``|exact| - |got| <
    2**-s`` for its scale s (``scale_max`` for zero)."""
    lo, top = cfg.scale_min, cfg.max_magnitude
    if abs(exact) >= Fraction(2) ** (cfg.p_bits - lo):
        assert got == ((top if exact > 0 else -top), lo)
        return True
    r = _value(got)
    assert r == 0 or (r > 0) == (exact > 0)
    step = Fraction(2) ** -(got[1] if got[0] else cfg.scale_max)
    assert abs(r) <= abs(exact) and abs(exact) - abs(r) < step
    return False


@pytest.mark.parametrize("p_bits,scale_bits", SPEC_FORMATS)
def test_dot_at_each_edge_of_the_product_cut_matches_spec(p_bits, scale_bits):
    """Each edge of a dot's one cut gives ``spec.dot``'s pair and count.  A
    total past the floor saturates and counts once, however many products
    pass it, and products past it that cancel count nothing.  A total below
    the ceiling's step flushes to (0, 0), while two products that would each
    flush add up to the finest step.  Operands above the ceiling, an
    out-of-format bias and an empty dot with a bias are each cut once."""
    cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
    rng = random.Random(p_bits * 100 + scale_bits + 19)
    lo, hi, top = cfg.scale_min, cfg.scale_max, cfg.max_magnitude
    big, two = (top, lo), (2, 0)
    for k in (1, 2, 5):
        assert _dot_and_count([big] * k, [two] * k, cfg) == ((top, lo), 1)
        assert _dot_and_count([big] * k, [(-2, 0)] * k, cfg, (1, 0)) == ((-top, lo), 1)
    assert _dot_and_count([big, big], [two, (-2, 0)], cfg) == ((0, 0), 0)
    tiny, half = (1, hi), (1, 1)
    assert _dot_and_count([tiny], [half], cfg) == ((0, 0), 0)
    assert _dot_and_count([tiny, tiny], [half, half], cfg) == ((1, hi), 0)
    assert _dot_and_count([tiny, (-1, hi)], [half, (1, 2)], cfg) == ((0, 0), 0)
    live = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        xs, ws = (list(rand_tensor(rng, (n,), cfg).data) for _ in range(2))
        xs[0] = (rng.choice((-1, 1)) * rng.randint(1, top), hi + rng.randint(1, 20))
        live += _dot_and_count(xs, ws, cfg)[0] != (0, 0)
        wide = (rng.choice((-1, 1)) * rng.randint(1, 1 << (p_bits + 6)),
                rng.randint(lo - 8, hi + 8))
        _dot_and_count(xs[1:], ws[1:], cfg, wide)
        got, count = _dot_and_count([], [], cfg, wide)
        if not count:
            assert got == (0, 0) or abs(_value(wide)) - abs(_value(got)) < Fraction(2) ** -got[1]
        bias = rand_tensor(rng, (1,), cfg, zero_share=0).data[0]
        assert _value(_dot_and_count([], [], cfg, bias)[0]) == _value(bias)
    assert live


@pytest.mark.parametrize("p_bits,scale_bits", SPEC_FORMATS)
def test_dot_is_its_exact_value_cut_once(p_bits, scale_bits):
    """Random dots with a bias, through ``_lane_dots``, ``linear`` and ``conv2d``,
    against their exact values in ``Fraction``s.  A total of at least
    ``2**(P - scale_min)`` saturates, once.  Otherwise the result r has the
    exact value's sign, ``|r| <= |exact|`` and ``|exact| - |r| < 2**-s`` for
    r's scale s (``scale_max`` for zero): one truncation."""
    cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
    rng = random.Random(p_bits * 100 + scale_bits + 21)
    lo = cfg.scale_min
    counts = [0, 0]

    def check(got, exact):
        saturated = _check_cut_once(got, exact, cfg)
        counts[saturated] += 1
        return saturated

    def exact_dot(xs, ws, bias):
        return sum(_value(x) * _value(w) for x, w in zip(xs, ws)) + _value(bias)

    def t(*shape):
        """Elements with magnitudes drawn by bit length, so short ones and
        totals below the floor are as likely as full ones."""
        return QTensor(shape, tuple(
            ScaledInt(rng.randint(0, (1 << rng.randint(1, p_bits)) - 1),
                      rng.randint(lo, cfg.scale_max), rng.random() < 0.5)
            for _ in range(math.prod(shape))))

    for _ in range(300):
        n = rng.randint(0, 8)
        xs, ws, (bias,) = t(n).data, t(n).data, t(1).data
        sat = SaturationCounter()
        got = _one_dot(xs, ws, cfg, sat, bias)
        assert sat.count == check(got, exact_dot(xs, ws, bias))
    for _ in range(3):
        x, w, b = t(4, 6), t(5, 6), t(5)
        got = linear(x, w, b, cfg)
        for r in range(4):
            for o in range(5):
                check(got.data[r * 5 + o], exact_dot(x.data[r * 6:(r + 1) * 6],
                                                     w.data[o * 6:(o + 1) * 6], b.data[o]))
        conv = ConvSpec(2, 3, 3, padding=1)
        x, w, b = t(1, 2, 4, 4), t(3, 2, 3, 3), t(3)
        got, rows = conv2d(x, w, b, conv, cfg), im2col(x, conv, range(2)).data
        for o in range(3):
            for pos in range(16):
                check(got.data[o * 16 + pos], exact_dot(rows[pos * 18:(pos + 1) * 18],
                                                        w.data[o * 18:(o + 1) * 18], b.data[o]))
    assert counts[False] > 150 and counts[True] > 100


@pytest.mark.parametrize("p_bits,scale_bits", SPEC_FORMATS)
def test_fused_stages_are_their_exact_values_cut_once(p_bits, scale_bits):
    """``spec.variance``, ``spec.affine`` and ``spec.softmax_numerator`` on
    random operands against their exact values in ``Fraction``s: each is one
    truncation, or one saturation, counted once.  Operands past the format
    stand for the wide eps term and for inverse roots of any scale."""
    cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
    rng = random.Random(p_bits * 100 + scale_bits + 26)
    lo, hi = cfg.scale_min, cfg.scale_max
    counts = [0, 0]

    def pair(wide=0):
        return (rng.choice((-1, 1)) * rng.randint(0, (1 << rng.randint(1, p_bits + wide)) - 1),
                rng.randint(lo - wide, hi + wide))

    def check(got, exact, sat):
        saturated = _check_cut_once(got, exact, cfg)
        assert sat.count == saturated
        counts[saturated] += 1

    for _ in range(300):
        ds = [pair() for _ in range(rng.randint(1, 8))]
        em, es = pair(8)
        eps, sat = (abs(em), es), SaturationCounter()
        var = spec.variance(ds, eps, cfg, sat)
        check(var, (sum(_value(d) ** 2 for d in ds) + len(ds) * _value(eps)) / len(ds), sat)
        d, inv, g, b = pair(), pair(4), pair(), pair()
        sat = SaturationCounter()
        check(spec.affine(d, inv, g, b, cfg, sat),
              _value(d) * _value(inv) * _value(g) + _value(b), sat)
        x, sat = pair(), SaturationCounter()
        num = spec.softmax_numerator(x, cfg, sat)
        check(num, 1 + _value(x) + _value(x) ** 2 / 2, sat)
        assert num[0] > 0
    assert counts[False] > 300 and counts[True] > 100


def test_a_dot_result_has_one_stored_form_per_value():
    """(2, 1) and (1, 0) are one value, and a dot is cut from its value
    alone: (2, 1)·(1, 0) and (1, 0)·(1, 0) give one pair, the form
    ``quantize`` gives 1, through ``_lane_dots`` and through ``linear``."""
    two, one = ScaledInt(2, 1), ScaledInt(1, 0)
    unit = quantize(1.0, CFG)
    assert _dot_and_count([two], [one], CFG) == _dot_and_count([one], [one], CFG) == (unit, 0)
    assert _dot_and_count([two, one, ZERO], [one, ScaledInt(1, 0, True), one], CFG) == ((0, 0), 0)
    w = QTensor((1, 2), (one, ScaledInt(3, 2)))
    outs = []
    for row in ((two, ScaledInt(5, 4)), (one, ScaledInt(10, 5))):
        x = QTensor((1, 2), row)
        outs.append(linear(x, w, None, CFG).data)
        assert outs[-1] == spec_linear(x, w, None, CFG, SaturationCounter()).data
    assert outs[0] == outs[1]
    assert linear(QTensor((1, 2), (two, ZERO)), w, None, CFG).data == (unit,)


def test_products_below_the_ceiling_step_add_up_before_the_cut():
    """Products finer than the ceiling's step are exact in the accumulator:
    one alone flushes to zero, but two of them make the finest step, and
    beside two full products that cancel to one unit, the dot is that unit
    plus what the cut keeps of them."""
    half = 1 << (CFG.p_bits - 1)
    dead = ScaledInt(half, CFG.scale_max)  # its square is 2**-16
    assert _dot_and_count([dead], [dead], CFG) == ((0, 0), 0)
    assert _dot_and_count([dead, dead], [dead, dead], CFG) == ((1, CFG.scale_max), 0)
    xs = [dead, ScaledInt(half + 1, 0), ScaledInt(half, 0, True)]
    ws = [dead, ScaledInt(half, 7), ScaledInt(half, 7)]
    assert _dot_and_count(xs, ws, CFG) == (quantize(1.0, CFG), 0)


@pytest.mark.parametrize("op", ["conv2d", "linear", "matmul"])
def test_operands_above_the_scale_ceiling_match_spec(op):
    """A hand-built value with a scale above scale_max lies off the
    ``2**-scale_max`` grid; conv2d, linear and matmul read such an operand's
    pairs and give the spec composition's bytes and count, live products
    included."""
    rng = random.Random(1900)
    hi = CFG.scale_max
    off = tuple(ScaledInt(rng.randint(1, 255), hi + rng.randint(1, 20), rng.random() < 0.5)
                for _ in range(24))
    x, w = rand_tensor(rng, (2, 2, 3, 4)), rand_tensor(rng, (3, 2, 2, 2))
    x, w = QTensor(x.shape, x.data[:-24] + off), QTensor(w.shape, off)
    rows, flat_w, cols = QTensor((6, 8), x.data), QTensor((3, 8), w.data), QTensor((8, 3), off)
    calls = {
        "conv2d": (lambda sat: conv2d(x, w, None, ConvSpec(2, 3, 2, padding=1), CFG, sat),
                   lambda sat: spec_conv2d(x, w, None, ConvSpec(2, 3, 2, padding=1), CFG, sat)),
        "linear": (lambda sat: linear(rows, flat_w, None, CFG, sat),
                   lambda sat: spec_linear(rows, flat_w, None, CFG, sat)),
        "matmul": (lambda sat: matmul(rows, cols, CFG, sat),
                   lambda sat: spec_matmul(rows, cols, CFG, sat)),
    }
    fused, composed = calls[op]
    got_sat, want_sat = SaturationCounter(), SaturationCounter()
    got, want = fused(got_sat), composed(want_sat)
    assert got.data == want.data and got_sat.count == want_sat.count
    assert any(e.magnitude for e in got.data)


# --- the fused kernel against the spec --------------------------------------
# conv2d, linear and matmul run a fused multiply-accumulate on fixed-point
# ints; the functions below are the composition from tests/spec.py they must
# match bit for bit: one spec.dot per output, with the bias inside it.

def spec_conv2d(x, w, bias, conv, cfg, sat):
    """``conv2d`` composed from the spec: each output is one ``dot`` over the
    in-range taps of the channels it reads, in channel, ky, kx order, plus
    the bias."""
    batch, in_ch, height, width = x.shape
    out_ch, k, s, p = conv.out_channels, conv.kernel, conv.stride, conv.padding
    w_ch = 1 if conv.depthwise else in_ch
    h_out, w_out = (height + 2 * p - k) // s + 1, (width + 2 * p - k) // s + 1
    out = []
    for b in range(batch):
        for o in range(out_ch):
            chans = [o // (out_ch // in_ch)] if conv.depthwise else range(in_ch)
            for oh in range(h_out):
                for ow in range(w_out):
                    xs, ws = [], []
                    for ci, i in enumerate(chans):
                        for ky in range(k):
                            for kx in range(k):
                                ih, iw = oh * s - p + ky, ow * s - p + kx
                                if 0 <= ih < height and 0 <= iw < width:
                                    xs.append(x.data[((b * in_ch + i) * height + ih) * width + iw])
                                    ws.append(w.data[((o * w_ch + ci) * k + ky) * k + kx])
                    out.append(spec.dot(xs, ws, cfg, sat,
                                        (0, 0) if bias is None else bias.data[o]))
    return QTensor((batch, out_ch, h_out, w_out), tuple(out))


def spec_linear(x, w, bias, cfg, sat):
    """``linear`` composed from the spec: each output is one ``dot`` of an
    input row with a weight row, plus the bias.  Rows are counted from the
    shape, so an empty trailing axis gives each output its bias alone."""
    out_f, in_f = w.shape
    out = []
    for r in range(math.prod(x.shape[:-1])):
        for o in range(out_f):
            out.append(spec.dot(x.data[r * in_f:(r + 1) * in_f],
                                w.data[o * in_f:(o + 1) * in_f], cfg, sat,
                                (0, 0) if bias is None else bias.data[o]))
    return QTensor(x.shape[:-1] + (out_f,), tuple(out))


def spec_matmul(a, b, cfg, sat):
    """``matmul`` composed from the spec: one ``dot`` per row and column."""
    (m, k), (_, n) = a.shape, b.shape
    return QTensor((m, n), tuple(
        spec.dot(a.data[i * k:(i + 1) * k], b.data[j::n], cfg, sat)
        for i in range(m) for j in range(n)))


def _differential_cases(cfg, rng):
    """(name, fused call, oracle call) triples on fresh random tensors."""
    def t(*shape):
        return rand_tensor(rng, shape, cfg, zero_share=rng.choice([0.0, 0.2, 0.6]))
    stride, pad = rng.randint(1, 2), rng.randint(0, 2)
    x = t(2, 2, 5, 4)
    dense = ConvSpec(2, 3, 3, stride=stride, padding=pad)
    depth = ConvSpec(2, 4, 2, stride=stride, padding=pad, depthwise=True)
    w_dense, w_depth, b3, b4 = t(3, 2, 3, 3), t(4, 1, 2, 2), t(3), t(4)
    rows, w_lin, b_lin = t(3, 2, 6), t(4, 6), t(4)
    a, b = t(3, 5), t(5, 4)
    # k = 1 convs, drawn last so the cases above keep their tensors
    stride, pad = rng.randint(1, 2), rng.randint(0, 2)
    point = ConvSpec(2, 3, 1, stride=stride, padding=pad)
    point_depth = ConvSpec(2, 4, 1, stride=stride, padding=pad, depthwise=True)
    w_point, w_point_depth = t(3, 2, 1, 1), t(4, 1, 1, 1)
    return [
        ("pointwise", lambda sat: conv2d(x, w_point, b3, point, cfg, sat),
         lambda sat: spec_conv2d(x, w_point, b3, point, cfg, sat)),
        ("depthwise-pointwise", lambda sat: conv2d(x, w_point_depth, None, point_depth, cfg, sat),
         lambda sat: spec_conv2d(x, w_point_depth, None, point_depth, cfg, sat)),
        ("conv2d", lambda sat: conv2d(x, w_dense, b3, dense, cfg, sat),
         lambda sat: spec_conv2d(x, w_dense, b3, dense, cfg, sat)),
        ("conv2d-nobias", lambda sat: conv2d(x, w_dense, None, dense, cfg, sat),
         lambda sat: spec_conv2d(x, w_dense, None, dense, cfg, sat)),
        ("depthwise", lambda sat: conv2d(x, w_depth, b4, depth, cfg, sat),
         lambda sat: spec_conv2d(x, w_depth, b4, depth, cfg, sat)),
        ("linear", lambda sat: linear(rows, w_lin, b_lin, cfg, sat),
         lambda sat: spec_linear(rows, w_lin, b_lin, cfg, sat)),
        ("linear-nobias", lambda sat: linear(rows, w_lin, None, cfg, sat),
         lambda sat: spec_linear(rows, w_lin, None, cfg, sat)),
        ("matmul", lambda sat: matmul(a, b, cfg, sat),
         lambda sat: spec_matmul(a, b, cfg, sat)),
    ]


@pytest.mark.parametrize("p_bits", [2, 4, 8, 12])
@pytest.mark.parametrize("scale_bits", [3, 5, 6])
def test_fused_kernel_matches_scalar_oracle(p_bits, scale_bits):
    cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
    rng = random.Random(p_bits * 100 + scale_bits)
    saturations = 0
    for _ in range(4):
        for name, fused, oracle in _differential_cases(cfg, rng):
            got_sat, want_sat = SaturationCounter(), SaturationCounter()
            got, want = fused(got_sat), oracle(want_sat)
            assert got.shape == want.shape, name
            assert got.data == want.data, name
            assert got_sat.count == want_sat.count, name
            saturations += want_sat.count
    assert saturations > 0


def im2col(x, conv, channels):
    """One row per image and output position: the ``k*k`` taps of each of
    ``channels`` in channel, ky, kx order, ZERO where a tap falls outside."""
    batch, in_ch, height, width = x.shape
    k, s, p = conv.kernel, conv.stride, conv.padding
    h_out, w_out = (height + 2 * p - k) // s + 1, (width + 2 * p - k) // s + 1
    rows = []
    for b in range(batch):
        for oh in range(h_out):
            for ow in range(w_out):
                for i in channels:
                    for ky in range(k):
                        for kx in range(k):
                            ih, iw = oh * s - p + ky, ow * s - p + kx
                            inside = 0 <= ih < height and 0 <= iw < width
                            rows.append(x.data[((b * in_ch + i) * height + ih) * width + iw]
                                        if inside else ZERO)
    return QTensor((batch * h_out * w_out, len(channels) * k * k), tuple(rows))


@pytest.mark.parametrize("p_bits,scale_bits", [(8, 5), (4, 3)])
@pytest.mark.parametrize("conv", [
    ConvSpec(3, 4, 3, stride=2, padding=2),
    ConvSpec(3, 4, 1),
    ConvSpec(3, 4, 5, padding=1),
    ConvSpec(3, 6, 3, stride=2, padding=2, depthwise=True),
    ConvSpec(3, 3, 1, depthwise=True),
], ids=["dense-k3", "dense-k1", "dense-k5", "depthwise-k3", "depthwise-k1"])
def test_conv_is_linear_over_its_patches(p_bits, scale_bits, conv):
    """A conv equals ``linear`` over its im2col patch rows with the weight
    flattened to ``[O, C*k*k]``, byte for byte with the same saturation
    count; a depthwise conv equals it per channel group."""
    cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
    rng = random.Random(p_bits * 100 + conv.kernel)
    x = rand_tensor(rng, (2, 3, 7, 6), cfg)
    w_ch = 1 if conv.depthwise else conv.in_channels
    per = w_ch * conv.kernel ** 2
    w = rand_tensor(rng, (conv.out_channels, w_ch, conv.kernel, conv.kernel), cfg)
    bias = rand_tensor(rng, (conv.out_channels,), cfg)
    got_sat, want_sat = SaturationCounter(), SaturationCounter()
    got = conv2d(x, w, bias, conv, cfg, got_sat)
    n_groups = conv.in_channels // w_ch
    mult = conv.out_channels // n_groups
    per_group = []
    for g in range(n_groups):
        per_group.append(linear(
            im2col(x, conv, range(g * w_ch, (g + 1) * w_ch)),
            QTensor((mult, per), w.data[g * mult * per:(g + 1) * mult * per]),
            QTensor((mult,), bias.data[g * mult:(g + 1) * mult]), cfg, want_sat))
    batch, _, h_out, w_out = got.shape
    npos = h_out * w_out
    want = tuple(per_group[o // mult].data[(b * npos + pos) * mult + o % mult]
                 for b in range(batch) for o in range(conv.out_channels) for pos in range(npos))
    assert got.data == want
    assert got_sat.count == want_sat.count > 0


def test_fused_kernel_exhaustive_8bit_products():
    """Every positive 8-bit magnitude pair, at the scale sums on both sides of
    each edge of the range, through matmul's kernel: each product is a
    one-term dot, ``spec.dot``'s pair with its count, and has the value
    ``scale_mul`` gives it."""
    mags = range(1, 256)
    for total in (CFG.scale_min - 1, CFG.scale_min, CFG.scale_max, CFG.scale_max + 1):
        sa, sb = total // 2, total - total // 2
        a = QTensor((255, 1), tuple(ScaledInt(m, sa) for m in mags))
        b = QTensor((1, 255), tuple(ScaledInt(m, sb) for m in mags))
        got_sat, want_sat = SaturationCounter(), SaturationCounter()
        got = matmul(a, b, CFG, got_sat)
        want = [spec.dot([x], [y], CFG, want_sat) for x in a.data for y in b.data]
        assert got.data == tuple(want), total
        assert got_sat.count == want_sat.count, total
        assert list(map(dequantize, got.data)) == [
            dequantize(scale_mul(x, y, CFG)) for x in a.data for y in b.data], total


@pytest.mark.parametrize("total", [CFG.scale_min - 1, CFG.scale_min, CFG.scale_max,
                                   CFG.scale_max + 1, CFG.scale_max + 8,
                                   CFG.scale_max + 17])
def test_fused_kernel_exhaustive_signed_8bit_products(total):
    """Every signed 8-bit magnitude pair at scale sums on both sides of each
    edge of the range, up to one where every product flushes to zero.

    Each product alone through matmul must equal ``spec.dot`` of it.  The
    products of a positive x are then each summed with a fixed term one step
    from zero at the finest scale, and the one cut of that exact sum keeps
    every bit the product brings to it: a product cut before the add, or the
    term lost beside it, shows in that sum even where the product's own cut
    would hide it.  w carries both signs, so the term meets products of
    either sign."""
    signed = [m for m in range(-255, 256) if m]
    sa, sb = total // 2, total - total // 2
    xs = tuple(ScaledInt.from_signed(m, sa) for m in signed)
    ws = tuple(ScaledInt.from_signed(m, sb) for m in signed)
    n = len(signed)
    got_sat, want_sat = SaturationCounter(), SaturationCounter()
    got = matmul(QTensor((n, 1), xs), QTensor((1, n), ws), CFG, got_sat)
    assert got.data == tuple(spec.dot([x], [w], CFG, want_sat) for x in xs for w in ws)
    assert got_sat.count == want_sat.count
    if total > CFG.scale_max + 16:
        assert not any(p.magnitude for p in got.data)

    tiny = ScaledInt(1, CFG.scale_max, True)
    positive = xs[n // 2:]
    got_sat, want_sat = SaturationCounter(), SaturationCounter()
    got = matmul(QTensor((len(positive), 2), tuple(v for x in positive for v in (x, tiny))),
                 QTensor((2, n), ws + (ONE,) * n), CFG, got_sat)
    want = [spec.dot([x, tiny], [w, ONE], CFG, want_sat) for x in positive for w in ws]
    assert got.data == tuple(want)
    assert got_sat.count == want_sat.count


def test_out_of_format_bias_goes_through_the_cut():
    """With nothing to add to, a bias element wider than P bits or finer
    than the ceiling is cut like any dot's total: -300/2**16 comes back as
    -150/2**15, the form ``quantize`` gives that value, and 1000 * 2**16,
    past the floor, saturates once per output; through conv2d and linear."""
    wide, huge = ScaledInt(300, 16, True), ScaledInt(1000, -16)
    cut = quantize(-300 / 2 ** 16, CFG)
    assert cut == (-150, 15)
    x = QTensor((1, 1, 2, 2), (ZERO,) * 4)
    w = QTensor((1, 1, 1, 1), (ScaledInt(3, 0),))
    row_x, row_w = QTensor((2, 1), (ZERO,) * 2), QTensor((1, 1), w.data)
    for bias, want in ((wide, cut), (huge, (CFG.max_magnitude, CFG.scale_min))):
        sat = SaturationCounter()
        assert conv2d(x, w, QTensor((1,), (bias,)), ConvSpec(1, 1, 1), CFG, sat).data == (want,) * 4
        assert linear(row_x, row_w, QTensor((1,), (bias,)), CFG, sat).data == (want,) * 2
        assert sat.count == (6 if bias is huge else 0)


# --- ops._lane_dots at the edges of its lanes --------------------------------
# conv2d, linear and matmul add the O dots of an input row in L-bit lanes of
# one int, each offset by 2**(L-1), and cut each lane inline.  The cases below
# put totals at a lane's edges in every SPEC_FORMATS format and check them
# through the kernel, against box(fit(...)) lane for lane, and through the
# three ops against the spec, pairs and saturation counts.

def _lane_args(xs, ws, biases, cfg):
    """``_lane_dots``'s arguments but the last two, for rows ``xs`` of n
    pairs dotted with rows ``ws``, plus ``biases`` when given."""
    n = len(xs[0])
    ints, grid = ops._fixed([e for x in xs for e in x], cfg)
    w_ints, g_w = ops._fixed([e for w in ws for e in w], cfg)
    return ([ints[r * n:(r + 1) * n] for r in range(len(xs))], grid,
            max(map(abs, ints), default=0),
            ([w_ints[o * n:(o + 1) * n] for o in range(len(ws))], g_w), biases)


def _fit_each_lane(xs, ws, biases, cfg, sat):
    """``box(fit(t, G, cfg, sat), cfg)`` of each lane's exact total ``t``,
    row by row: what the kernel's inline cut stands for, on the call's one
    grid ``G``, the products' grid or a live bias's scale above it."""
    rows, grid, _, (wrows, g_w), _ = _lane_args(xs, ws, biases, cfg)
    top = max([grid + g_w] + [s for m, s in biases or () if m])
    out = []
    for row in rows:
        for o, wrow in enumerate(wrows):
            t = sum(map(mul, row, wrow)) << (top - grid - g_w)
            if biases and biases[o][0]:
                t += biases[o][0] << (top - biases[o][1])
            out.append(box(fit(t, top, cfg, sat), cfg))
    return out


def _lanes_match_spec(xs, ws, biases, cfg):
    """Rows ``xs`` of n pairs dotted with rows ``ws``, plus ``biases`` when
    given, through ``_lane_dots``, ``linear``, ``matmul`` (without the
    biases) and, for n > 0, a 1x1 conv that reads the n terms as channels:
    each gives the spec's pairs and saturation count.  ``_lane_dots`` runs
    on a cold box table, holding zero alone, and again on the warm one it
    left; both give, lane for lane, the very boxes and the saturation count
    of :func:`_fit_each_lane`.  Returns the ``spec.dot`` pairs, row by row."""
    n, n_rows, n_out = len(xs[0]), len(xs), len(ws)
    want_sat = SaturationCounter()
    want = [spec.dot(x, w, cfg, want_sat, b)
            for x in xs for w, b in zip(ws, biases or [(0, 0)] * n_out)]
    args = _lane_args(xs, ws, biases, cfg)
    table = ScaleConfig(cfg.p_bits, cfg.scale_bits)
    cold_sat, warm_sat, fit_sat = SaturationCounter(), SaturationCounter(), SaturationCounter()
    cold = ops._lane_dots(*args, table, cold_sat)
    warm = ops._lane_dots(*args, table, warm_sat)
    fitted = _fit_each_lane(xs, ws, biases, table, fit_sat)
    assert (cold, cold_sat.count) == (want, want_sat.count)
    assert all(a is b is c for a, b, c in zip(cold, warm, fitted, strict=True))
    assert warm_sat.count == fit_sat.count == want_sat.count
    x = QTensor((n_rows, n), tuple(e for r in xs for e in r))
    w = QTensor((n_out, n), tuple(e for r in ws for e in r))
    b = None if biases is None else QTensor((n_out,), tuple(biases))
    cols = QTensor((n, n_out), tuple(ws[o][i] for i in range(n) for o in range(n_out)))
    calls = [(lambda s: linear(x, w, b, cfg, s), lambda s: spec_linear(x, w, b, cfg, s)),
             (lambda s: matmul(x, cols, cfg, s), lambda s: spec_matmul(x, cols, cfg, s))]
    if n:
        image = QTensor((1, n, 1, n_rows), tuple(xs[r][i] for i in range(n) for r in range(n_rows)))
        kernel, conv = QTensor((n_out, n, 1, 1), w.data), ConvSpec(n, n_out, 1)
        calls.append((lambda s: conv2d(image, kernel, b, conv, cfg, s),
                      lambda s: spec_conv2d(image, kernel, b, conv, cfg, s)))
    for fused, composed in calls:
        got_sat, want_sat = SaturationCounter(), SaturationCounter()
        got, wanted = fused(got_sat), composed(want_sat)
        assert (got.data, got_sat.count) == (wanted.data, want_sat.count)
    return want


def _one_sign(rng, n, cfg, sign, lo=0):
    """n nonzero pairs of one sign at scales from ``lo`` to scale_max."""
    return tuple(ScaledInt.from_signed(sign * rng.randint(1, cfg.max_magnitude),
                                       rng.randint(lo, cfg.scale_max)) for _ in range(n))


@pytest.mark.parametrize("p_bits,scale_bits", SPEC_FORMATS)
def test_widest_lane_matches_spec(p_bits, scale_bits):
    """Every term at max |x| * max |w| with one sign per lane, plus the
    largest in-format bias of that sign, makes each lane's total the bound
    the kernel sizes its lanes by, and saturates once per output.  x's scale
    runs from scale_min, the format's widest lane, through each scale whose
    bound has a bit length within one of a multiple of 64, where a lane one
    bit narrower than the sign needs overflows into its neighbour."""
    cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
    lo, hi, top, n = cfg.scale_min, cfg.scale_max, cfg.max_magnitude, 3

    def bound(s):
        return n * (top << (hi - s)) * (top << (hi - lo)) + (top << (2 * hi - lo))

    edges = [s for s in range(lo, hi + 1) if (bound(s).bit_length() + 1) % 64 < 3]
    assert edges or bound(lo).bit_length() < 63
    ws = [(ScaledInt(top, lo),) * n, (ScaledInt(top, lo, True),) * n]
    biases = [ScaledInt(top, lo), ScaledInt(top, lo, True)]
    for s in [lo] + edges:
        got = _lanes_match_spec([(ScaledInt(top, s),) * n], ws, biases, cfg)
        assert got == [(top, lo), (-top, lo)]


@pytest.mark.parametrize("p_bits,scale_bits", SPEC_FORMATS)
def test_negative_lanes_beside_positive_ones_match_spec(p_bits, scale_bits):
    """Positive rows against weight rows and biases of one sign each, in
    lanes of alternating sign: a negative total would borrow from the lane
    above it but for its offset.  Each output keeps its lane's sign."""
    cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
    rng = random.Random(p_bits * 100 + scale_bits + 22)
    signs = (1, -1, 1, -1, -1, 1)
    for _ in range(12):
        n = rng.randint(1, 6)
        xs = [_one_sign(rng, n, cfg, 1) for _ in range(3)]
        ws = [_one_sign(rng, n, cfg, sign) for sign in signs]
        biases = [_one_sign(rng, 1, cfg, sign)[0] for sign in signs]
        got = _lanes_match_spec(xs, ws, biases, cfg)
        assert [(m > 0) - (m < 0) for m, _ in got] == list(signs) * 3
        _lanes_match_spec(xs, ws, None, cfg)


@pytest.mark.parametrize("p_bits,scale_bits", SPEC_FORMATS)
def test_terms_that_cancel_match_spec(p_bits, scale_bits):
    """A row ``a + a`` against ``b + (-b)`` cancels to exactly zero, beside
    lanes of either sign, with and without a zero bias on the cancelled
    lanes."""
    cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
    rng = random.Random(p_bits * 100 + scale_bits + 23)
    for _ in range(12):
        n = rng.randint(1, 4)
        a, b = _one_sign(rng, n, cfg, 1), tuple(rand_tensor(rng, (n,), cfg).data)
        cancel = b + tuple(negate(e) for e in b)
        ws = [cancel, _one_sign(rng, 2 * n, cfg, -1), cancel, _one_sign(rng, 2 * n, cfg, 1)]
        biases = [ZERO, _one_sign(rng, 1, cfg, -1)[0], ZERO, _one_sign(rng, 1, cfg, 1)[0]]
        for got in (_lanes_match_spec([a + a], ws, None, cfg),
                    _lanes_match_spec([a + a], ws, biases, cfg)):
            assert got[0] == got[2] == (0, 0)


@pytest.mark.parametrize("p_bits,scale_bits", SPEC_FORMATS)
def test_bias_above_the_product_grid_matches_spec(p_bits, scale_bits):
    """A bias whose scale is above the products' grid ``2 * scale_max``
    moves the call's one grid up to it, and every weight is shifted onto it:
    by a bit, by a few, and by more than a 64-bit lane, which takes the
    multi-word lanes in every format."""
    cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
    rng = random.Random(p_bits * 100 + scale_bits + 24)
    hi, top = cfg.scale_max, cfg.max_magnitude
    for shift in (1, 7, 70, 200):
        for _ in range(6):
            n = rng.randint(1, 4)
            xs = [tuple(rand_tensor(rng, (n,), cfg).data) for _ in range(2)]
            ws = [tuple(rand_tensor(rng, (n,), cfg).data) for _ in range(3)]
            above = ScaledInt.from_signed(rng.choice((-1, 1)) * rng.randint(1, top), 2 * hi + shift)
            biases = [rand_tensor(rng, (1,), cfg).data[0], above, ZERO]
            _lanes_match_spec(xs, ws, biases, cfg)


@pytest.mark.parametrize("p_bits,scale_bits", SPEC_FORMATS)
def test_empty_trailing_axis_lanes_match_spec(p_bits, scale_bits):
    """With no terms, every lane holds its bias alone: an in-format one, a
    zero and one above the ceiling are each cut once, and no bias gives
    zeros."""
    cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
    rng = random.Random(p_bits * 100 + scale_bits + 25)
    biases = [rand_tensor(rng, (1,), cfg, zero_share=0).data[0], ZERO,
              ScaledInt(rng.randint(1, cfg.max_magnitude), cfg.scale_max + 9, True)]
    assert _lanes_match_spec([(), ()], [(), (), ()], None, cfg) == [(0, 0)] * 6
    _lanes_match_spec([(), ()], [(), (), ()], biases, cfg)


@pytest.mark.parametrize("p_bits,scale_bits", SPEC_FORMATS)
@pytest.mark.parametrize("conv", [ConvSpec(2, 6, 3, padding=1, depthwise=True),
                                  ConvSpec(2, 3, 3, stride=2, padding=1)],
                         ids=["depthwise-x3", "stride-2"])
def test_conv_lanes_match_spec(p_bits, scale_bits, conv):
    """A depthwise conv with multiplier 3 and a stride-2 dense conv on
    positive inputs, one of them the format's largest value, with each
    output channel's weights and bias of one sign, alternating, so negative
    lanes sit beside positive ones: conv2d gives ``spec_conv2d``'s pairs and
    count, and each channel group's im2col patches do through the kernel,
    linear, matmul and a 1x1 conv."""
    cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
    rng = random.Random(p_bits * 100 + scale_bits + conv.out_channels)
    k, out_ch = conv.kernel, conv.out_channels
    w_ch = 1 if conv.depthwise else conv.in_channels
    per = w_ch * k * k
    data = list(_one_sign(rng, 2 * 2 * 5 * 5, cfg, 1))
    data[rng.randrange(len(data))] = ScaledInt(cfg.max_magnitude, cfg.scale_min)
    x = QTensor((2, 2, 5, 5), tuple(data))
    w = QTensor((out_ch, w_ch, k, k),
                tuple(e for o in range(out_ch) for e in _one_sign(rng, per, cfg, (-1) ** o)))
    b = QTensor((out_ch,), tuple(_one_sign(rng, 1, cfg, (-1) ** o)[0] for o in range(out_ch)))
    got_sat, want_sat = SaturationCounter(), SaturationCounter()
    got = conv2d(x, w, b, conv, cfg, got_sat)
    assert (got.data, got_sat.count) == (spec_conv2d(x, w, b, conv, cfg, want_sat).data,
                                         want_sat.count)
    groups = conv.in_channels // w_ch
    mult = out_ch // groups
    for g in range(groups):
        patches = im2col(x, conv, range(g * w_ch, (g + 1) * w_ch))
        rows = [patches.data[r * per:(r + 1) * per] for r in range(patches.shape[0])]
        ws = [w.data[o * per:(o + 1) * per] for o in range(g * mult, (g + 1) * mult)]
        _lanes_match_spec(rows, ws, list(b.data[g * mult:(g + 1) * mult]), cfg)


@pytest.mark.parametrize("p_bits,scale_bits", [(4, 3), (5, 3), (8, 5), (12, 10)])
def test_inline_cut_is_fit_lane_for_lane(monkeypatch, p_bits, scale_bits):
    """One call whose lanes hold every case the inline cut hands to ``fit``
    beside ones it boxes itself: a zero total, a nonzero total the ceiling
    flushes to zero, totals past the floor that saturate, negative lanes
    beside positive ones and the widest lane, every term at max |x| * max |w|
    plus the largest bias of one sign.  Cold, warm and with a full table,
    each lane is ``box(fit(t, G, cfg, sat), cfg)``'s pair, and the
    saturation count is its count."""
    cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
    rng = random.Random(p_bits * 100 + scale_bits + 25)
    lo, top = cfg.scale_min, cfg.max_magnitude
    tiny, huge = ScaledInt(1, cfg.scale_max), ScaledInt(top, lo)
    mids = [tuple(rand_tensor(rng, (2,), cfg, zero_share=0).data) for _ in range(3)]
    xs = [(tiny, tiny), (huge, huge)] + mids
    ws = [(huge, huge), (negate(huge),) * 2, (tiny, tiny), (ONE, negate(ONE))] + mids
    biases = [huge, negate(huge), ZERO, ZERO] + [e[0] for e in mids]
    got = _lanes_match_spec(xs, ws, biases, cfg)
    n_out = len(ws)
    assert got[2] == got[3] == (0, 0)  # tiny * tiny flushes, a - a cancels
    assert got[n_out:n_out + 2] == [(top, lo), (-top, lo)]  # the widest lanes saturate
    assert any(m > 0 for m, _ in got) and any(m < 0 for m, _ in got)

    monkeypatch.setattr(core, "MAX_BOXES", 1)
    full = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
    got_sat, want_sat = SaturationCounter(), SaturationCounter()
    assert ops._lane_dots(*_lane_args(xs, ws, biases, full), full, got_sat) == got
    assert _fit_each_lane(xs, ws, biases, full, want_sat) == got
    assert got_sat.count == want_sat.count > 0 and full.boxes == {ZERO: ZERO}


@pytest.mark.parametrize("fmt,full", [(f, False) for f in SPEC_FORMATS] + [((12, 6), True)],
                         ids=[str(f) for f in SPEC_FORMATS] + ["(12, 6)-full"])
def test_cut_each_is_box_of_fit_at_every_grid(fmt, full):
    """``_cut_each`` at every grid from ``scale_max``, where its shift can
    be 0, to ``2*scale_max + 2P``, on totals at the edges of its cut: 0,
    +-1, +-max_magnitude, and +-2**k, +-(2**k - 1) and +-(2**k + 1) where
    the P-bit cut starts, where the ceiling's cut gives way to it and past
    the floor.  Each output is ``box(fit(t, top, cfg, sat), cfg)``: the
    table's own box, or at (12, 6), whose table is filled to ``MAX_BOXES``
    first, an equal fresh box for a pair the table does not hold; the
    saturation counts are equal."""
    cfg = ScaleConfig(*fmt)
    p_bits, lo, hi = cfg.p_bits, cfg.scale_min, cfg.scale_max
    if full:
        fill = ((m, s) for s in range(hi, lo - 1, -1) for m in range(1, cfg.max_magnitude + 1))
        while len(cfg.boxes) < core.MAX_BOXES:
            box(next(fill), cfg)
    fresh = saturated = 0
    for top in range(hi, 2 * hi + 2 * p_bits + 1):
        least = top - hi
        ks = {0, 1} | {e + d for e in (p_bits, p_bits + least, p_bits + top - lo)
                       for d in (-1, 0, 1, 2)}
        ts = {0, 1, cfg.max_magnitude} | {(1 << k) + d for k in ks if k >= 0 for d in (-1, 0, 1)}
        ts = sorted(ts | {-t for t in ts})
        offset = 1 << (p_bits + top - lo + 3)
        got, got_sat, want_sat = [], SaturationCounter(), SaturationCounter()
        ops._cut_each([t + offset for t in ts], offset, top, cfg, got_sat, got)
        for t, q in zip(ts, got, strict=True):
            want = box(fit(t, top, cfg, want_sat), cfg)
            assert type(q) is ScaledInt and q == want, (top, t)
            if cfg.boxes.get(want) is want:
                assert q is want, (top, t)
            else:
                fresh += 1
        assert got_sat.count == want_sat.count
        saturated += got_sat.count
    assert saturated > 0
    assert (fresh > 0) == full and len(cfg.boxes) <= core.MAX_BOXES


@pytest.mark.parametrize("p_bits,scale_bits", [(8, 5), (12, 10)])
@pytest.mark.parametrize("n_out", [1, 9, 64])
def test_rows_around_a_chunk_match_spec(p_bits, scale_bits, n_out):
    """``_lane_dots`` reads lanes back a chunk of rows at a time; linear and
    matmul give the spec's pairs and saturation count with no row, one, a
    chunk less one, a chunk, a chunk and one, and two chunks and one, in
    64-bit lanes at (8, 5) and wider ones at (12, 10).  Every workload's
    row count is a multiple of 64, so none ends on a partial chunk."""
    cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
    rng = random.Random(p_bits * 1000 + n_out)

    def t(*shape):
        return QTensor(shape, tuple(quantize(rng.uniform(-2, 2), cfg)
                                    for _ in range(math.prod(shape))))

    chunk = max(1, ops._CHUNK_LANES // n_out)
    w, b, cols = t(n_out, 3), t(n_out), t(3, n_out)
    for n_rows in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
        x = t(n_rows, 3)
        for got, want in [(lambda s: linear(x, w, b, cfg, s), lambda s: spec_linear(x, w, b, cfg, s)),
                          (lambda s: matmul(x, cols, cfg, s), lambda s: spec_matmul(x, cols, cfg, s))]:
            got_sat, want_sat = SaturationCounter(), SaturationCounter()
            assert (got(got_sat).data, got_sat.count) == (want(want_sat).data, want_sat.count), n_rows


@pytest.mark.parametrize("order", ["big", "little"])
@pytest.mark.parametrize("p_bits,scale_bits", [(8, 5), (12, 10)])
def test_dot_ops_do_not_depend_on_the_host_byte_order(monkeypatch, order, p_bits, scale_bits):
    """``linear``, ``matmul`` and ``conv2d`` give the spec's pairs and
    saturation counts whatever ``sys.byteorder`` reads, so a big-endian host
    gets the outputs a little-endian one does.  Values in [-2, 2] read
    64-bit lanes at (8, 5) and wider ones at (12, 10)."""
    monkeypatch.setattr(sys, "byteorder", order)
    cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
    rng = random.Random(23)

    def t(*shape):
        return QTensor(shape, tuple(quantize(rng.uniform(-2, 2), cfg)
                                    for _ in range(math.prod(shape))))

    x, w, b, cols = t(4, 6), t(5, 6), t(5), t(6, 3)
    image, kernel, k_bias = t(1, 2, 4, 4), t(3, 2, 3, 3), t(3)
    conv = ConvSpec(2, 3, 3, padding=1)
    for got, want in [(lambda s: linear(x, w, b, cfg, s), lambda s: spec_linear(x, w, b, cfg, s)),
                      (lambda s: matmul(x, cols, cfg, s), lambda s: spec_matmul(x, cols, cfg, s)),
                      (lambda s: conv2d(image, kernel, k_bias, conv, cfg, s),
                       lambda s: spec_conv2d(image, kernel, k_bias, conv, cfg, s))]:
        got_sat, want_sat = SaturationCounter(), SaturationCounter()
        assert (got(got_sat).data, got_sat.count) == (want(want_sat).data, want_sat.count)


@pytest.mark.parametrize("op", ["conv2d", "depthwise", "linear", "matmul"])
def test_dot_ops_cut_each_output_once_without_dot(monkeypatch, op):
    """Every output of conv2d, linear and matmul comes from ``_lane_dots``,
    and on a warm box table ``fit`` runs only for the lanes the table
    misses: the zero outputs and the saturations.  Counts, so they hold on
    any machine, and a per-output dot loop, one ``fit`` per output, cannot
    come back unseen."""
    rng = random.Random(22)
    calls = {"fit": 0, "lanes": 0}
    fit_, lane_dots = ops.fit, ops._lane_dots

    def counted_fit(*args):
        calls["fit"] += 1
        return fit_(*args)

    def counted_lanes(*args):
        out = lane_dots(*args)
        calls["lanes"] += len(out)
        return out

    monkeypatch.setattr(ops, "fit", counted_fit)
    monkeypatch.setattr(ops, "_lane_dots", counted_lanes)
    x = rand_tensor(rng, (2, 3, 6, 5))
    fn, *operands = {
        "conv2d": (conv2d, x, rand_tensor(rng, (4, 3, 3, 3)), rand_tensor(rng, (4,)),
                   ConvSpec(3, 4, 3, stride=2, padding=1)),
        "depthwise": (conv2d, x, rand_tensor(rng, (6, 1, 2, 2)), None,
                      ConvSpec(3, 6, 2, depthwise=True)),
        "linear": (linear, x, rand_tensor(rng, (7, 5)), rand_tensor(rng, (7,))),
        "matmul": (matmul, rand_tensor(rng, (9, 5)), rand_tensor(rng, (5, 4))),
    }[op]
    cfg, sat = ScaleConfig(), SaturationCounter()
    first = fn(*operands, cfg)
    calls.update(fit=0, lanes=0)
    out = fn(*operands, cfg, sat)
    misses = sum(not m for m, _ in out.data) + sat.count
    assert out == first
    assert calls == {"fit": misses, "lanes": out.size}
    assert misses < out.size


# --- the pair-level non-linear operators against the spec and the primitives
# layer_norm, softmax and gelu run on int pairs; the functions below are the
# composition they must match bit for bit, saturations included: layer_norm's
# and softmax's from tests/spec.py, gelu's from the scalar primitives.

def spec_layer_norm(x, params, cfg, sat):
    """``layer_norm`` composed from the spec.  Each deviation is the exact
    ``n * (x_i - mean)`` on the row's largest scale ``top``, fitted once at
    the grid ``top``, or at the finest coarser one that keeps every
    deviation under ``2**room``, so their ``n`` squares sum below
    ``2**(P - 1 - scale_min)``.  ``variance`` gives ``c**2`` times the
    variance plus ``c**2 * eps``, with ``c = n * 2**(top - grid)``, in one
    cut; the Newton rule runs from the exponent seed, and ``affine`` cuts
    each output once."""
    n = x.shape[-1]
    (em, es), out = params.eps, []
    room = (cfg.p_bits - 1 - cfg.scale_min - n.bit_length()) // 2
    for r in range(x.size // n):
        row = x.data[r * n:(r + 1) * n]
        if all(e == row[0] for e in row[1:]):
            out.extend(params.beta.data)
            continue
        top = max(s for _, s in row)
        total = sum(m << (top - s) for m, s in row)
        exact = [n * (m << (top - s)) - total for m, s in row]
        grid = max(top, max(abs(v) for v in exact).bit_length() - room)
        devs = [spec.fit(v, grid, cfg, sat) for v in exact]
        if not any(m for m, _ in devs):
            out.extend(params.beta.data)
            continue
        var = spec.variance(devs, (em * n * n, es + 2 * (grid - top)), cfg, sat)
        if var[0] <= 0:
            raise DomainError("inverse square root needs a positive input")
        inv = spec.newton(var, spec.exponent_seed(var, cfg), NEWTON_ITERS, cfg, sat)[-1]
        out.extend(spec.affine(d, inv, g, b, cfg, sat)
                   for d, g, b in zip(devs, params.gamma.data, params.beta.data))
    return QTensor(x.shape, tuple(out))


def oracle_softmax_tensor(x, cfg, sat):
    """Each numerator one cut, their sum one cut, and each output the
    numerator's quotient by it."""
    n = x.shape[-1]
    out = []
    for r in range(x.size // n):
        nums = [spec.softmax_numerator(e, cfg, sat) for e in x.data[r * n:(r + 1) * n]]
        den = spec.sum_aligned(nums, cfg, sat)
        out.extend(spec.scale_div(num, den, cfg, sat) for num in nums)
    return QTensor(x.shape, tuple(out))


def oracle_gelu(x, cfg, sat, variant):
    x3 = scale_mul(scale_mul(x, x, cfg, sat), x, cfg, sat)
    a = scale_add(scale_mul(ScaledInt(102, 7), x, cfg, sat),
                  scale_mul(ScaledInt(18, 9), x3, cfg, sat), cfg, sat)
    if variant == GELU_SERIES_LINEAR:
        gate = scale_add(ONE, a, cfg, sat)
    else:
        a3 = scale_mul(scale_mul(a, a, cfg, sat), a, cfg, sat)
        if variant == GELU_SERIES_CUBED_CORRECTED:
            a3 = negate(scale_div(a3, ScaledInt(3, 0), cfg, sat))
        gate = sum_aligned([ONE, a, a3], cfg, sat)
    return shift_scale(scale_mul(x, gate, cfg, sat), 1, cfg, sat)


def _outcome(op):
    """``op``'s output elements, or the type of the error it raised, and the
    saturations it recorded on the way."""
    sat = SaturationCounter()
    try:
        result = op(sat).data
    except (DivisionByZero, DomainError) as exc:
        result = type(exc)
    return result, sat.count


@pytest.mark.parametrize("p_bits", [2, 4, 8, 12])
@pytest.mark.parametrize("scale_bits", [3, 5, 6])
def test_pair_nonlinear_ops_match_scalar_oracle(p_bits, scale_bits):
    cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
    rng = random.Random(p_bits * 1000 + scale_bits)
    saturations = 0
    for _ in range(3):
        n = rng.randint(2, 9)
        x = nonlinear_rows(rng, n, cfg)
        eps = rand_tensor(rng, (1,), cfg).data[0]
        params = LayerNormParams(rand_tensor(rng, (n,), cfg), rand_tensor(rng, (n,), cfg),
                                 ScaledInt(eps.magnitude, eps.scale))
        cases = [("layer_norm", lambda sat: layer_norm(x, params, cfg, sat),
                  lambda sat: spec_layer_norm(x, params, cfg, sat)),
                 ("softmax_tensor", lambda sat: softmax_tensor(x, cfg, sat),
                  lambda sat: oracle_softmax_tensor(x, cfg, sat))]
        for variant in GELU_VARIANTS:
            cases.append((variant, lambda sat, v=variant: gelu_map(x, cfg, sat, v),
                          lambda sat, v=variant: QTensor(x.shape, tuple(
                              oracle_gelu(e, cfg, sat, v) for e in x.data))))
        for name, pair_op, oracle in cases:
            got, want = _outcome(pair_op), _outcome(oracle)
            assert got == want, name
            saturations += want[1]
    assert saturations > 0


def test_softmax_numerator_is_its_spec_cut_and_positive_on_every_value():
    """Every in-format value at every format from (2, 2) to (8, 5), zero
    included: ``_softmax_numerator`` is ``spec.softmax_numerator``, with the
    same saturations, and positive, so no softmax denominator is zero.  With
    a cut per step, the 2**(P - 1) values whose square saturated gave a
    numerator <= 0."""
    for p_bits in range(2, 9):
        for scale_bits in range(2, 6):
            cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
            got_sat, want_sat = SaturationCounter(), SaturationCounter()
            values = [(0, 0)] + [(m, s) for m in range(1, cfg.max_magnitude + 1)
                                 for s in range(cfg.scale_min, cfg.scale_max + 1)
                                 for m in (m, -m)]
            for x in values:
                got = ops._softmax_numerator(x, cfg, got_sat)
                assert got == spec.softmax_numerator(x, cfg, want_sat), (cfg, x)
                assert got[0] > 0, (cfg, x)
            assert got_sat.count == want_sat.count > 0


# Rows that divided by zero while each numerator was cut step by step: their
# squares saturated, and the numerators <= 0 cancelled the others.
ZERO_SUM_ROWS = [((8, 5), (-15794176, -933888, -933888, -15794176)),
                 ((2, 2), (2.0, -12.0)), ((2, 3), (-8.0, -48.0)), ((3, 2), (4.0, -28.0))]


@pytest.mark.parametrize("fmt,row", ZERO_SUM_ROWS, ids=[str(f) for f, _ in ZERO_SUM_ROWS])
def test_rows_whose_cut_numerators_cancelled_now_divide(fmt, row):
    """Each row through ``softmax_tensor`` is the spec's, saturations
    included.  As the keys of one feature, with unit queries and values and
    ``d_m = 1``, whose ``1/sqrt`` is exactly 1, every score row is the row
    itself, so both attentions give the sum of its probabilities in every
    output."""
    cfg, t = ScaleConfig(*fmt), len(row)
    x = QTensor((1, t), tuple(quantize(v, cfg) for v in row))
    probs = _outcome(lambda sat: softmax_tensor(x, cfg, sat))
    assert probs == _outcome(lambda sat: oracle_softmax_tensor(x, cfg, sat))
    assert all(m >= 0 for m, _ in probs[0])
    keys, ones = QTensor((t, 1), x.data), QTensor((t, 1), (quantize(1.0, cfg),) * t)
    assert dequantize(ops._inv_root(ones, ones, ones, 1, cfg, None)) == 1.0
    want = QTensor((t, 1), matmul(softmax_tensor(x, cfg), ones, cfg).data * t)
    assert attention(ones, keys, ones, 1, cfg) == want
    assert factorized_attention(ones, keys, ones, 1, cfg) == want


def test_one_grid_rows_match_spec_at_their_edges(monkeypatch):
    """softmax_tensor and layer_norm, each of whose rows is divided or cut on
    one grid, against ``oracle_softmax_tensor`` and ``spec_layer_norm``, pair
    for pair and count for count, at every format from (2, 2) to (8, 5).

    Softmax rows: one whose numerators' scales run from ``scale_min`` (a
    saturated square) to ``min(P, scale_max)`` (the numerator 1/2 at
    x = -1), one that saturates nothing, a single saturating element, and
    ``ZERO_SUM_ROWS`` at their formats.  layer_norm rows: 0 beside one
    value at every scale, at the smallest and largest magnitude, so the
    variance runs from the finest step, where ``inv``'s scale is negative
    wherever ``scale_max >= 2P``, up to the largest, with eps at the finest
    step and zero; and random full-range rows.  gamma and beta mix their
    scales, and beta holds zeros.  Hand-built gamma and beta finer than the
    ceiling put the tail on beta's grid, above the products'.  A tail's grid
    stays above ``scale_max`` (``inv`` is at most about
    ``2**(scale_max/2)``), so a shift of 0 is checked on ``_cut_each``
    itself at ``top = scale_max``."""
    inv_scales, newton = [], ops.newton_inv_sqrt

    def recorded(*args):
        result = newton(*args)
        inv_scales.append(result[0][1])
        return result

    monkeypatch.setattr(ops, "newton_inv_sqrt", recorded)
    rng = random.Random(27)
    saturations = errors = 0

    def same(op, oracle):
        nonlocal saturations, errors
        got, want = _outcome(op), _outcome(oracle)
        assert got == want
        saturations += want[1]
        errors += isinstance(want[0], type)

    for p_bits in range(2, 9):
        for scale_bits in range(2, 6):
            cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
            lo, hi, top = cfg.scale_min, cfg.scale_max, cfg.max_magnitude
            span = [(m, s) for s in range(lo, hi + 1) for m in (1, -1, top, -top)]
            scales = {spec.softmax_numerator(x, cfg, SaturationCounter())[1] for x in span}
            assert (min(scales), max(scales)) == (lo, min(p_bits, hi))
            rows = [span, [(-1, 0)] + [(m, s) for s in range(hi + 1) for m in (1, -1)],
                    [(top, lo)]] + [[quantize(v, cfg) for v in row]
                                    for fmt, row in ZERO_SUM_ROWS if fmt == (p_bits, scale_bits)]
            for row in rows:
                x = QTensor((1, len(row)), tuple(box(e, cfg) for e in row))
                same(lambda sat: softmax_tensor(x, cfg, sat),
                     lambda sat: oracle_softmax_tensor(x, cfg, sat))
            affine = [(QTensor((2,), (ScaledInt(top, lo), ScaledInt(1, hi, True))),
                       QTensor((2,), (ZERO, ScaledInt(top // 2 + 1, hi)))),
                      (QTensor((2,), (ScaledInt(top, hi + 3), ScaledInt(1, lo))),
                       QTensor((2,), (ScaledInt(1, 3 * hi + p_bits), ScaledInt(3, hi + 1, True))))]
            x = nonlinear_rows(rng, 5, cfg)
            rows = [(ZERO, ScaledInt(m, s)) for s in range(lo, hi + 1) for m in (1, top)]
            rows += [x.data[r:r + 5] for r in range(0, x.size, 5)]
            wide = [rand_tensor(rng, (5,), cfg).data for _ in range(2)]
            wide[1] = (ZERO,) + wide[1][1:]
            for eps in (ScaledInt(1, hi), ZERO):
                for row in rows:
                    x = QTensor((1, len(row)), tuple(row))
                    for g, b in affine if len(row) == 2 else [[QTensor((5,), t) for t in wide]]:
                        params = LayerNormParams(g, b, eps)
                        same(lambda sat: layer_norm(x, params, cfg, sat),
                             lambda sat: spec_layer_norm(x, params, cfg, sat))
    assert saturations > 0 and 0 < errors
    assert min(inv_scales) < 0 < max(inv_scales)


def test_norm_ops_make_no_division_or_cut_per_output(monkeypatch):
    """On a warm box table softmax_tensor calls no ``quotient`` or
    ``pair_div``, and ``fit`` once per distinct input (its numerator) and
    once per output the table misses, the zero outputs here; layer_norm
    calls ``quotient`` once per row that does not short-circuit, and ``fit``
    once per deviation and once per output the table misses.  Counts, so
    they hold on any machine, and a per-output division or cut cannot come
    back unseen."""
    calls = dict.fromkeys(("fit", "quotient", "pair_div"), 0)

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    for name in calls:
        monkeypatch.setattr(ops, name, counted(name, getattr(ops, name)))
    rng, n, cfg = random.Random(27), 16, ScaleConfig()
    x = QTensor((9, n), tuple(quantize(rng.uniform(-2, 2), cfg) for _ in range(8 * n))
                + (quantize(0.75, cfg),) * n)
    params = LayerNormParams(QTensor((n,), tuple(quantize(rng.uniform(-2, 2), cfg)
                                                 for _ in range(n))),
                             QTensor((n,), tuple(quantize(rng.uniform(-1, 1), cfg)
                                                 for _ in range(n - 1)) + (ZERO,)),
                             ScaledInt(1, cfg.scale_max))
    for op, extra in [(lambda sat: softmax_tensor(x, cfg, sat),
                       lambda out: {"fit": len(set(x.data)) + out.data.count(ZERO)}),
                      (lambda sat: layer_norm(x, params, cfg, sat),
                       lambda out: {"fit": x.size + out.data[:8 * n].count(ZERO),
                                    "quotient": 8})]:
        first, sat = op(None), SaturationCounter()
        calls.update(dict.fromkeys(calls, 0))
        out = op(sat)
        assert out == first and sat.count == 0
        assert calls == {"fit": 0, "quotient": 0, "pair_div": 0, **extra(out)}


@pytest.mark.parametrize("variant", GELU_VARIANTS)
def test_gelu_exhaustive_matches_scalar_oracle(variant):
    """Every representable value of the default format, zero included."""
    values = [ZERO] + [ScaledInt(m, s, neg) for m in range(1, CFG.max_magnitude + 1)
                       for s in range(CFG.scale_min, CFG.scale_max + 1) for neg in (False, True)]
    got_sat, want_sat = SaturationCounter(), SaturationCounter()
    got = [gelu(e, CFG, got_sat, variant) for e in values]
    want = [oracle_gelu(e, CFG, want_sat, variant) for e in values]
    assert got == want
    assert got_sat.count == want_sat.count > 0



# --- each distinct input evaluated once per call ---------------------------
# gelu_map and softmax_tensor evaluate each distinct input pair once per call
# and replay its saturations on every repeat; the per-element gelu and the
# row-by-row softmax are their oracle.

def repeating_tensor(rng, shape, cfg):
    """Elements drawn from a pool of eight pairs, so most of them repeat.
    The pool holds the largest value of either sign, whose square saturates
    at the scale floor."""
    top = cfg.max_magnitude
    pool = list(rand_tensor(rng, (5,), cfg).data) + [
        ScaledInt(top, cfg.scale_min), ScaledInt(top, cfg.scale_min, True), ZERO]
    return QTensor(shape, tuple(rng.choice(pool) for _ in range(math.prod(shape))))


@pytest.mark.parametrize("p_bits", [4, 8, 12])
@pytest.mark.parametrize("scale_bits", [3, 5, 6])
@pytest.mark.parametrize("counted", [True, False], ids=["sat", "no-sat"])
def test_distinct_inputs_once_match_plain_evaluation(p_bits, scale_bits, counted):
    cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
    rng = random.Random(p_bits * 100 + scale_bits)
    n = 10
    x = repeating_tensor(rng, (6, n), cfg)
    big = ScaledInt(cfg.max_magnitude, cfg.scale_min)
    own = SaturationCounter()
    scale_mul(big, big, cfg, own)
    assert x.data.count(big) > 1 and own.count == 1
    cases = [(lambda sat: softmax_tensor(x, cfg, sat).data,
              lambda sat: tuple(e for r in range(0, x.size, n)
                                for e in softmax(x.data[r:r + n], cfg, sat)))]
    for variant in GELU_VARIANTS:
        cases.append((lambda sat, v=variant: gelu_map(x, cfg, sat, v).data,
                      lambda sat, v=variant: tuple(gelu(e, cfg, sat, v) for e in x.data)))
    saturations = 0
    for once, plain in cases:
        if counted:
            got_sat, want_sat = SaturationCounter(), SaturationCounter()
            assert once(got_sat) == plain(want_sat)
            assert got_sat.count == want_sat.count
            saturations += want_sat.count
        else:
            assert once(None) == plain(None)
    if counted:
        assert saturations > 0


@pytest.mark.parametrize("name, op", [
    ("gelu", lambda x: gelu_map(x, CFG, SaturationCounter())),
    ("_softmax_numerator", lambda x: softmax_tensor(x, CFG, SaturationCounter())),
], ids=["gelu_map", "softmax_tensor"])
def test_distinct_inputs_are_evaluated_again_on_every_call(monkeypatch, name, op):
    """The memo lives for one call: a cache kept between calls would make
    no evaluation the second time."""
    x = qt((3, 4), [0.5, -1.25, 3.0] * 4)
    fn = getattr(ops, name)
    calls = []
    monkeypatch.setattr(ops, name, lambda *args: calls.append(args[0]) or fn(*args))
    first = op(x)
    assert len(calls) == 3
    assert op(x) == first
    assert len(calls) == 6


def _empty(shape):
    return QTensor(shape, ())


_Z2 = qt((2,), [0, 0])
_SQ = qt((2, 2), [0.5, 0.25, 0.125, 1.0])

# One case per shape or argument check in ``ops``: the call, the error it
# must raise and the text naming the bad value.
_BAD_CALLS = {
    "convspec-stride": (lambda: ConvSpec(1, 1, 1, stride=0), ShapeError, "stride 0"),
    "layernorm-params": (lambda: LayerNormParams(_Z2, qt((3,), [0, 0, 0])),
                         ShapeError, "(2,) and (3,)"),
    "conv2d-rank": (lambda: conv2d(qt((1, 2, 2), [0] * 4), qt((1, 1, 1, 1), [1]), None,
                                   ConvSpec(1, 1, 1), CFG), ShapeError, "got (1, 2, 2)"),
    "conv2d-channels": (lambda: conv2d(qt((1, 2, 1, 1), [0, 0]), qt((1, 1, 1, 1), [1]), None,
                                       ConvSpec(1, 1, 1), CFG), ShapeError, "has 2 channels"),
    "conv2d-bias": (lambda: conv2d(qt((1, 1, 1, 1), [0]), qt((1, 1, 1, 1), [1]), _Z2,
                                   ConvSpec(1, 1, 1), CFG), ShapeError, "got (2,)"),
    "conv2d-kernel-fit": (lambda: conv2d(qt((1, 1, 2, 2), [0] * 4), qt((1, 1, 3, 3), [1] * 9),
                                         None, ConvSpec(1, 1, 3), CFG),
                          ShapeError, "kernel 3 does not fit the padded input (1, 1, 2, 2)"),
    "linear-weight-rank": (lambda: linear(_SQ, _Z2, None, CFG), ShapeError, "got (2,)"),
    "linear-input-dim": (lambda: linear(qt((2, 3), [0] * 6), _SQ, None, CFG),
                         ShapeError, "got (2, 3)"),
    "linear-bias": (lambda: linear(_SQ, _SQ, qt((3,), [0] * 3), CFG), ShapeError, "got (3,)"),
    "transpose-rank": (lambda: transpose(_Z2), ShapeError, "got (2,)"),
    "layer-norm-empty": (lambda: layer_norm(_empty((2, 0)),
                                            LayerNormParams(_empty((0,)), _empty((0,))), CFG),
                         ShapeError, "got (2, 0)"),
    "layer-norm-gamma": (lambda: layer_norm(qt((1, 3), [0] * 3), LayerNormParams(_Z2, _Z2), CFG),
                         ShapeError, "got (2,)"),
    "softmax-empty": (lambda: softmax([], CFG), ShapeError, "got 0"),
    "softmax-tensor-empty": (lambda: softmax_tensor(_empty((0,)), CFG), ShapeError, "got (0,)"),
    "gelu-variant": (lambda: gelu(ONE, CFG, variant="bogus"), ValueError, "'bogus'"),
    "attention-head-dim": (lambda: attention(_SQ, _SQ, _SQ, 0, CFG), ShapeError, "got 0"),
    "factorized-attention-shapes": (lambda: factorized_attention(_SQ, qt((2, 3), [0] * 6), _SQ,
                                                                 2, CFG),
                                    ShapeError, "(2, 3)"),
}


@pytest.mark.parametrize("case", sorted(_BAD_CALLS))
def test_bad_arguments_raise_naming_the_value(case):
    call, error, needle = _BAD_CALLS[case]
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert needle in str(exc.value)
