"""Tensor operator tests against independent FP64 oracles."""

import random

import pytest

from scaledq.core import (
    GELU_SERIES_CUBED,
    GELU_SERIES_CUBED_CORRECTED,
    GELU_SERIES_LINEAR,
    ScaleConfig,
    ScaledInt,
    ZERO,
    dequantize,
    quantize,
)
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
from scaledq import reference as ref

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
