"""Tensor operator tests against independent FP64 oracles."""

import hashlib
import math
import random

import pytest

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
    dequantize,
    handle_overflow,
    negate,
    quantize,
    scale_add,
    scale_div,
    scale_mul,
    scale_sub,
    shift_scale,
)
from scaledq.newton import default_seed, newton_inv_sqrt
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
PINNED = {
    "attention": ("2925ec9d814a7c8fc002a6319a7dff8523e6d6f1058d270bbeb85dc7b8023698", 35),
    "conv2d-dense": ("302c3d1305173a90feee1cc8a5b40af023fd69901ddbd4746030db1d18a8f5eb", 477),
    "conv2d-depthwise": ("35d3e770c1b4ae88b2f93151c1c0592a97150bd23d7f3e9587a7d331847c2a36", 179),
    "factorized-attention": ("8cda0c10bf5b4e0593b58f8303a4f5bfd5a6449cf6a9432526f0e4cc56033239", 26),
    "gelu-map-series-cubed":
        ("f372dee8b9dddc9e4cc712d19736e4b8d12da0098b3ddd9f035efcf77a4d0f1a", 384),
    "gelu-map-series-cubed-corrected":
        ("2109005d0d9d33a7117de950feb090cfb6a26426abed7a8c125f2b7349178691", 317),
    "gelu-map-series-linear":
        ("8aa6697e25011881ec3ee99c7bd2f7993082bf7b0837dd4f6c97859595407d8c", 161),
    "layer-norm": ("168ec40d58b8dd57e174310b02bc8145e08e26274ad903d441ee84dc1074eb1d", 64),
    "linear": ("4a98805a2669ba12db4d6832f4a6efd037920f4a2ca87ec0b945a2e0dc16046c", 66),
    "linear-bias": ("ab443c36932b987c8481dd6175674cb919f478f1d1256c681bac2f0cf0ff495f", 69),
    "matmul": ("3ab68d92f9b55579c2c17277c6fe609cecad6174d3800a6c53cad2b1c63ba8f4", 21),
    "softmax-tensor": ("38cb5ea980ef732237f24649b599652daad0d56bca76c3d0c9eb3735cd9a511a", 28),
}


# SHA-256 of each output's exact values (``float.hex`` of every element) and
# its floor-saturation count, taken with ``PINNED``; unlike ``PINNED``, these
# hold across any change to how a value is stored.
PINNED_VALUES = {
    "attention": ("b6600366f59a877aa7cd4c1e0562253b48753d67a8549f421513d095610f2eaa", 35),
    "conv2d-dense": ("b60b7c7aefe46a5600d5c283580dd6a10184e3d264bf065baf614f9c61136636", 477),
    "conv2d-depthwise": ("93aa4b9f8f4d58d4dcc10683c8c715de46daca6728692df2c7737be56e9f8dd5", 179),
    "factorized-attention": ("59b01cd4512be5262a63b063d3ba9e969d7e6de6e0e26227350c14fd3d40c639", 26),
    "gelu-map-series-cubed":
        ("be7deab7f7f3c6392a74d9d6173344174012a1513bae79bbf7e5099df2b4e5cd", 384),
    "gelu-map-series-cubed-corrected":
        ("146fd1c0718be77c1939185e7b20386dd765fd28c21e8d26c504e3bdbec64800", 317),
    "gelu-map-series-linear":
        ("b4bc1ed8cc06364517580fec59dc0b7218b277e1dfd327fb57453d3ff1803e04", 161),
    "layer-norm": ("0902fdc049192d2d80e383e604a88c0db4dd4f9b4a7f2c67a8142b1b27bc3955", 64),
    "linear": ("3b4ec5b935ac9b7cbdff94388a9e7f7853ecf0c44921e96aff5b58a9faf30603", 66),
    "linear-bias": ("9cefdfcf0a4aebc4aa73f9fae31a460df62f1b819d200bfa41ebb8810be69006", 69),
    "matmul": ("7bc03d8caf4edd985f766adc6f2a7f750f94c776e8a6e45b4ba6376971670865", 21),
    "softmax-tensor": ("b0344f82741653262dd4fc9ef4294937bc4b53a2d65626aa664c6c8de15754b8", 28),
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


# --- the fused kernel against the scalar primitives -------------------------
# conv2d, linear and matmul run a fused multiply-accumulate on int pairs; the
# functions below are the plain scalar composition it must match bit for bit.

def oracle_dot(xs, ws, cfg, sat):
    return sum_aligned([scale_mul(x, w, cfg, sat) for x, w in zip(xs, ws)], cfg, sat)


def oracle_conv2d(x, w, bias, spec, cfg, sat):
    batch, in_ch, height, width = x.shape
    out_ch, k, s, p = spec.out_channels, spec.kernel, spec.stride, spec.padding
    w_ch = 1 if spec.depthwise else in_ch
    h_out, w_out = (height + 2 * p - k) // s + 1, (width + 2 * p - k) // s + 1
    out = []
    for b in range(batch):
        for o in range(out_ch):
            chans = [o // (out_ch // in_ch)] if spec.depthwise else range(in_ch)
            for oh in range(h_out):
                for ow in range(w_out):
                    per_channel = []
                    for ci, i in enumerate(chans):
                        xs, ws = [], []
                        for ky in range(k):
                            for kx in range(k):
                                ih, iw = oh * s - p + ky, ow * s - p + kx
                                if 0 <= ih < height and 0 <= iw < width:
                                    xs.append(x.data[((b * in_ch + i) * height + ih) * width + iw])
                                    ws.append(w.data[((o * w_ch + ci) * k + ky) * k + kx])
                        per_channel.append(oracle_dot(xs, ws, cfg, sat))
                    acc = sum_aligned(per_channel, cfg, sat)
                    if bias is not None:
                        acc = scale_add(acc, bias.data[o], cfg, sat)
                    out.append(acc)
    return QTensor((batch, out_ch, h_out, w_out), tuple(out))


def oracle_linear(x, w, bias, cfg, sat):
    out_f, in_f = w.shape
    out = []
    for r in range(x.size // in_f):
        for o in range(out_f):
            acc = oracle_dot(x.data[r * in_f:(r + 1) * in_f],
                             w.data[o * in_f:(o + 1) * in_f], cfg, sat)
            if bias is not None:
                acc = scale_add(acc, bias.data[o], cfg, sat)
            out.append(acc)
    return QTensor(x.shape[:-1] + (out_f,), tuple(out))


def oracle_matmul(a, b, cfg, sat):
    (m, k), (_, n) = a.shape, b.shape
    return QTensor((m, n), tuple(
        oracle_dot(a.data[i * k:(i + 1) * k], b.data[j::n], cfg, sat)
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
         lambda sat: oracle_conv2d(x, w_point, b3, point, cfg, sat)),
        ("depthwise-pointwise", lambda sat: conv2d(x, w_point_depth, None, point_depth, cfg, sat),
         lambda sat: oracle_conv2d(x, w_point_depth, None, point_depth, cfg, sat)),
        ("conv2d", lambda sat: conv2d(x, w_dense, b3, dense, cfg, sat),
         lambda sat: oracle_conv2d(x, w_dense, b3, dense, cfg, sat)),
        ("conv2d-nobias", lambda sat: conv2d(x, w_dense, None, dense, cfg, sat),
         lambda sat: oracle_conv2d(x, w_dense, None, dense, cfg, sat)),
        ("depthwise", lambda sat: conv2d(x, w_depth, b4, depth, cfg, sat),
         lambda sat: oracle_conv2d(x, w_depth, b4, depth, cfg, sat)),
        ("linear", lambda sat: linear(rows, w_lin, b_lin, cfg, sat),
         lambda sat: oracle_linear(rows, w_lin, b_lin, cfg, sat)),
        ("linear-nobias", lambda sat: linear(rows, w_lin, None, cfg, sat),
         lambda sat: oracle_linear(rows, w_lin, None, cfg, sat)),
        ("matmul", lambda sat: matmul(a, b, cfg, sat),
         lambda sat: oracle_matmul(a, b, cfg, sat)),
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


def test_fused_kernel_exhaustive_8bit_products():
    """Every positive 8-bit magnitude pair, at the scale sums on both sides of
    each edge of the range, through matmul's kernel and through scale_mul."""
    mags = range(1, 256)
    for total in (CFG.scale_min - 1, CFG.scale_min, CFG.scale_max, CFG.scale_max + 1):
        sa, sb = total // 2, total - total // 2
        a = QTensor((255, 1), tuple(ScaledInt(m, sa) for m in mags))
        b = QTensor((1, 255), tuple(ScaledInt(m, sb) for m in mags))
        got_sat, want_sat = SaturationCounter(), SaturationCounter()
        got = matmul(a, b, CFG, got_sat)
        want = [scale_mul(x, y, CFG, want_sat) for x in a.data for y in b.data]
        assert got.data == tuple(want), total
        assert got_sat.count == want_sat.count, total


@pytest.mark.parametrize("total", [CFG.scale_min - 1, CFG.scale_min, CFG.scale_max,
                                   CFG.scale_max + 1, CFG.scale_max + 8,
                                   CFG.scale_max + 17])
def test_fused_kernel_exhaustive_signed_8bit_products(total):
    """Every signed 8-bit magnitude pair at scale sums on both sides of each
    edge of the range, up to one where every product flushes to zero.

    Each product alone through matmul must equal ``scale_mul``.  The products
    of a positive x are then each summed with a fixed term one step from zero
    at the finest scale, which keeps every bit the product brings to the sum:
    a product left wider than P bits, or cut by a different shift, shows in
    that sum even where its own fit would hide it.  w carries both signs, so
    the term meets products of either sign."""
    signed = [m for m in range(-255, 256) if m]
    sa, sb = total // 2, total - total // 2
    xs = tuple(ScaledInt.from_signed(m, sa) for m in signed)
    ws = tuple(ScaledInt.from_signed(m, sb) for m in signed)
    n = len(signed)
    got_sat, want_sat = SaturationCounter(), SaturationCounter()
    got = matmul(QTensor((n, 1), xs), QTensor((1, n), ws), CFG, got_sat)
    products = [scale_mul(x, w, CFG, want_sat) for x in xs for w in ws]
    assert got.data == tuple(products)
    assert got_sat.count == want_sat.count
    if total > CFG.scale_max + 16:
        assert not any(p.magnitude for p in products)

    tiny = ScaledInt(1, CFG.scale_max, True)
    positive = xs[n // 2:]
    got_sat, want_sat = SaturationCounter(), SaturationCounter()
    got = matmul(QTensor((len(positive), 2), tuple(v for x in positive for v in (x, tiny))),
                 QTensor((2, n), ws + (ONE,) * n), CFG, got_sat)
    want = [sum_aligned([scale_mul(x, w, CFG, want_sat), tiny], CFG, want_sat)
            for x in positive for w in ws]
    assert got.data == tuple(want)
    assert got_sat.count == want_sat.count


def test_out_of_format_bias_passes_through_like_scale_add():
    """With nothing to add to, a bias element comes back as it was given,
    even one wider than P bits, exactly as ``scale_add`` returns it."""
    wide = ScaledInt(300, 16, True)
    bias = QTensor((1,), (wide,))
    x = QTensor((1, 1, 2, 2), (ZERO,) * 4)
    w = QTensor((1, 1, 1, 1), (ScaledInt(3, 0),))
    assert conv2d(x, w, bias, ConvSpec(1, 1, 1), CFG).data == (wide,) * 4
    row_w = QTensor((1, 1), w.data)
    assert linear(QTensor((2, 1), (ZERO,) * 2), row_w, bias, CFG).data == (wide,) * 2


# --- the pair-level non-linear operators against the scalar primitives -----
# layer_norm, softmax and gelu run on int pairs; the functions below are the
# scalar composition they must match bit for bit, saturations included.

def oracle_layer_norm(x, params, cfg, sat):
    n = x.shape[-1]
    count = handle_overflow(n, 0, cfg)
    out = []
    for r in range(x.size // n):
        row = x.data[r * n:(r + 1) * n]
        if all(e == row[0] for e in row[1:]):
            out.extend(params.beta.data)
            continue
        mean = scale_div(sum_aligned(row, cfg, sat), count, cfg, sat)
        devs = [scale_sub(e, mean, cfg, sat) for e in row]
        if all(d.is_zero() for d in devs):
            out.extend(params.beta.data)
            continue
        var = scale_div(sum_aligned([scale_mul(d, d, cfg, sat) for d in devs], cfg, sat),
                        count, cfg, sat)
        inv_std, _ = newton_inv_sqrt(scale_add(var, params.eps, cfg, sat),
                                     default_seed(cfg), cfg.newton_iters, cfg, sat)
        out.extend(scale_add(scale_mul(scale_mul(d, inv_std, cfg, sat), g, cfg, sat), b, cfg, sat)
                   for d, g, b in zip(devs, params.gamma.data, params.beta.data))
    return QTensor(x.shape, tuple(out))


def oracle_softmax_tensor(x, cfg, sat):
    n = x.shape[-1]
    out = []
    for r in range(x.size // n):
        nums = [sum_aligned([ONE, e, shift_scale(scale_mul(e, e, cfg, sat), 1, cfg, sat)],
                            cfg, sat)
                for e in x.data[r * n:(r + 1) * n]]
        den = sum_aligned(nums, cfg, sat)
        out.extend(scale_div(num, den, cfg, sat) for num in nums)
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
                  lambda sat: oracle_layer_norm(x, params, cfg, sat)),
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
