"""Sanity checks for the FP64 reference layer and the error metrics."""

import math
import random
from fractions import Fraction

import pytest

from scaledq.core import GELU_SERIES_CUBED, GELU_SERIES_LINEAR, ScaledInt, quantize
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
        f = ref.FTensor((3,), (1.0,) * 3)
        with pytest.raises(ShapeError):
            ref.mse(q, f)

    def test_dequantize_tensor_round_trip(self):
        vals = [0.5, -0.25, 12.0, 0.0]
        q = QTensor((4,), tuple(quantize(v) for v in vals))
        f = ref.dequantize_tensor(q)
        assert list(f.data) == vals
