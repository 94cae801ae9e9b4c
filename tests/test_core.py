"""Arithmetic primitive tests: worked examples plus randomized properties.

Derived expectations are checked against exact rational arithmetic
(``fractions.Fraction``), never against the code under test.
"""

import copy
import dataclasses
import math
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from scaledq.core import (
    MAX_NEWTON_ITERS,
    DivisionByZero,
    RangeError,
    SaturationCounter,
    ScaleConfig,
    ScaledInt,
    ZERO,
    dequantize,
    fit,
    handle_overflow,
    negate,
    quantize,
    quotient,
    scale_add,
    scale_div,
    scale_mul,
    scale_sub,
    shift_scale,
)

CFG = ScaleConfig()


def as_fraction(q: ScaledInt) -> Fraction:
    mag = Fraction(q.magnitude, 1 << q.scale) if q.scale >= 0 else Fraction(q.magnitude << -q.scale)
    return -mag if q.negative else mag


class TestScaledInt:
    def test_canonical_zero(self):
        z = ScaledInt(0, 9, True)
        assert z == ZERO
        assert z.scale == 0 and not z.negative

    def test_from_signed(self):
        q = ScaledInt.from_signed(-122, 3)
        assert q.magnitude == 122 and q.scale == 3 and q.negative
        assert ScaledInt.from_signed(0, 5) == ZERO

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            ScaledInt(-1, 0)

    # The value-object contract, pinned independently of how the class is
    # built: equality, hashing, frozenness, copies, repr and canonical zero.

    def test_equal_values_are_equal_and_hash_equal(self):
        a, b = ScaledInt(122, 3, True), ScaledInt(122, 3, True)
        assert a == b and hash(a) == hash(b)
        assert a != ScaledInt(122, 3) and a != ScaledInt(122, 4, True)
        assert a != ScaledInt(121, 3, True)
        assert ScaledInt(7) == ScaledInt(7, 0, False)
        assert ScaledInt(magnitude=7, scale=2, negative=True) == ScaledInt(7, 2, True)
        assert len({a, b, ScaledInt(122, 3)}) == 2

    @pytest.mark.parametrize("name", ["magnitude", "scale", "negative"])
    def test_fields_cannot_be_assigned(self, name):
        q = ScaledInt(5, 2, True)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(q, name, 1)
        assert q == ScaledInt(5, 2, True)

    @pytest.mark.parametrize("q", [ScaledInt(122, 3, True), ScaledInt(255, -16),
                                   ScaledInt(1, 15, True), ZERO])
    def test_copies_round_trip(self, q):
        for copied in (pickle.loads(pickle.dumps(q)), copy.copy(q), copy.deepcopy(q),
                       dataclasses.replace(q)):
            assert type(copied) is ScaledInt
            assert copied == q and hash(copied) == hash(q)
            assert (copied.magnitude, copied.scale, copied.negative) == \
                (q.magnitude, q.scale, q.negative)

    def test_replace_goes_through_the_constructor(self):
        q = ScaledInt(122, 3, True)
        assert dataclasses.replace(q, magnitude=7) == ScaledInt(7, 3, True)
        assert dataclasses.replace(q, magnitude=0) == ZERO
        with pytest.raises(ValueError, match="unsigned"):
            dataclasses.replace(q, magnitude=-7)

    def test_repr(self):
        assert repr(ScaledInt(122, 3, True)) == \
            "ScaledInt(magnitude=122, scale=3, negative=True)"
        assert repr(ZERO) == "ScaledInt(magnitude=0, scale=0, negative=False)"
        assert repr(ScaledInt(0, 9, True)) == repr(ZERO)

    def test_zero_is_canonical_from_every_constructor(self):
        for z in (ScaledInt(0, 9, True), ScaledInt(0, -16), ScaledInt(0, 0, True),
                  ScaledInt.from_signed(0, 5), ScaledInt.from_signed(0, -3)):
            assert (z.magnitude, z.scale, z.negative) == (0, 0, False)
            assert z == ZERO and hash(z) == hash(ZERO)

    @pytest.mark.parametrize("magnitude", [-1, -255, -(1 << 70)])
    def test_negative_magnitude_message(self, magnitude):
        with pytest.raises(ValueError, match="magnitude must be unsigned; use from_signed"):
            ScaledInt(magnitude, 3, True)

    def test_from_signed_fields(self):
        q = ScaledInt.from_signed(-122, 3)
        assert (q.magnitude, q.scale, q.negative) == (122, 3, True)
        assert q == ScaledInt(122, 3, True) and q.signed_magnitude == -122
        p = ScaledInt.from_signed(122, 3)
        assert (p.magnitude, p.scale, p.negative) == (122, 3, False)
        assert ScaledInt.from_signed(-1, -16) == ScaledInt(1, -16, True)
        assert ScaledInt.from_signed(9) == ScaledInt(9)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScaleConfig(p_bits=1)
        with pytest.raises(ValueError):
            ScaleConfig(gelu_variant="nope")
        assert CFG.scale_min == -16 and CFG.scale_max == 15
        assert CFG.max_magnitude == 255

    @pytest.mark.parametrize("p_bits,scale_bits", [(511, 10), (767, 9), (1007, 5)])
    def test_widest_formats_fp64_holds(self, p_bits, scale_bits):
        cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
        assert math.isfinite(dequantize(ScaledInt(cfg.max_magnitude, cfg.scale_min)))
        assert dequantize(quantize(1.0, cfg)) == 1.0

    @pytest.mark.parametrize("p_bits,scale_bits",
                             [(512, 10), (768, 9), (1008, 5), (8, 11), (2, 10 ** 12)])
    def test_formats_past_fp64_refused(self, p_bits, scale_bits):
        with pytest.raises(ValueError, match="overflows FP64"):
            ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)

    @pytest.mark.parametrize("field,value", [("scale_bits", 1), ("scale_bits", -3),
                                             ("newton_iters", 0), ("newton_iters", -1),
                                             ("newton_iters", MAX_NEWTON_ITERS + 1),
                                             ("newton_iters", 10 ** 9)])
    def test_config_field_out_of_range_named(self, field, value):
        with pytest.raises(ValueError) as exc:
            ScaleConfig(**{field: value})
        assert type(exc.value) is ValueError
        assert str(exc.value).startswith(field) and str(exc.value).endswith(f"got {value}")

    def test_newton_iters_bound_is_inclusive(self):
        assert ScaleConfig(newton_iters=MAX_NEWTON_ITERS).newton_iters == MAX_NEWTON_ITERS


class TestQuantize:
    def test_exact_dyadic(self):
        q = quantize(15.25, CFG)
        assert (q.magnitude, q.scale, q.negative) == (244, 4, False)
        assert dequantize(q) == 15.25

    def test_zero(self):
        assert quantize(0.0, CFG) == ZERO

    def test_roundtrip_example(self):
        q = quantize(0.2561, CFG)
        assert abs(dequantize(q) - 0.2561) / 0.2561 <= 2 ** -7

    def test_tiny_collapses_to_zero(self):
        assert quantize(2 ** -17, CFG) == ZERO
        assert quantize(2 ** -16, CFG) == ZERO  # rounds half-to-even to 0

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            quantize(256 * 2 ** 16, CFG)
        with pytest.raises(RangeError):
            quantize(float("nan"), CFG)

    def test_negative_sign(self):
        q = quantize(-15.25, CFG)
        assert q.negative and dequantize(q) == -15.25

    def test_max_precision_policy(self):
        # the chosen scale is the largest one whose rounding still fits
        q = quantize(0.2561, CFG)
        assert q.scale < CFG.scale_max
        bigger = round(math.ldexp(0.2561, q.scale + 1))
        assert bigger > CFG.max_magnitude


class TestDequantize:
    @pytest.mark.parametrize("mag,scale,value", [
        (122, 3, 15.25),
        (33, 7, 0.2578125),
        (0, 0, 0.0),
    ])
    def test_values(self, mag, scale, value):
        assert dequantize(ScaledInt(mag, scale)) == value


class TestHandleOverflow:
    @pytest.mark.parametrize("raw,scale,want", [
        ((300, 5), None, (150, 4)),
        ((255, 5), None, (255, 5)),
        ((1020, 0), None, (255, -2)),
    ])
    def test_examples(self, raw, scale, want):
        got = handle_overflow(raw[0], raw[1], CFG)
        assert (got.magnitude, got.scale) == want

    def test_value_preserved_exactly_when_aligned(self):
        got = handle_overflow(1020, 0, CFG)
        assert dequantize(got) == 1020.0

    def test_scale_ceiling_truncates(self):
        # 7/2^18 cannot be stored finer than scale 15; 7 >> 3 vanishes
        assert handle_overflow(7, 18, CFG) == ZERO
        # trailing zeros survive the same clamp exactly
        got = handle_overflow(96, 18, CFG)
        assert (got.magnitude, got.scale) == (12, 15)

    def test_scale_floor_lifts_when_it_fits(self):
        sat = SaturationCounter()
        got = handle_overflow(3, -20, CFG, sat=sat)  # 3 * 2^20 == 48 * 2^16
        assert (got.magnitude, got.scale) == (48, -16)
        assert sat.count == 0

    def test_scale_floor_saturates_and_counts(self):
        sat = SaturationCounter()
        got = handle_overflow(200, -20, CFG, sat=sat)
        assert (got.magnitude, got.scale) == (255, -16)
        assert sat.count == 1


class TestMul:
    def test_exact_product(self):
        got = scale_mul(ScaledInt(3, 1), ScaledInt(5, 2), CFG)
        assert (got.magnitude, got.scale) == (15, 3)

    def test_overflowing_product_stays_exact_here(self):
        got = scale_mul(ScaledInt(16, 2), ScaledInt(32, 1), CFG)
        assert (got.magnitude, got.scale) == (128, 1)
        assert dequantize(got) == 64.0

    def test_identity(self):
        one = ScaledInt(1, 0)
        for q in [ScaledInt(7, 3), ScaledInt.from_signed(-200, -2), ZERO]:
            assert scale_mul(q, one, CFG) == q

    def test_sign_group(self):
        a, b = ScaledInt(3, 0, True), ScaledInt(5, 0, True)
        assert not scale_mul(a, b, CFG).negative
        assert scale_mul(a, negate(b), CFG).negative


class TestAddSub:
    def test_same_scale(self):
        got = scale_add(ScaledInt(1, 6), ScaledInt(2, 6), CFG)
        assert (got.magnitude, got.scale) == (3, 6)

    def test_alignment_to_larger_scale(self):
        got = scale_add(ScaledInt(1, 1), ScaledInt(1, 3), CFG)
        assert (got.magnitude, got.scale) == (5, 3)
        assert dequantize(got) == 0.625

    def test_overflow_keeps_value(self):
        got = scale_add(ScaledInt(255, 0), ScaledInt(255, 0), CFG)
        assert (got.magnitude, got.scale) == (255, -1)
        assert dequantize(got) == 510.0

    def test_cancellation(self):
        q = ScaledInt(5, 2)
        assert scale_sub(q, q, CFG) == ZERO

    def test_subtraction_sign(self):
        got = scale_sub(ScaledInt(1, 2), ScaledInt(3, 2), CFG)
        assert (got.magnitude, got.scale, got.negative) == (2, 2, True)


class TestDiv:
    def test_exact_quotient(self):
        got = scale_div(ScaledInt(15), ScaledInt(3), CFG)
        assert dequantize(got) == 5.0
        assert (got.magnitude, got.scale) == (160, 5)

    def test_hand_traced_7_over_2(self):
        got = scale_div(ScaledInt(7), ScaledInt(2), CFG)
        assert dequantize(got) == 3.5
        assert (got.magnitude, got.scale) == (224, 6)

    def test_divisor_scale_folded(self):
        got = scale_div(ScaledInt(122, 3), ScaledInt(2), CFG)
        assert dequantize(got) == 7.625

    def test_one_third(self):
        got = scale_div(ScaledInt(1), ScaledInt(3), CFG)
        err = abs(dequantize(got) - 1 / 3)
        # achieved error recorded: 170/512 leaves 0.00130, well under 2^-6
        assert err <= 2 ** -6
        assert err == pytest.approx(0.0013020833333333, abs=1e-12)

    def test_sign_rule(self):
        got = scale_div(ScaledInt.from_signed(-7), ScaledInt(2), CFG)
        assert dequantize(got) == -3.5
        got = scale_div(ScaledInt.from_signed(-7), ScaledInt.from_signed(-2), CFG)
        assert dequantize(got) == 3.5

    def test_zero_dividend(self):
        assert scale_div(ZERO, ScaledInt(9), CFG) == ZERO

    def test_zero_divisor(self):
        with pytest.raises(DivisionByZero):
            scale_div(ScaledInt(1), ZERO, CFG)

    def test_quotient_above_range_saturates_and_counts(self):
        sat = SaturationCounter()
        got = scale_div(ScaledInt(255, -16, True), ScaledInt(1, 15), CFG, sat)
        assert got == ScaledInt(CFG.max_magnitude, CFG.scale_min, True)
        assert sat.count == 1


class TestShiftScale:
    def test_halving_is_scale_increment(self):
        q = shift_scale(ScaledInt(9, 3), 1, CFG)
        assert (q.magnitude, q.scale) == (9, 4)

    def test_ceiling_clamp(self):
        q = shift_scale(ScaledInt(9, CFG.scale_max), 1, CFG)
        assert (q.magnitude, q.scale) == (4, CFG.scale_max)


# ---------------------------------------------------------------------------
# Randomized properties
# ---------------------------------------------------------------------------

signed_small = st.tuples(st.integers(1, 255), st.integers(-8, 7), st.booleans())


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(1, 15), st.integers(-8, 7), st.booleans(),
       st.integers(1, 15), st.integers(-8, 7), st.booleans())
def test_mul_exact_when_no_overflow(ma, sa, na, mb, sb, nb):
    a, b = ScaledInt(ma, sa, na), ScaledInt(mb, sb, nb)
    got = scale_mul(a, b, CFG)
    assert as_fraction(got) == as_fraction(a) * as_fraction(b)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(0, 7), st.integers(-8, 8), st.data())
def test_add_exact_when_no_overflow(shift, sa, data):
    ma = data.draw(st.integers(1, 254 >> shift))
    mb = data.draw(st.integers(1, 255 - (ma << shift)))
    na = data.draw(st.booleans())
    nb = data.draw(st.booleans())
    a, b = ScaledInt(ma, sa, na), ScaledInt(mb, sa + shift, nb)
    got = scale_add(a, b, CFG)
    assert as_fraction(got) == as_fraction(a) + as_fraction(b)
    diff = scale_sub(a, b, CFG)
    assert as_fraction(diff) == as_fraction(a) - as_fraction(b)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(1, (1 << 16) - 1), st.integers(0, 15))
def test_handle_overflow_error_bound(raw, raw_scale):
    got = handle_overflow(raw, raw_scale, CFG)
    true = Fraction(raw, 1 << raw_scale)
    rel = abs(true - as_fraction(got)) / true
    assert rel <= Fraction(1, 1 << (CFG.p_bits - 1))


@settings(max_examples=500, derandomize=True, deadline=None)
@given(st.integers(1, 255), st.integers(1, 255), st.integers(-4, 4), st.booleans(), st.booleans())
def test_div_undershoot_and_bound(a_mag, b_mag, scale, na, nb):
    a, b = ScaledInt(a_mag, scale, na), ScaledInt(b_mag, scale, nb)
    got = as_fraction(scale_div(a, b, CFG))
    true = as_fraction(a) / as_fraction(b)
    assert abs(got) <= abs(true)
    assert abs(true - got) / abs(true) <= Fraction(1, 64)


def test_x_minus_x_is_canonical_zero_sweep():
    rng = random.Random(2024)
    for _ in range(1000):
        q = ScaledInt(rng.randint(1, 255), rng.randint(-16, 15), rng.random() < 0.5)
        assert scale_sub(q, q, CFG) == ZERO


def test_determinism_bit_identical():
    rng = random.Random(7)
    cases = [(ScaledInt(rng.randint(1, 255), rng.randint(-8, 7)),
              ScaledInt(rng.randint(1, 255), rng.randint(-8, 7)))
             for _ in range(200)]
    first = [(scale_mul(a, b, CFG), scale_add(a, b, CFG), scale_div(a, b, CFG))
             for a, b in cases]
    second = [(scale_mul(a, b, CFG), scale_add(a, b, CFG), scale_div(a, b, CFG))
              for a, b in cases]
    assert first == second


# ---------------------------------------------------------------------------
# quotient against the recursive long division it replaced, on value and
# saturation count (the two store some exact quotients in different forms),
# and its storage form against quantize's
# ---------------------------------------------------------------------------

ORACLE_DIV_T_MAX = 5


def oracle_quotient(dividend, divisor, scale, cfg, sat=None):
    """The recursive scaled long division ``quotient`` used to run, kept
    verbatim with its minimum of ``ORACLE_DIV_T_MAX`` extraction rounds."""
    if divisor == 0:
        raise DivisionByZero("scaled division by zero")
    if dividend == 0:
        return 0, 0
    acc = 0
    acc_scale = 0
    rounds = 0
    max_mag = cfg.max_magnitude
    while True:
        if dividend < divisor:
            c = 1
            while (dividend << c) <= divisor:
                c += 1
            dividend <<= c
            scale += c
        q, rem = divmod(dividend, divisor)
        if acc == 0:
            acc, acc_scale = q, scale
        else:
            acc = (acc << (scale - acc_scale)) + q
            acc_scale = scale
        rounds += 1
        if rem == 0 or (acc > max_mag and rounds >= ORACLE_DIV_T_MAX):
            break
        dividend = rem
    return fit(acc, acc_scale, cfg, sat)


def _with_counts(fn, cases, cfg):
    """``fn(*case, cfg, sat)`` over ``cases``, each result with the running
    saturation count, so two runs agree only if every call saturates the
    same way."""
    sat = SaturationCounter()
    return [(*fn(*case, cfg, sat), sat.count) for case in cases]


def _values(quotients):
    """Each ``(magnitude, scale, count)`` as its exact value and the count."""
    return [(as_fraction(ScaledInt(m, s)), count) for m, s, count in quotients]


def assert_quantize_form(quotients, cfg):
    """Every nonzero quotient is stored as ``quantize`` stores its value."""
    for m, s, _ in quotients:
        if m:
            q = ScaledInt(m, s)
            assert quantize(dequantize(q), cfg) == q


@pytest.mark.parametrize("scale", [CFG.scale_min - 1, CFG.scale_min, 0,
                                   CFG.scale_max, CFG.scale_max + 1])
def test_quotient_matches_long_division_exhaustive(scale):
    cases = [(a, b, scale) for a in range(1, 256) for b in range(1, 256)]
    got = _with_counts(quotient, cases, CFG)
    assert _values(got) == _values(_with_counts(oracle_quotient, cases, CFG))
    assert_quantize_form(got, CFG)


@pytest.mark.parametrize("p_bits", [2, 4, 12])
@pytest.mark.parametrize("scale_bits", [3, 5, 6])
def test_quotient_matches_long_division_sampled(p_bits, scale_bits):
    cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
    rng = random.Random(p_bits * 100 + scale_bits)
    wide = 3 * p_bits
    cases = []
    for _ in range(3000):
        scale = rng.randint(cfg.scale_min - wide, cfg.scale_max + wide)
        a = rng.getrandbits(rng.randint(1, wide)) + 1
        b = rng.getrandbits(rng.randint(1, wide)) + 1
        # also a dyadic quotient a*u / (2**t * u), often not an integer
        u, t = rng.randint(1, 1 << p_bits), rng.randint(0, wide)
        cases += [(a, b, scale), (a * u, u << t, scale), (0, b, scale)]
    got = _with_counts(quotient, cases, cfg)
    assert _values(got) == _values(_with_counts(oracle_quotient, cases, cfg))
    assert_quantize_form(got, cfg)
    assert got[-1][2] > 0  # the floor saturates somewhere in the sample


# ---------------------------------------------------------------------------
# The signed int level: fit and quotient take the sign themselves, so a
# negated operand negates the result and saturates exactly where the
# unsigned call does
# ---------------------------------------------------------------------------

def _negated(results):
    return [(-m, s, count) for m, s, count in results]


def oracle_fit(magnitude, scale, cfg=CFG, sat=None):
    """``fit`` as it stood with two negations, kept verbatim: the scalar
    oracles of the kernel tests normalize through ``fit`` itself, so only an
    independent copy can catch a fault in it."""
    if magnitude == 0:
        return 0, 0
    negative = magnitude < 0
    if negative:
        magnitude = -magnitude
    k = magnitude.bit_length() - cfg.p_bits
    if k > 0:
        magnitude >>= k
        scale -= k
    if scale > cfg.scale_max:
        magnitude >>= scale - cfg.scale_max
        if magnitude == 0:
            return 0, 0
        scale = cfg.scale_max
    elif scale < cfg.scale_min:
        lift = cfg.scale_min - scale
        if (magnitude << lift) <= cfg.max_magnitude:
            magnitude <<= lift
        else:
            magnitude = cfg.max_magnitude
            if sat is not None:
                sat.record()
        scale = cfg.scale_min
    return -magnitude if negative else magnitude, scale


@pytest.mark.parametrize("scale", [CFG.scale_min - 9, CFG.scale_min - 1, CFG.scale_min, 0,
                                   CFG.scale_max, CFG.scale_max + 1, CFG.scale_max + 17])
def test_fit_is_odd_exhaustive(scale):
    mags = range(1 << 16)
    got = _with_counts(fit, [(m, scale) for m in mags], CFG)
    negated = _with_counts(fit, [(-m, scale) for m in mags], CFG)
    assert negated == _negated(got)
    assert got == _with_counts(oracle_fit, [(m, scale) for m in mags], CFG)
    assert negated == _with_counts(oracle_fit, [(-m, scale) for m in mags], CFG)
    assert (got[-1][2] > 0) == (scale <= CFG.scale_min)


@pytest.mark.parametrize("p_bits", [2, 4, 12])
@pytest.mark.parametrize("scale_bits", [3, 5, 6])
def test_fit_is_odd_sampled(p_bits, scale_bits):
    cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
    rng = random.Random(p_bits * 100 + scale_bits)
    wide = 3 * p_bits
    cases = [(rng.getrandbits(rng.randint(1, wide)),
              rng.randint(cfg.scale_min - wide, cfg.scale_max + wide)) for _ in range(5000)]
    got = _with_counts(fit, cases, cfg)
    negated_cases = [(-m, s) for m, s in cases]
    negated = _with_counts(fit, negated_cases, cfg)
    assert negated == _negated(got)
    assert got == _with_counts(oracle_fit, cases, cfg)
    assert negated == _with_counts(oracle_fit, negated_cases, cfg)
    assert got[-1][2] > 0  # the floor saturates somewhere in the sample


@pytest.mark.parametrize("scale", [-17, 0, 16])
def test_quotient_sign_exhaustive(scale):
    pairs = [(a, b) for a in range(256) for b in range(1, 256)]
    got = _with_counts(quotient, [(a, b, scale) for a, b in pairs], CFG)
    for sa, sb in [(-1, 1), (1, -1), (-1, -1)]:
        signed = _with_counts(quotient, [(sa * a, sb * b, scale) for a, b in pairs], CFG)
        assert signed == (got if sa == sb else _negated(got))
    assert (got[-1][2] > 0) == (scale == -17)


def test_signed_int_level_examples():
    assert fit(-5, 20, CFG) == fit(5, 20, CFG) == (0, 0)
    assert fit(-200, -20, CFG) == (-255, -16)
    assert quotient(-5, 3, 0, CFG) == quotient(5, -3, 0, CFG) == (-213, 7)


# ---------------------------------------------------------------------------
# quantize against the form it had before its range check was one
# comparison: the same ScaledInt, or the same error type and message, on
# the range edges, the non-finite values, subnormals and seeded floats over
# every binade
# ---------------------------------------------------------------------------

def oracle_quantize(value, cfg=CFG):
    """``quantize`` with its three range checks and ``min()``, kept verbatim."""
    if math.isnan(value) or math.isinf(value):
        raise RangeError(f"cannot quantize non-finite value {value!r}")
    av = abs(value)
    if av > math.ldexp(cfg.max_magnitude, -cfg.scale_min):
        raise RangeError(f"magnitude {av!r} exceeds representable range")
    if av < math.ldexp(1.0, -cfg.scale_max - 1):
        return ZERO
    exp = math.frexp(av)[1]
    scale = min(cfg.scale_max, cfg.p_bits - exp)
    magnitude = round(math.ldexp(av, scale))
    if magnitude > cfg.max_magnitude:
        scale -= 1
        magnitude = round(math.ldexp(av, scale))
    if magnitude == 0:
        return ZERO
    return ScaledInt(magnitude, scale, value < 0)


def _quantize_outcome(fn, value, cfg):
    try:
        return fn(value, cfg)
    except RangeError as exc:
        return type(exc), str(exc)


def _quantize_edges(cfg):
    """Both signs of: zero, the rounding threshold 2**-(scale_max + 1), the
    largest value and the floats next to each, every scale's round-up edge
    (2**P - 1/2) / 2**scale and its neighbours, subnormals, inf and nan."""
    tiny = math.ldexp(1, -cfg.scale_max - 1)
    top = math.ldexp(cfg.max_magnitude, -cfg.scale_min)
    values = [0.0, tiny, top, math.inf, math.nan, 5e-324, sys.float_info.min,
              math.nextafter(sys.float_info.min, 0.0), sys.float_info.max]
    for v in (tiny, top):
        values += [math.nextafter(v, 0.0), math.nextafter(v, math.inf)]
    for scale in range(cfg.scale_min, cfg.scale_max + 1):
        edge = math.ldexp(2 * cfg.max_magnitude + 1, -scale - 1)
        values += [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)]
    return values + [-v for v in values]


def _binade_floats(rng, cfg, n):
    """``n`` seeded floats of random sign and mantissa: half with a binade
    drawn from all of FP64's, subnormals included, half from the format's
    binades and a few past each end."""
    lo, hi = -cfg.scale_max - 4, cfg.p_bits - cfg.scale_min + 4
    values = []
    for i in range(n):
        e = rng.randint(-1074, 1023) if i % 2 else rng.randint(lo, hi)
        v = math.ldexp(rng.getrandbits(53) | 1 << 52, e - 52)
        values.append(-v if rng.random() < 0.5 else v)
    return values


@pytest.mark.parametrize("p_bits", [2, 8, 12])
@pytest.mark.parametrize("scale_bits", [3, 5, 6])
def test_quantize_matches_oracle(p_bits, scale_bits):
    cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
    values = _quantize_edges(cfg) + _binade_floats(random.Random(p_bits * 100 + scale_bits),
                                                   cfg, 10 ** 5)
    outcomes = {"zero": 0, "value": 0, "error": 0}
    for v in values:
        got = _quantize_outcome(quantize, v, cfg)
        assert got == _quantize_outcome(oracle_quantize, v, cfg), v
        outcomes["error" if type(got) is tuple else "value" if got.magnitude else "zero"] += 1
    assert min(outcomes.values()) > 1000, outcomes
