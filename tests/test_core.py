"""Arithmetic primitive tests: worked examples, randomized properties, and
checks against the specification.

Derived expectations are checked against exact rational arithmetic
(``fractions.Fraction``) or against the integer specification in
``tests/spec.py``, never against the code under test.
"""

import ast
import copy
import dataclasses
import importlib
import math
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import spec
from scaledq import core
from scaledq.core import (
    ONE,
    DivisionByZero,
    RangeError,
    SaturationCounter,
    ScaleConfig,
    ScaledInt,
    ZERO,
    dequantize,
    fit,
    handle_overflow,
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
        with pytest.raises(AttributeError):
            setattr(q, name, 1)
        assert q == ScaledInt(5, 2, True)

    @pytest.mark.parametrize("q", [ScaledInt(122, 3, True), ScaledInt(255, -16),
                                   ScaledInt(1, 15, True), ZERO])
    def test_copies_round_trip(self, q):
        for copied in (pickle.loads(pickle.dumps(q)), copy.copy(q), copy.deepcopy(q)):
            assert type(copied) is ScaledInt
            assert copied == q and hash(copied) == hash(q)
            assert (copied.magnitude, copied.scale, copied.negative) == \
                (q.magnitude, q.scale, q.negative)

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

    @pytest.mark.parametrize("q", [ScaledInt(122, 3, True), ScaledInt(255, -16),
                                   ScaledInt(1, 15, True), ZERO])
    def test_is_the_signed_pair(self, q):
        assert tuple(q) == (q.signed_magnitude, q.scale)

    @pytest.mark.parametrize("m,s", [(1020, 0), (-1020, 0), (3, -20), (-3, -20),
                                     (200, -20), (-200, -20), (7, 18), (-96, 18)])
    def test_from_signed_of_fit_is_fit(self, m, s):
        assert ScaledInt.from_signed(*fit(m, s, CFG)) == fit(m, s, CFG)

    @pytest.mark.parametrize("op", [
        lambda a, b: a < b, lambda a, b: a <= b, lambda a, b: a > b, lambda a, b: a >= b,
        lambda a, b: max(a, b), lambda a, b: sorted([a, b]), lambda a, b: a + b,
        lambda a, b: a * 2, lambda a, b: 2 * a])
    def test_ordering_and_sequence_arithmetic_refused(self, op):
        with pytest.raises(TypeError):
            op(ScaledInt(1, 0), ScaledInt(2, 5, True))

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

    @pytest.mark.parametrize("field,value", [("scale_bits", 1), ("scale_bits", -3)])
    def test_config_field_out_of_range_named(self, field, value):
        with pytest.raises(ValueError) as exc:
            ScaleConfig(**{field: value})
        assert type(exc.value) is ValueError
        assert str(exc.value).startswith(field) and str(exc.value).endswith(f"got {value}")


BOUNDS = ("max_magnitude", "scale_min", "scale_max", "max_value", "zero_below")
FORMATS = [(2, 2), (8, 5), (12, 6), (511, 10), (767, 9), (1007, 5)]


def bounds(cfg):
    return {name: getattr(cfg, name) for name in BOUNDS}


class TestConfigBounds:
    """The derived bounds are plain instance attributes set at construction:
    outside the dataclass fields and consistent through every copy."""

    @pytest.mark.parametrize("p_bits,scale_bits", FORMATS)
    def test_each_bound_equals_its_formula(self, p_bits, scale_bits):
        cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
        half = 2 ** (scale_bits - 1)
        assert bounds(cfg) == {"max_magnitude": 2 ** p_bits - 1, "scale_min": -half,
                               "scale_max": half - 1,
                               "max_value": float((2 ** p_bits - 1) * 2 ** half),
                               "zero_below": float(Fraction(1, 2 ** half))}

    @pytest.mark.parametrize("p_bits,scale_bits", FORMATS)
    def test_bounds_are_not_fields(self, p_bits, scale_bits):
        cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
        params = {"p_bits": p_bits, "scale_bits": scale_bits, "gelu_variant": "series-linear"}
        assert [f.name for f in dataclasses.fields(cfg)] == list(params)
        assert dataclasses.asdict(cfg) == params
        assert repr(cfg) == (f"ScaleConfig(p_bits={p_bits}, scale_bits={scale_bits}, "
                             f"gelu_variant='series-linear')")
        twin = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
        for name in BOUNDS:
            object.__setattr__(twin, name, -1)
        assert twin == cfg and hash(twin) == hash(cfg) and repr(twin) == repr(cfg)
        assert dataclasses.asdict(twin) == params

    @pytest.mark.parametrize("p_bits,scale_bits", FORMATS)
    def test_replace_recomputes_bounds(self, p_bits, scale_bits):
        cfg = dataclasses.replace(ScaleConfig(p_bits=p_bits, scale_bits=scale_bits), p_bits=12)
        assert bounds(cfg) == bounds(ScaleConfig(p_bits=12, scale_bits=scale_bits))
        assert cfg.max_magnitude == 4095

    @pytest.mark.parametrize("p_bits,scale_bits", FORMATS)
    @pytest.mark.parametrize("clone", [lambda c: pickle.loads(pickle.dumps(c)),
                                       copy.copy, copy.deepcopy])
    def test_copies_keep_bounds(self, p_bits, scale_bits, clone):
        cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
        got = clone(cfg)
        assert got == cfg and bounds(got) == bounds(cfg)
        assert vars(got) == vars(cfg)

    @pytest.mark.parametrize("p_bits,scale_bits", FORMATS)
    def test_bounds_cannot_be_assigned(self, p_bits, scale_bits):
        cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
        before = bounds(cfg)
        for name in BOUNDS:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, name, 0)
        assert bounds(cfg) == before

    def test_no_bound_is_a_class_attribute(self):
        # A property or cached_property of the same name is a class
        # descriptor, which keeps CPython from specializing fit's reads.
        assert not set(BOUNDS) & set(vars(ScaleConfig))


def _primitive_results(cfg, rng, n):
    """Results of every boxing primitive on seeded values over ``cfg``'s range."""
    values = [quantize(rng.uniform(-1, 1) * 2.0 ** rng.randint(-cfg.scale_max, cfg.p_bits), cfg)
              for _ in range(n)]
    out = list(values)
    for a, b in zip(values, values[1:]):
        out += [scale_mul(a, b, cfg), scale_add(a, b, cfg), scale_sub(a, b, cfg),
                shift_scale(a, rng.randint(-3, 3), cfg),
                handle_overflow(a[0] * b[0], a[1] + b[1], cfg)]
        if b[0]:
            out.append(scale_div(a, b, cfg))
    return out


def table_box(cfg, pair):
    """The box ``cfg.boxes`` holds for the in-format ``pair``: :data:`ZERO`
    for zero, else slot ``m`` of scale ``s``'s row, or ``None`` where that
    scale has no row or the slot is empty."""
    m, s = pair
    assert abs(m) <= cfg.max_magnitude and cfg.scale_min <= s <= cfg.scale_max
    row = cfg.boxes[s - cfg.scale_min]
    return ZERO if not m else row[m] if row else None


def slots_used(cfg):
    """Slots in the rows ``cfg.boxes`` has made."""
    return sum(1 for row in cfg.boxes if row) * (2 << cfg.p_bits)


class TestBox:
    """Every primitive boxes its result through ``core.box``: one shared
    ``ScaledInt`` per stored pair and config, held in ``cfg.boxes``."""

    def test_zero_is_the_canonical_box(self):
        cfg = ScaleConfig()
        assert core.box((0, 0), cfg) is ZERO and core.box((0, 7), cfg) is ZERO
        assert quantize(0.0, cfg) is ZERO and scale_sub(ONE, ONE, cfg) is ZERO
        assert handle_overflow(0, 7, cfg) is ZERO
        # zero makes no row, and no row ever holds it: slot 0 stays empty
        assert cfg.boxes == [None] * (1 << cfg.scale_bits)
        _primitive_results(cfg, random.Random(0), 300)
        rows = [row for row in cfg.boxes if row]
        assert rows and all(row[0] is None for row in rows)

    @pytest.mark.parametrize("p_bits,scale_bits", [(8, 5), (4, 3), (12, 6)])
    def test_every_primitive_result_is_the_tables_box(self, p_bits, scale_bits):
        cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
        results = _primitive_results(cfg, random.Random(p_bits), 300)
        assert all(type(q) is ScaledInt and q is table_box(cfg, q) for q in results)
        again = _primitive_results(cfg, random.Random(p_bits), 300)
        assert all(a is b for a, b in zip(results, again))
        assert len({id(q) for q in results}) == len(set(results))

    def test_table_holds_only_in_format_pairs(self):
        cfg = ScaleConfig()
        _primitive_results(cfg, random.Random(3), 300)
        held = [list(row) if row else row for row in cfg.boxes]
        wide = (-300, 16)
        assert core.box(wide, cfg) == wide and cfg.boxes == held
        # each row is indexed by scale and each slot by signed magnitude, a
        # negative one in the row's upper half; slot 0 is empty
        size, stored = 2 << cfg.p_bits, 0
        for s, row in zip(range(cfg.scale_min, cfg.scale_max + 1), cfg.boxes):
            if not row:
                continue
            assert len(row) == size and row[0] is None
            for slot, q in enumerate(row):
                if q is not None:
                    m = slot if slot < size // 2 else slot - size
                    assert type(q) is ScaledInt and q == (m, s) and m
                    assert abs(m) <= cfg.max_magnitude
                    stored += 1
        assert stored > 100

    def test_table_stops_at_its_cap(self):
        cfg, twin = ScaleConfig(p_bits=12, scale_bits=10), ScaleConfig(p_bits=12, scale_bits=10)
        rng = random.Random(10)
        values = [rng.uniform(1, 2) * 2.0 ** rng.randint(-500, 500) for _ in range(4000)]
        first = [quantize(v, cfg) for v in values]
        rows = core.MAX_SLOTS // (2 << cfg.p_bits)
        assert len({q[1] for q in first}) > rows
        assert slots_used(cfg) == rows * (2 << cfg.p_bits) == core.MAX_SLOTS
        # past the cap a result is boxed fresh: equal in value to the box the
        # twin table, filled in the opposite order, holds for the same input
        last = [quantize(v, twin) for v in reversed(values)][::-1]
        assert slots_used(twin) == core.MAX_SLOTS
        assert first == last
        assert any(a is not table_box(cfg, a) for a in first)
        assert any(b is not table_box(twin, b) for b in last)
        # a scale with a row still hands out its one box
        assert all(q is quantize(v, cfg) for v, q in zip(values, first) if table_box(cfg, q))

    @pytest.mark.parametrize("p_bits,scale_bits", [(8, 5), (4, 3)])
    def test_quantize_hands_out_the_table_box(self, p_bits, scale_bits):
        """Every in-format value quantizes to its pair's one table box, first
        through ``box``, then by ``quantize``'s own row lookup."""
        cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
        pairs = [(m, s) for s in range(cfg.scale_min, cfg.scale_max + 1)
                 for m in range(-cfg.max_magnitude, cfg.max_magnitude + 1) if m]
        first = [quantize(dequantize(core.box(p, cfg)), cfg) for p in pairs]
        again = [quantize(dequantize(core.box(p, cfg)), cfg) for p in pairs]
        assert all(a is b is core.box(a, cfg) for a, b in zip(first, again))
        # a pair already in quantize's form, top bit set or at the ceiling,
        # comes back as its own box
        own = [core.box(p, cfg) for p in pairs
               if abs(p[0]) >> (p_bits - 1) or p[1] == cfg.scale_max]
        assert all(quantize(dequantize(q), cfg) is q for q in own)

    def test_quantize_without_rows_boxes_fresh(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_SLOTS", 0)
        cfg = ScaleConfig()
        a, b = quantize(0.3, cfg), quantize(0.3, cfg)
        assert a == b == (154, 9) and a is not b and type(a) is ScaledInt
        # the first box closed every scale: rows read False, none was made
        assert cfg.boxes == [False] * (1 << cfg.scale_bits) and slots_used(cfg) == 0
        c = quantize(-0.3, cfg)
        assert c == (-154, 9) and c is not quantize(-0.3, cfg)
        assert slots_used(cfg) == 0

    def test_equal_configs_have_tables_of_their_own(self):
        fresh = ScaleConfig()
        assert fresh == CFG and hash(fresh) == hash(CFG) and repr(fresh) == repr(CFG)
        assert [f.name for f in dataclasses.fields(fresh)] == \
            ["p_bits", "scale_bits", "gelu_variant"]
        assert "boxes" not in dataclasses.asdict(fresh)
        a, b = quantize(0.3, fresh), quantize(0.3, CFG)
        assert a == b and a is not b
        assert fresh.boxes is not CFG.boxes

    @pytest.mark.parametrize("clone", [lambda c: pickle.loads(pickle.dumps(c)),
                                       copy.copy, copy.deepcopy])
    def test_copies_rebuild_their_own_table(self, clone):
        cfg = ScaleConfig(p_bits=6, scale_bits=4)
        _primitive_results(cfg, random.Random(6), 200)
        got = clone(cfg)
        assert got == cfg and hash(got) == hash(cfg)
        assert got.boxes == [None] * (1 << cfg.scale_bits) and got.boxes is not cfg.boxes
        assert quantize(0.3, got) == quantize(0.3, cfg)
        assert len(pickle.dumps(cfg)) < 200


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
        assert scale_mul(a, ScaledInt.from_signed(-b[0], b[1]), CFG).negative


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
# fit, quotient and quantize against the specification in tests/spec.py: the
# same (magnitude, scale) pair, or the same error, and the same running
# saturation count on every call
# ---------------------------------------------------------------------------

def test_spec_takes_no_rule_from_the_library():
    """``tests/spec.py`` states every rule itself: from ``scaledq`` it imports
    only exception types, ``QTensor`` and ``NEWTON_ITERS``, so no rule can be
    restated through the code under test."""
    with open(spec.__file__) as f:
        tree = ast.parse(f.read())
    taken = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not [a.name for a in node.names if a.name.split(".")[0] == "scaledq"]
        elif isinstance(node, ast.ImportFrom):
            assert not node.level, "a relative import"
            if node.module.split(".")[0] == "scaledq":
                taken += [(node.module, a.name) for a in node.names]
    assert taken
    for module, name in taken:
        value = getattr(importlib.import_module(module), name)
        assert name in ("QTensor", "NEWTON_ITERS") or (
            isinstance(value, type) and issubclass(value, Exception)), f"{module}.{name}"


def _with_counts(fn, cases, cfg):
    """``fn(*case, cfg, sat)`` over ``cases``, each result with the running
    saturation count, so two runs agree only if every call saturates the
    same way."""
    sat = SaturationCounter()
    return [(*fn(*case, cfg, sat), sat.count) for case in cases]


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
    assert got == _with_counts(spec.quotient, cases, CFG)
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
    assert got == _with_counts(spec.quotient, cases, cfg)
    assert_quantize_form(got, cfg)
    assert got[-1][2] > 0  # the floor saturates somewhere in the sample


# ---------------------------------------------------------------------------
# The signed int level: fit and quotient take the sign themselves, so a
# negated operand negates the result and saturates exactly where the
# unsigned call does
# ---------------------------------------------------------------------------

def _negated(results):
    return [(-m, s, count) for m, s, count in results]


@pytest.mark.parametrize("scale", [CFG.scale_min - 9, CFG.scale_min - 1, CFG.scale_min, 0,
                                   CFG.scale_max, CFG.scale_max + 1, CFG.scale_max + 17])
def test_fit_is_odd_exhaustive(scale):
    mags = range(1 << 16)
    got = _with_counts(fit, [(m, scale) for m in mags], CFG)
    negated = _with_counts(fit, [(-m, scale) for m in mags], CFG)
    assert negated == _negated(got)
    assert got == _with_counts(spec.fit, [(m, scale) for m in mags], CFG)
    assert negated == _with_counts(spec.fit, [(-m, scale) for m in mags], CFG)
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
    assert got == _with_counts(spec.fit, cases, cfg)
    assert negated == _with_counts(spec.fit, negated_cases, cfg)
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
# Every case of two small formats against the specification, byte for byte
# and with saturation counts: fit and handle_overflow on every magnitude up
# to 2**(2P+2) at scales 2P+3 past each edge, quotient on every pair of
# signed P-bit magnitudes at scales P+2 past each edge, the scalar primitives
# on every pair of stored values, and shift_scale to 2P+3 past each edge
# ---------------------------------------------------------------------------

SMALL_FORMATS = [(4, 3), (5, 3)]


def _scales_past_edges(cfg, reach):
    return range(cfg.scale_min - reach, cfg.scale_max + reach + 1)


def stored_values(cfg):
    """Every stored pair of the format: zero, then each nonzero signed
    magnitude at each scale."""
    mags = [m for m in range(-cfg.max_magnitude, cfg.max_magnitude + 1) if m]
    return [ZERO] + [ScaledInt.from_signed(m, s)
                     for s in range(cfg.scale_min, cfg.scale_max + 1) for m in mags]


@pytest.mark.parametrize("p_bits,scale_bits", SMALL_FORMATS)
def test_fit_matches_spec_on_every_wide_magnitude(p_bits, scale_bits):
    cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
    top = 1 << (2 * p_bits + 2)
    cases = [(m, s) for s in _scales_past_edges(cfg, 2 * p_bits + 3)
             for m in range(-top, top + 1)]
    want = _with_counts(spec.fit, cases, cfg)
    assert _with_counts(fit, cases, cfg) == want
    assert _with_counts(handle_overflow, cases, cfg) == want
    assert want[-1][2] > 0


@pytest.mark.parametrize("p_bits,scale_bits", SMALL_FORMATS)
def test_quotient_matches_spec_on_every_magnitude_pair(p_bits, scale_bits):
    cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
    mags = range(-cfg.max_magnitude, cfg.max_magnitude + 1)
    cases = [(a, b, s) for s in _scales_past_edges(cfg, p_bits + 2)
             for a in mags for b in mags if b]
    want = _with_counts(spec.quotient, cases, cfg)
    assert _with_counts(quotient, cases, cfg) == want
    assert want[-1][2] > 0


@pytest.mark.parametrize("name", ["scale_mul", "scale_add", "scale_div"])
@pytest.mark.parametrize("p_bits,scale_bits", SMALL_FORMATS)
def test_primitive_matches_spec_on_every_value_pair(name, p_bits, scale_bits):
    cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
    values = stored_values(cfg)
    divisors = values[1:] if name == "scale_div" else values
    cases = [(a, b) for a in values for b in divisors]
    want = _with_counts(getattr(spec, name), cases, cfg)
    assert _with_counts(getattr(core, name), cases, cfg) == want
    if name == "scale_add":
        # a - b is a + (-b), and negation maps the stored values onto themselves
        negated = [ScaledInt.from_signed(-m, s) for m, s in values]
        assert _with_counts(scale_sub, [(a, b) for a in values for b in negated], cfg) == want


@pytest.mark.parametrize("p_bits,scale_bits", SMALL_FORMATS)
def test_shift_scale_matches_spec_past_both_edges(p_bits, scale_bits):
    cfg = ScaleConfig(p_bits=p_bits, scale_bits=scale_bits)
    span = cfg.scale_max - cfg.scale_min + 2 * p_bits + 3
    cases = [(q, delta) for q in stored_values(cfg) for delta in range(-span, span + 1)]
    want = _with_counts(spec.fit, [(m, s + delta) for (m, s), delta in cases], cfg)
    assert _with_counts(shift_scale, cases, cfg) == want
    assert want[-1][2] > 0


# ---------------------------------------------------------------------------
# quantize against the specification: the same ScaledInt, or the same error
# type and message, on the range edges, the non-finite values, subnormals and
# seeded floats over every binade
# ---------------------------------------------------------------------------

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
        assert got == _quantize_outcome(spec.quantize, v, cfg), v
        outcomes["error" if type(got) is tuple else "value" if got.magnitude else "zero"] += 1
    assert min(outcomes.values()) > 1000, outcomes
