"""Inverse-square-root iteration tests.

The reference trajectory for input 15.25 = (122, 3) from seed (1, 6) is the
golden fixture: stored pairs (5,7), (12,7), (25,7), (33,7) at iterations
2/4/6/8, final value 33/128 = 0.2578125.
"""

import math
import random

import pytest

import spec
from scaledq.core import (DomainError, SaturationCounter, ScaleConfig, ScaledInt, dequantize,
                          handle_overflow)
from scaledq.newton import NewtonTrace, exponent_seed, newton_inv_sqrt
from scaledq.reference import ref_newton_inv_sqrt

CFG = ScaleConfig()
GOLDEN_X = ScaledInt(122, 3)
SEED = ScaledInt(1, 6)


class TestGoldenTrace:
    def test_integer_trajectory(self):
        final, trace = newton_inv_sqrt(GOLDEN_X, SEED, 8, CFG)
        stored = {j: (y.magnitude, y.scale) for j, y in trace.entries}
        assert stored[2] == (5, 7)
        assert stored[4] == (12, 7)
        assert stored[6] == (25, 7)
        assert stored[8] == (33, 7)
        assert (final.magnitude, final.scale) == (33, 7)

    def test_final_value_window(self):
        final, _ = newton_inv_sqrt(GOLDEN_X, SEED, 8, CFG)
        got = dequantize(final)
        assert abs(got - 0.2578) <= 0.005
        assert abs(got - 0.2561) <= 0.01

    def test_float_shadow_checkpoints(self):
        _, seq = ref_newton_inv_sqrt(15.25, 0.015625, 8)
        for j, want in [(2, 0.0350), (4, 0.0772), (6, 0.1576), (8, 0.2426)]:
            assert abs(seq[j] - want) <= 5e-4

    def test_float_shadow_increases_below_fixed_point(self):
        _, seq = ref_newton_inv_sqrt(15.25, 0.015625, 8)
        target = 1 / math.sqrt(15.25)
        for prev, cur in zip(seq, seq[1:]):
            if cur < target:
                assert cur > prev


class TestConvergence:
    def test_unit_input(self):
        final, _ = newton_inv_sqrt(ScaledInt(1, 0), SEED, 20, CFG)
        assert abs(dequantize(final) - 1.0) <= 0.02

    def test_four(self):
        final, _ = newton_inv_sqrt(ScaledInt(1, -2), SEED, 20, CFG)
        assert abs(dequantize(final) - 0.5) <= 0.02

    def test_sweep_records_worst_case(self):
        # Resolution is pinned by the seed's storage scale, so accuracy for
        # large inputs is LSB-limited: the half-up halving can settle one
        # step above the true value.  Measured worst case over 1..255 at 20
        # iterations is 10.51% at x = 247; pin it as a regression ceiling.
        worst = 0.0
        worst_x = None
        for xv in range(1, 256):
            final, _ = newton_inv_sqrt(ScaledInt(xv), SEED, 20, CFG)
            rel = abs(dequantize(final) - 1 / math.sqrt(xv)) * math.sqrt(xv)
            if rel > worst:
                worst, worst_x = rel, xv
        assert worst <= 0.106, f"sweep regressed: {worst:.4f} at x={worst_x}"
        assert worst == pytest.approx(0.10505, abs=5e-4)
        assert worst_x == 247


class TestTrace:
    def test_shape_and_seed_entry(self):
        _, trace = newton_inv_sqrt(GOLDEN_X, SEED, 5, CFG)
        assert trace.iters == 5
        assert len(trace.entries) == 6
        assert trace.entries[0] == (0, SEED)
        assert trace.input == GOLDEN_X

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            NewtonTrace(input=GOLDEN_X, iters=2, entries=((0, SEED),))

    def test_deterministic(self):
        a = newton_inv_sqrt(GOLDEN_X, SEED, 12, CFG)
        b = newton_inv_sqrt(GOLDEN_X, SEED, 12, CFG)
        assert a == b

    def test_random_inputs_deterministic(self):
        rng = random.Random(99)
        for _ in range(100):
            x = ScaledInt(rng.randint(1, 255), rng.randint(-4, 8))
            r1 = newton_inv_sqrt(x, SEED, 10, CFG)
            r2 = newton_inv_sqrt(x, SEED, 10, CFG)
            assert r1 == r2


class TestDomain:
    def test_rejects_zero_and_negative(self):
        with pytest.raises(DomainError):
            newton_inv_sqrt(ScaledInt(0), SEED, 4, CFG)
        with pytest.raises(DomainError):
            newton_inv_sqrt(ScaledInt(4, 0, True), SEED, 4, CFG)
        with pytest.raises(DomainError):
            newton_inv_sqrt(ScaledInt(4), ScaledInt(0), 4, CFG)

    @pytest.mark.parametrize("iters", [-1, -20])
    def test_negative_iteration_count_named(self, iters):
        with pytest.raises(DomainError, match=f"non-negative, got {iters}$"):
            newton_inv_sqrt(GOLDEN_X, SEED, iters, CFG)

    def test_iteration_count_above_cap_named(self):
        with pytest.raises(DomainError, match="at most 4096, got 4097$"):
            newton_inv_sqrt(GOLDEN_X, SEED, 4097, CFG)


def plain_newton_trace(x, y0, iters, cfg, zeros=None):
    """Every step of the iteration computed in full, with no early stop.
    ``zeros``, when given, counts how the iterate first reaches zero: by a
    pin (an update that is not positive) or by a flush at the scale ceiling."""
    y, entries = y0, [(0, y0)]
    for j in range(iters):
        if y.magnitude:
            shift = 2 * y.scale + x.scale
            wide = x.magnitude * y.magnitude ** 3
            d = 3 * y.magnitude - (wide >> shift if shift >= 0 else wide << -shift)
            if d <= 0:
                y = ScaledInt(0)
                route = "pin"
            elif j == 0:
                y = handle_overflow(d, y.scale + 1, cfg)
                route = "flush"
            else:
                y = handle_overflow((d + 1) >> 1, y.scale, cfg)
                route = "flush"
            if zeros is not None and not y.magnitude:
                zeros[route] += 1
        entries.append((j + 1, y))
    return entries


def check_every_input(cfg):
    """Every positive input's trace from the fixed seed 2**-6 (the finest
    step where the scale range is narrower) against the plain iteration.
    Returns how many iterates reached zero, by each route, and how many
    final iterates end more than 2**-5 (relative) from ``1/sqrt(x)``: at
    zero, settled at the scale the first step gives with a magnitude below
    32 (too few bits for the result), or still moving."""
    seed = ScaledInt(1, min(6, cfg.scale_max))
    first_scale = min(seed.scale + 1, cfg.scale_max)
    counts = dict.fromkeys(("pin", "flush", "zero", "settled", "moving"), 0)
    for scale in range(cfg.scale_min, cfg.scale_max + 1):
        for mag in range(1, cfg.max_magnitude + 1):
            x = ScaledInt(mag, scale)
            want = plain_newton_trace(x, seed, 20, cfg, counts)
            for iters in (0, 1, 2, 20):
                final, trace = newton_inv_sqrt(x, seed, iters, cfg)
                assert trace.entries == tuple(want[:iters + 1]), (mag, scale, iters)
                assert final == want[iters][1]
            exact = 1 / math.sqrt(dequantize(x))
            if abs(dequantize(final) - exact) > exact * 2 ** -5:
                if not final.magnitude:
                    counts["zero"] += 1
                elif final.scale == first_scale and final.magnitude < 32:
                    counts["settled"] += 1
                else:
                    assert final != want[19][1], (mag, scale)
                    counts["moving"] += 1
    return counts


def test_trace_matches_plain_iteration_on_every_input():
    """The fixed-point stop leaves every trace as the full iteration gives it,
    for all 255 * 32 positive inputs of the default format.  From the fixed
    seed, which meets the convergence bound only for ``x < 3 * 2**12``, 4098
    inputs end far off: 2430 pinned to zero (every input from ``3 * 2**12``
    up), 1622 settled at scale 7 and 46 below 2**-10 still moving."""
    assert check_every_input(CFG) == {"pin": 2430, "flush": 0, "zero": 2430,
                                      "settled": 1622, "moving": 46}


def test_trace_matches_plain_iteration_on_every_narrow_input():
    """The same on the 255 * 8 inputs of a 3-bit scale, where the seed sits
    at the scale ceiling and the first step's scale increment flushes some
    iterates to zero; so both routes to the zero stop are taken.  Of the 1958
    inputs that end far off, the 799 not at zero settle at the ceiling."""
    assert check_every_input(ScaleConfig(scale_bits=3)) == {
        "pin": 1035, "flush": 124, "zero": 1159, "settled": 799, "moving": 0}


def test_exponent_seed_on_every_input():
    """All 255 * 32 positive inputs of the default format from
    ``exponent_seed``: no iterate reaches zero, each trace is the spec's
    iteration, and every input below 2**20 is within 2**-5 (relative) of
    ``1/sqrt(x)`` from step 4 on.  Above 2**20, ``1/sqrt(x)`` is below
    2**-10, and at the scale ceiling of 15 it keeps at most 5 bits, so 309
    of those 784 inputs end farther off; the smallest is 1 269 760.  Within
    the 20 steps every iterate stops at a fixed point but 192, which end in
    a 2-cycle."""
    far, cycles = [], 0
    for scale in range(CFG.scale_min, CFG.scale_max + 1):
        for mag in range(1, CFG.max_magnitude + 1):
            x = ScaledInt(mag, scale)
            seed = exponent_seed(x, CFG)
            _, trace = newton_inv_sqrt(x, seed, 20, CFG)
            ys = [y for _, y in trace.entries]
            assert ys == spec.newton(x, seed, 20, CFG, SaturationCounter()), (mag, scale)
            assert all(y.magnitude for y in ys), (mag, scale)
            if ys[-1] != ys[-2]:
                assert ys[-1] == ys[-3], (mag, scale)
                cycles += 1
            exact = 1 / math.sqrt(dequantize(x))
            off = [abs(dequantize(y) - exact) > exact * 2 ** -5 for y in ys[4:]]
            if dequantize(x) < 2 ** 20:
                assert not any(off), (mag, scale)
            elif off[-1]:
                far.append(dequantize(x))
    assert len(far) == 309 and min(far) == 1269760
    assert cycles == 192


@pytest.mark.parametrize("cfg", [ScaleConfig(), ScaleConfig(scale_bits=3),
                                 ScaleConfig(p_bits=2), ScaleConfig(p_bits=12, scale_bits=3)])
def test_exponent_seed_matches_spec(cfg):
    """The seed and six steps from it are the spec's on every positive
    input (every 16th magnitude at P = 12), also in formats whose scale
    ceiling holds the seed at the finest step, where the iteration may pin
    the iterate at zero as the spec does."""
    for scale in range(cfg.scale_min, cfg.scale_max + 1):
        for mag in range(1, cfg.max_magnitude + 1, max(1, cfg.max_magnitude // 255)):
            x = ScaledInt(mag, scale)
            seed = exponent_seed(x, cfg)
            assert seed == spec.exponent_seed(x, cfg) and seed.magnitude, (mag, scale)
            _, trace = newton_inv_sqrt(x, seed, 6, cfg)
            assert [y for _, y in trace.entries] == spec.newton(
                x, seed, 6, cfg, SaturationCounter()), (mag, scale)


def test_package_exports_the_one_seed_rule():
    """``scaledq`` exports the seed its own ops use, and no other; the step
    budget and its cap are defined in ``newton`` alone."""
    import scaledq
    from scaledq import core, newton

    assert scaledq.exponent_seed is newton.exponent_seed
    assert not hasattr(scaledq, "default_seed") and not hasattr(newton, "default_seed")
    assert (newton.NEWTON_ITERS, newton.MAX_NEWTON_ITERS) == (20, 4096)
    assert not hasattr(core, "MAX_NEWTON_ITERS")
