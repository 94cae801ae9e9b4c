"""Scaled-integer arithmetic on (magnitude, power-of-two scale) pairs.

A quantity is stored as an unsigned P-bit ``magnitude``, a sign flag and a
small signed ``scale``; it represents ``(-1)**negative * magnitude / 2**scale``.
The four primitives (multiply, add, subtract, divide) and the overflow
normalizer work exclusively with integer arithmetic, compare and shift;
division is one exact integer floor division.  The normalizer and the
division also exist on signed ``(magnitude, scale)`` int pairs, as
:func:`fit` and :func:`quotient`, which take the sign themselves;
:func:`handle_overflow` and :func:`scale_div` wrap them.  Floating point
enters only through :func:`quantize` and :func:`dequantize`, the
conversion layer at the boundary of the integer domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

GELU_SERIES_LINEAR = "series-linear"
GELU_SERIES_CUBED = "series-cubed"
GELU_SERIES_CUBED_CORRECTED = "series-cubed-corrected"
GELU_VARIANTS = (GELU_SERIES_LINEAR, GELU_SERIES_CUBED, GELU_SERIES_CUBED_CORRECTED)
# Most Newton iterations a config or ``scaledq invsqrt --iters`` may ask for.
# The iterate grows at most 1.5x per step, and 1.5**4096 is far past the
# widest format's span of 2**1534, so more steps only cost time and memory.
MAX_NEWTON_ITERS = 1 << 12


class RangeError(ValueError):
    """Value magnitude not representable under the active format."""


class DivisionByZero(ZeroDivisionError):
    """Scaled division with a zero divisor."""


class DomainError(ValueError):
    """Operand outside an operation's mathematical domain."""


@dataclass(frozen=True)
class ScaleConfig:
    """Global format parameters.

    ``p_bits`` is the magnitude width; ``scale_bits`` sets the stored scale
    range to ``[-2**(scale_bits-1), 2**(scale_bits-1) - 1]``, and
    ``newton_iters`` is the default iteration count for the inverse square
    root, at most ``MAX_NEWTON_ITERS``.  ``p_bits + 2**(scale_bits - 1)`` is
    at most 1023, so FP64 holds the largest value at the conversion boundary.
    """

    p_bits: int = 8
    scale_bits: int = 5
    newton_iters: int = 20
    gelu_variant: str = GELU_SERIES_LINEAR

    def __post_init__(self):
        if self.p_bits < 2:
            raise ValueError(f"p_bits must be >= 2, got {self.p_bits}")
        if self.scale_bits < 2:
            raise ValueError(f"scale_bits must be >= 2, got {self.scale_bits}")
        # scale_bits is bounded first, so a huge value never builds a huge int
        if self.scale_bits > 10 or self.p_bits + (1 << (self.scale_bits - 1)) > 1023:
            raise ValueError("p_bits + 2**(scale_bits - 1) must be <= 1023, "
                             "or the largest value overflows FP64")
        if not 1 <= self.newton_iters <= MAX_NEWTON_ITERS:
            raise ValueError(f"newton_iters must be from 1 to {MAX_NEWTON_ITERS}, "
                             f"got {self.newton_iters}")
        if self.gelu_variant not in GELU_VARIANTS:
            raise ValueError(f"gelu_variant must be one of {GELU_VARIANTS}")

    @cached_property
    def max_magnitude(self) -> int:
        return (1 << self.p_bits) - 1

    @cached_property
    def scale_min(self) -> int:
        return -(1 << (self.scale_bits - 1))

    @cached_property
    def scale_max(self) -> int:
        return (1 << (self.scale_bits - 1)) - 1

    @property
    def bits_per_element(self) -> int:
        return self.p_bits + self.scale_bits

    @property
    def reduction_factor(self) -> float:
        """Storage reduction versus one FP64 value per element."""
        return 64.0 / self.bits_per_element


DEFAULT_CONFIG = ScaleConfig()


class SaturationCounter:
    """Mutable tally of scale-floor saturation events.

    Passed explicitly by callers that want observability; the primitives
    never share hidden state.
    """

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def record(self):
        self.count += 1


@dataclass(frozen=True, slots=True, init=False)
class ScaledInt:
    """One quantized scalar: ``(-1)**negative * magnitude / 2**scale``.

    Zero is canonical: magnitude 0 forces ``negative=False`` and ``scale=0``.
    The constructor stores the slots through their descriptors, past the
    frozen ``__setattr__``; the dataclass still supplies the rest.
    """

    magnitude: int
    scale: int = 0
    negative: bool = False

    def __init__(self, magnitude: int, scale: int = 0, negative: bool = False):
        if magnitude <= 0:
            if magnitude:
                raise ValueError("magnitude must be unsigned; use from_signed()")
            scale, negative = 0, False
        _SET_MAGNITUDE(self, magnitude)
        _SET_SCALE(self, scale)
        _SET_NEGATIVE(self, negative)

    @classmethod
    def from_signed(cls, value: int, scale: int = 0) -> "ScaledInt":
        return cls(-value, scale, True) if value < 0 else cls(value, scale)

    @property
    def signed_magnitude(self) -> int:
        return -self.magnitude if self.negative else self.magnitude

    def is_zero(self) -> bool:
        return self.magnitude == 0


_SET_MAGNITUDE = ScaledInt.magnitude.__set__
_SET_SCALE = ScaledInt.scale.__set__
_SET_NEGATIVE = ScaledInt.negative.__set__

ZERO = ScaledInt(0)
ONE = ScaledInt(1, 0)


def negate(q: ScaledInt) -> ScaledInt:
    if q.magnitude == 0:
        return ZERO
    return ScaledInt(q.magnitude, q.scale, not q.negative)


def dequantize(q: ScaledInt) -> float:
    """Exact conversion back to FP64.  Boundary/reference use only; nothing in
    the integer compute path calls this."""
    value = math.ldexp(q.magnitude, -q.scale)
    return -value if q.negative else value


def quantize(value: float, cfg: ScaleConfig = DEFAULT_CONFIG) -> ScaledInt:
    """Encode ``value`` at maximum precision.

    Picks the largest in-range scale whose rounded magnitude still fits in
    P bits; the magnitude rounds half-to-even.  Magnitudes below half the
    finest representable step collapse to canonical zero.
    """
    if math.isnan(value) or math.isinf(value):
        raise RangeError(f"cannot quantize non-finite value {value!r}")
    av = abs(value)
    if av > math.ldexp(cfg.max_magnitude, -cfg.scale_min):
        raise RangeError(f"magnitude {av!r} exceeds representable range")
    if av < math.ldexp(1.0, -cfg.scale_max - 1):
        return ZERO
    # frexp puts av in [0.5, 1) * 2**exp, so av * 2**(p_bits - exp) lands in
    # [2**(p_bits-1), 2**p_bits); one decrement fixes the round-up-to-2**P edge.
    exp = math.frexp(av)[1]
    scale = min(cfg.scale_max, cfg.p_bits - exp)
    magnitude = round(math.ldexp(av, scale))
    if magnitude > cfg.max_magnitude:
        scale -= 1
        magnitude = round(math.ldexp(av, scale))
    if magnitude == 0:
        return ZERO
    return ScaledInt(magnitude, scale, value < 0)


def fit(
    magnitude: int,
    scale: int,
    cfg: ScaleConfig = DEFAULT_CONFIG,
    sat: SaturationCounter | None = None,
) -> tuple[int, int]:
    """Fit a wide signed ``(magnitude, scale)`` back into the stored format.

    The absolute value is fitted and the sign kept, so every cut truncates
    toward zero.  Oversized magnitudes keep their P most significant bits
    and the scale drops by the bits cut.  A scale above the ceiling
    truncates the magnitude; a scale below the floor shifts it up when the
    exact value still fits, and otherwise saturates at +/-(2**P - 1) and
    records the event on ``sat``.  Zero, and anything the ceiling truncates
    to zero, comes back as ``(0, 0)``; an in-format pair comes back unchanged.
    The sign is noted once and put back on the fitted magnitude.
    """
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


def handle_overflow(
    raw_magnitude: int,
    raw_scale: int,
    cfg: ScaleConfig = DEFAULT_CONFIG,
    negative: bool = False,
    sat: SaturationCounter | None = None,
) -> ScaledInt:
    """:func:`fit` as a :class:`ScaledInt` with the given sign."""
    magnitude, scale = fit(raw_magnitude, raw_scale, cfg, sat)
    return ScaledInt(magnitude, scale, negative) if magnitude else ZERO


def scale_mul(
    a: ScaledInt,
    b: ScaledInt,
    cfg: ScaleConfig = DEFAULT_CONFIG,
    sat: SaturationCounter | None = None,
) -> ScaledInt:
    """Product: magnitudes multiply, scales add, signs xor."""
    if a.magnitude == 0 or b.magnitude == 0:
        return ZERO
    return handle_overflow(
        a.magnitude * b.magnitude,
        a.scale + b.scale,
        cfg,
        a.negative != b.negative,
        sat,
    )


def scale_add(
    a: ScaledInt,
    b: ScaledInt,
    cfg: ScaleConfig = DEFAULT_CONFIG,
    sat: SaturationCounter | None = None,
) -> ScaledInt:
    """Sum after aligning both operands to the larger scale.

    The finer-scaled operand keeps its bits; the coarser one is shifted left
    into a wide temporary.  Exact cancellation yields canonical zero.
    """
    if a.magnitude == 0:
        return b
    if b.magnitude == 0:
        return a
    s = a.scale if a.scale >= b.scale else b.scale
    total = (a.signed_magnitude << (s - a.scale)) + (b.signed_magnitude << (s - b.scale))
    if total == 0:
        return ZERO
    return handle_overflow(abs(total), s, cfg, total < 0, sat)


def scale_sub(
    a: ScaledInt,
    b: ScaledInt,
    cfg: ScaleConfig = DEFAULT_CONFIG,
    sat: SaturationCounter | None = None,
) -> ScaledInt:
    """Difference, implemented as addition with the subtrahend's sign flipped."""
    return scale_add(a, negate(b), cfg, sat)


def shift_scale(
    q: ScaledInt,
    delta: int,
    cfg: ScaleConfig = DEFAULT_CONFIG,
    sat: SaturationCounter | None = None,
) -> ScaledInt:
    """Multiply by ``2**-delta`` via a scale adjustment (no magnitude bits move
    unless the adjusted scale leaves the stored range)."""
    if q.magnitude == 0:
        return ZERO
    return handle_overflow(q.magnitude, q.scale + delta, cfg, q.negative, sat)


def quotient(
    dividend: int,
    divisor: int,
    scale: int,
    cfg: ScaleConfig = DEFAULT_CONFIG,
    sat: SaturationCounter | None = None,
) -> tuple[int, int]:
    """Signed ``(dividend / divisor) / 2**scale``, truncated toward zero to
    P bits and fitted as ``(magnitude, scale)``.

    ``|dividend|`` is shifted left by ``e`` bits, just enough that its floor
    quotient by ``|divisor|`` has at least P bits; the sign goes on that
    quotient and :func:`fit` keeps its P leading bits.  The result never
    exceeds the true quotient in absolute value, is exact whenever that is
    representable, and is stored in the form :func:`quantize` gives its value.
    """
    if divisor == 0:
        raise DivisionByZero("scaled division by zero")
    if dividend == 0:
        return 0, 0
    e = max(0, cfg.p_bits + divisor.bit_length() - dividend.bit_length())
    q = (abs(dividend) << e) // abs(divisor)
    return fit(q if (dividend < 0) == (divisor < 0) else -q, scale + e, cfg, sat)


def scale_div(
    a: ScaledInt,
    b: ScaledInt,
    cfg: ScaleConfig = DEFAULT_CONFIG,
    sat: SaturationCounter | None = None,
) -> ScaledInt:
    """:func:`quotient` of the magnitudes, with the signs stripped first and
    reapplied to the result."""
    magnitude, scale = quotient(a.magnitude, b.magnitude, a.scale - b.scale, cfg, sat)
    return ScaledInt(magnitude, scale, a.negative != b.negative) if magnitude else ZERO
