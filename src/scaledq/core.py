"""Scaled-integer arithmetic on (magnitude, power-of-two scale) pairs.

A quantity is one signed int pair ``(magnitude, scale)``, a signed P-bit
magnitude and a small signed scale, standing for ``magnitude / 2**scale``.
The normalizer :func:`fit` and the division :func:`quotient` take and
return plain pairs, and so do the pair rules built on them, each stated
once here: :func:`pair_add`, :func:`pair_mul`, :func:`pair_div` and the
multi-term :func:`pair_sum`.  :class:`ScaledInt` is the same pair boxed as
a ``tuple`` subclass, and each primitive (multiply, add, subtract, divide,
shift) is a pair rule or one ``fit`` on its operands' pairs, boxed by
:func:`box`, which hands out one shared box per stored value and format.
They work exclusively with integer arithmetic, compare and shift; division
is one exact integer floor division.  Floating point enters only through
:func:`quantize` and :func:`dequantize`, the conversion layer at the
boundary of the integer domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

GELU_SERIES_LINEAR = "series-linear"
GELU_SERIES_CUBED = "series-cubed"
GELU_SERIES_CUBED_CORRECTED = "series-cubed-corrected"
GELU_VARIANTS = (GELU_SERIES_LINEAR, GELU_SERIES_CUBED, GELU_SERIES_CUBED_CORRECTED)
# Most slots one format's box table holds, over all its rows of 2**(P+1)
# slots: 8 MiB of row lists.  The default format's 32 rows take 2**14 and
# (12, 6)'s 64 rows 2**19; (12, 10) gets 128 rows of its 1024 scales.  Past
# the cap no scale gets a row, and a result at a scale without one is a
# fresh, value-equal ScaledInt.  The cap bounds slots, not boxes: a table
# with every slot boxed held about 104 MiB, measured at (16, 6).
MAX_SLOTS = 1 << 20


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
    ``gelu_variant`` picks the activation's series.
    ``p_bits + 2**(scale_bits - 1)`` is at most 1023, so FP64 holds the
    largest value at the conversion boundary.

    ``__post_init__`` sets the derived bounds ``max_magnitude``, ``scale_min``,
    ``scale_max``, ``max_value`` and ``zero_below`` once, as plain instance
    attributes: not fields, so ``fields``, ``asdict``, ``==`` and ``hash`` see
    only the three parameters, and not properties, because CPython cannot
    specialize a load that a class descriptor shadows and ``fit`` reads them
    on every call.

    ``boxes`` is derived too, the table of this format's shared
    :class:`ScaledInt` boxes that :func:`box` fills: one entry per scale,
    ``boxes[s - scale_min]``, ``None`` until the first box at ``s`` makes
    it a row of ``2**(P+1)`` slots, slot ``m`` holding the box of
    ``(m, s)`` for ``-2**P < m < 2**P``, a negative ``m`` in the upper half
    as a negative list index reads it.  Slot 0 stays empty: zero is
    :data:`ZERO`.  Once one more row would pass ``MAX_SLOTS``, every scale
    without a row reads ``False``, and none gets one.  Copies and pickles
    rebuild the config from its three fields, so each config, a copy
    included, has a table of its own.
    """

    p_bits: int = 8
    scale_bits: int = 5
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
        if self.gelu_variant not in GELU_VARIANTS:
            raise ValueError(f"gelu_variant must be one of {GELU_VARIANTS}")
        put = object.__setattr__
        put(self, "max_magnitude", (1 << self.p_bits) - 1)
        put(self, "scale_min", -(1 << (self.scale_bits - 1)))
        put(self, "scale_max", (1 << (self.scale_bits - 1)) - 1)
        put(self, "max_value", math.ldexp(self.max_magnitude, -self.scale_min))
        put(self, "zero_below", math.ldexp(1, -self.scale_max - 1))
        put(self, "boxes", [None] * (1 << self.scale_bits))

    def __reduce__(self):
        return type(self), (self.p_bits, self.scale_bits, self.gelu_variant)

    @property
    def bits_per_element(self) -> int:
        return self.p_bits + self.scale_bits

    @property
    def reduction_factor(self) -> float:
        """Storage reduction versus one FP64 value per element."""
        return 64.0 / self.bits_per_element


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


class ScaledInt(tuple):
    """One quantized scalar, the pair ``(signed_magnitude, scale)`` standing
    for ``signed_magnitude / 2**scale``.

    It is the same signed int pair that :func:`fit` and :func:`quotient`
    return and every kernel computes on, boxed as a ``tuple`` subclass and
    read by index or unpacking.  Every primitive and kernel boxes its result
    with :func:`box`, so one stored value is one object per format, and a
    tensor element costs a pointer to it.  ``ScaledInt(magnitude, scale,
    negative)`` takes an unsigned magnitude and a sign flag;
    :meth:`from_signed` takes the signed value; both box afresh.  Zero is
    canonical, ``(0, 0)``.  Ordering, concatenation and repetition are
    refused, as for any value object.
    """

    __slots__ = ()
    __lt__ = __le__ = __gt__ = __ge__ = __add__ = __mul__ = __rmul__ = None

    def __new__(cls, magnitude: int, scale: int = 0, negative: bool = False):
        if magnitude <= 0:
            if magnitude:
                raise ValueError("magnitude must be unsigned; use from_signed()")
            return ZERO
        return tuple.__new__(cls, (-magnitude if negative else magnitude, scale))

    @classmethod
    def from_signed(cls, value: int, scale: int = 0) -> "ScaledInt":
        return tuple.__new__(cls, (value, scale)) if value else ZERO

    signed_magnitude = property(itemgetter(0))
    scale = property(itemgetter(1))

    @property
    def magnitude(self) -> int:
        return abs(self[0])

    @property
    def negative(self) -> bool:
        return self[0] < 0

    def is_zero(self) -> bool:
        return not self[0]

    def __getnewargs__(self):
        return self.magnitude, self[1], self[0] < 0

    def __repr__(self) -> str:
        return (f"ScaledInt(magnitude={self.magnitude}, scale={self[1]}, "
                f"negative={self[0] < 0})")


ZERO = tuple.__new__(ScaledInt, (0, 0))
ONE = ScaledInt(1, 0)
DEFAULT_CONFIG = ScaleConfig()


def box(pair, cfg: ScaleConfig = DEFAULT_CONFIG) -> ScaledInt:
    """The :class:`ScaledInt` of the signed pair ``pair``, shared through
    ``cfg.boxes``.

    An in-format pair, as :func:`fit`, :func:`quotient` and :func:`quantize`
    return, is boxed once per config, in slot ``m`` of its scale's row, and
    handed out again on every later call: two list indexes, no key built or
    hashed.  Zero is :data:`ZERO`.  The format is checked before the row is
    indexed, since a negative index would wrap: a pair outside it, such as
    an operand a kernel passes through unchanged, is boxed fresh and stored
    nowhere.  So is a pair whose scale has no row when making one would
    take the table past ``MAX_SLOTS``, a cap checked before the row is
    allocated.
    """
    m, s = pair
    if not m:
        return ZERO
    if not (-cfg.max_magnitude <= m <= cfg.max_magnitude and cfg.scale_min <= s <= cfg.scale_max):
        return ScaledInt.from_signed(m, s)
    rows = cfg.boxes
    row = rows[s - cfg.scale_min]
    if row is None:
        size = 2 << cfg.p_bits
        if (len(rows) + 1 - rows.count(None)) * size > MAX_SLOTS:
            # rows are all one size, so none fits: close every scale without one
            rows[:] = [r or False for r in rows]
        else:
            row = rows[s - cfg.scale_min] = [None] * size
    if not row:
        return ScaledInt.from_signed(m, s)
    q = row[m]
    if q is None:
        q = row[m] = tuple.__new__(ScaledInt, (m, s))
    return q


def negate(q: ScaledInt) -> ScaledInt:
    return tuple.__new__(ScaledInt, (-q[0], q[1]))


def dequantize(q: ScaledInt) -> float:
    """Exact conversion back to FP64.  Boundary/reference use only; nothing in
    the integer compute path calls this."""
    return math.ldexp(q[0], -q[1])


def quantize(value: float, cfg: ScaleConfig = DEFAULT_CONFIG) -> ScaledInt:
    """Encode ``value`` at maximum precision.

    Picks the largest in-range scale whose rounded magnitude still fits in
    P bits; the magnitude rounds half-to-even.  Magnitudes below half the
    finest representable step collapse to canonical zero.
    """
    av = abs(value)
    # One comparison passes every finite in-range value; nan fails it too.
    if not av <= cfg.max_value:
        if not math.isfinite(value):
            raise RangeError(f"cannot quantize non-finite value {value!r}")
        raise RangeError(f"magnitude {av!r} exceeds representable range")
    if av < cfg.zero_below:
        return ZERO
    # frexp puts av in [0.5, 1) * 2**exp, so av * 2**(p_bits - exp) lands in
    # [2**(p_bits-1), 2**p_bits); one decrement fixes the round-up-to-2**P edge.
    scale = cfg.p_bits - math.frexp(av)[1]
    if scale > cfg.scale_max:
        scale = cfg.scale_max
    # round() is half-to-even on either sign, so the signed value rounds as
    # its absolute value does
    magnitude = round(math.ldexp(value, scale))
    if abs(magnitude) > cfg.max_magnitude:
        scale -= 1
        magnitude = round(math.ldexp(value, scale))
    # av <= max_value keeps the scale at or above scale_min, so the pair is
    # in the format and its row indexes directly; a miss, zero included, boxes
    row = cfg.boxes[scale - cfg.scale_min]
    if row and (q := row[magnitude]) is not None:
        return q
    return box((magnitude, scale), cfg)


def fit(
    magnitude: int,
    scale: int,
    cfg: ScaleConfig = DEFAULT_CONFIG,
    sat: SaturationCounter | None = None,
) -> tuple[int, int]:
    """Fit a wide signed ``(magnitude, scale)`` back into the stored format.

    Every cut truncates toward zero, so the result is odd in ``magnitude``.
    Oversized magnitudes keep their P most significant bits and the scale
    drops by the bits cut; a scale above the ceiling truncates the magnitude
    further, down to the ceiling.  The two cuts compose into one shift by
    ``max(bitlen - P, scale - scale_max)``, the only step that needs the
    absolute value.  A scale below the floor shifts the magnitude up when
    the exact value still fits, and otherwise saturates at +/-(2**P - 1) and
    records the event on ``sat``.  Zero, and anything the ceiling truncates
    to zero, comes back as ``(0, 0)``; an in-format pair comes back unchanged.
    """
    if not magnitude:
        return 0, 0
    # bit_length ignores the sign, so only a cut looks at it
    k = magnitude.bit_length() - cfg.p_bits
    if scale - cfg.scale_max > k:
        k = scale - cfg.scale_max
    if k > 0:
        magnitude = magnitude >> k if magnitude > 0 else -(-magnitude >> k)
        if not magnitude:
            return 0, 0
        scale -= k
    if scale < cfg.scale_min:
        lift = cfg.scale_min - scale
        if magnitude.bit_length() + lift <= cfg.p_bits:
            magnitude <<= lift
        else:
            magnitude = cfg.max_magnitude if magnitude > 0 else -cfg.max_magnitude
            if sat is not None:
                sat.record()
        scale = cfg.scale_min
    return magnitude, scale


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


def pair_add(a, b, cfg: ScaleConfig, sat: SaturationCounter | None) -> tuple[int, int]:
    """Sum of two pairs after aligning both to the larger scale.

    The finer-scaled operand keeps its bits; the coarser one is shifted left
    into a wide temporary, and :func:`fit` cuts the sum once.  A zero pair
    returns the other as given; exact cancellation gives ``(0, 0)``.
    """
    if not a[0]:
        return b
    if not b[0]:
        return a
    top = a[1] if a[1] > b[1] else b[1]
    return fit((a[0] << (top - a[1])) + (b[0] << (top - b[1])), top, cfg, sat)


def pair_mul(a, b, cfg: ScaleConfig, sat: SaturationCounter | None) -> tuple[int, int]:
    """Product of two pairs: signed magnitudes multiply, scales add."""
    return fit(a[0] * b[0], a[1] + b[1], cfg, sat)


def pair_div(a, b, cfg: ScaleConfig, sat: SaturationCounter | None) -> tuple[int, int]:
    """:func:`quotient` of two pairs' signed magnitudes."""
    return quotient(a[0], b[0], a[1] - b[1], cfg, sat)


def pair_sum(pairs, cfg: ScaleConfig, sat: SaturationCounter | None) -> tuple[int, int]:
    """:func:`pair_add` over any number of pairs: the exact sum at their
    largest scale, cut once.  Zero pairs drop out and a single live pair
    comes back as given."""
    live = [p for p in pairs if p[0]]
    if len(live) < 2:
        return live[0] if live else (0, 0)
    top = live[0][1]
    for _, s in live:
        if s > top:
            top = s
    total = 0
    for m, s in live:
        total += m << (top - s)
    return fit(total, top, cfg, sat)


def handle_overflow(
    raw_magnitude: int,
    raw_scale: int,
    cfg: ScaleConfig = DEFAULT_CONFIG,
    sat: SaturationCounter | None = None,
) -> ScaledInt:
    """:func:`fit` of the signed ``raw_magnitude``, as a :class:`ScaledInt`."""
    return box(fit(raw_magnitude, raw_scale, cfg, sat), cfg)


def scale_mul(
    a: ScaledInt,
    b: ScaledInt,
    cfg: ScaleConfig = DEFAULT_CONFIG,
    sat: SaturationCounter | None = None,
) -> ScaledInt:
    """:func:`pair_mul`, boxed."""
    return box(pair_mul(a, b, cfg, sat), cfg)


def scale_add(
    a: ScaledInt,
    b: ScaledInt,
    cfg: ScaleConfig = DEFAULT_CONFIG,
    sat: SaturationCounter | None = None,
) -> ScaledInt:
    """:func:`pair_add`, boxed."""
    return box(pair_add(a, b, cfg, sat), cfg)


def scale_sub(
    a: ScaledInt,
    b: ScaledInt,
    cfg: ScaleConfig = DEFAULT_CONFIG,
    sat: SaturationCounter | None = None,
) -> ScaledInt:
    """Difference: :func:`pair_add` with the subtrahend's sign flipped, boxed."""
    return box(pair_add(a, (-b[0], b[1]), cfg, sat), cfg)


def shift_scale(
    q: ScaledInt,
    delta: int,
    cfg: ScaleConfig = DEFAULT_CONFIG,
    sat: SaturationCounter | None = None,
) -> ScaledInt:
    """Multiply by ``2**-delta`` via a scale adjustment (no magnitude bits move
    unless the adjusted scale leaves the stored range)."""
    return box(fit(q[0], q[1] + delta, cfg, sat), cfg)


def scale_div(
    a: ScaledInt,
    b: ScaledInt,
    cfg: ScaleConfig = DEFAULT_CONFIG,
    sat: SaturationCounter | None = None,
) -> ScaledInt:
    """:func:`pair_div`, boxed."""
    return box(pair_div(a, b, cfg, sat), cfg)
