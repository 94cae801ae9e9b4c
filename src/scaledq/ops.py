"""Quantized tensor operators built solely from the scaled-integer primitives.

Every operator performs integer arithmetic only; converting results back to
floating point is the job of the reference/benchmark layer.  A multi-term sum
aligns every term to the set's maximum scale, adds wide in a fixed order and
normalizes once.  The operators compute on the ``(magnitude, scale)`` pairs
their :class:`ScaledInt` elements are, each step ending in ``core.fit`` or
``core.quotient``, bit-identical to composing the ``core`` primitives, and
each output pair is boxed once with ``core.box``, so an output tensor holds
pointers to its format's shared boxes rather than a fresh tuple per element.
Every scalar rule they use, ``pair_add``, ``pair_mul``, ``pair_div`` and
``pair_sum``, is stated once in ``core``.  The exceptions are the fused
stages, each T, ``fit``'s cut toward zero to P bits, of its exact value at
the finest scale up to ``scale_max``, cut once: a dot plus its bias,
:func:`layer_norm`'s variance and affine tail, and a softmax numerator and
quotient.  :func:`layer_norm`'s mean and deviations are exact ints, never
cut.  :func:`_lane_dots` makes every total of :func:`conv2d`,
:func:`linear` and :func:`matmul`, the O outputs of an input row in L-bit
lanes of one int.  :func:`_cut_each` cuts each total of a dot row, a
softmax row or a layer-norm tail on one grid for the row, inline by the one
shift ``fit`` takes there, and finds its box in the format's box table by
two list indexes, the row of its scale and the slot of its signed
magnitude; ``fit`` itself, the rule's one statement, cuts every total the
table misses.  Only this module reads the exact ints :func:`_fixed` makes.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter, mul
from typing import Sequence

from .core import (
    ZERO,
    GELU_SERIES_CUBED,
    GELU_SERIES_CUBED_CORRECTED,
    GELU_SERIES_LINEAR,
    SaturationCounter,
    ScaleConfig,
    ScaledInt,
    box,
    fit,
    handle_overflow,
    pair_add,
    pair_div,
    pair_mul,
    pair_sum,
    quotient,
    scale_mul,
)
from .newton import NEWTON_ITERS, exponent_seed, newton_inv_sqrt


class ShapeError(ValueError):
    """Tensor shapes inconsistent with the requested operation."""


@dataclass(frozen=True)
class Tensor:
    """Shaped, row-major array; :class:`QTensor` and the FP64 layer's
    ``FTensor`` are its two kinds."""

    shape: tuple[int, ...]
    data: tuple

    def __post_init__(self):
        if min(self.shape, default=0) < 0:
            raise ShapeError(f"shape {self.shape} has a negative dimension")
        n = math.prod(self.shape)
        if n != len(self.data):
            raise ShapeError(f"shape {self.shape} needs {n} elements, got {len(self.data)}")

    @property
    def size(self) -> int:
        return len(self.data)


class QTensor(Tensor):
    """Shaped, row-major array of scaled integers (one scale per element)."""


@dataclass(frozen=True)
class ConvSpec:
    """Convolution geometry; ``depthwise`` groups input channels so each
    output channel sees exactly one input channel."""

    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 1
    padding: int = 0
    depthwise: bool = False

    def __post_init__(self):
        if self.in_channels < 1 or self.out_channels < 1 or self.kernel < 1:
            raise ShapeError("channel counts and kernel size must be positive")
        if self.stride < 1 or self.padding < 0:
            raise ShapeError(f"stride must be positive and padding non-negative, "
                             f"got stride {self.stride}, padding {self.padding}")
        if self.depthwise and self.out_channels % self.in_channels != 0:
            raise ShapeError("depthwise needs out_channels = in_channels * multiplier")


@dataclass(frozen=True)
class LayerNormParams:
    gamma: QTensor
    beta: QTensor
    eps: ScaledInt = ScaledInt(1, 15)

    def __post_init__(self):
        if self.gamma.shape != self.beta.shape or len(self.gamma.shape) != 1:
            raise ShapeError(f"gamma and beta must be matching 1-D tensors, "
                             f"got {self.gamma.shape} and {self.beta.shape}")


def sum_aligned(
    terms: Sequence[ScaledInt],
    cfg: ScaleConfig,
    sat: SaturationCounter | None = None,
) -> ScaledInt:
    """Sum a term set at the maximum scale with one final normalization.

    Zero terms drop out; a single surviving term is returned bit-identical,
    the same object, which keeps identity kernels and zero biases exact.
    """
    acc = pair_sum(terms, cfg, sat)
    return acc if type(acc) is ScaledInt else box(acc, cfg)


def _fixed(pairs, cfg: ScaleConfig) -> tuple[list[int], int]:
    """``pairs`` as the dots read them: ``(ints, g)``, with ``g`` the
    larger of ``scale_max`` and the largest scale, and each ``(m, s)`` the
    exact integer ``m << (g - s)`` it is on the ``2**-g`` grid."""
    g = max([cfg.scale_max] + [s for _, s in pairs])
    return [m << (g - s) for m, s in pairs], g


def conv2d(
    x: QTensor,
    weight: QTensor,
    bias: QTensor | None,
    spec: ConvSpec,
    cfg: ScaleConfig,
    sat: SaturationCounter | None = None,
) -> QTensor:
    """2-D convolution over ``x[B, I, H, W]``.

    Each output element is one dot over its whole receptive field, the
    ``k*k`` taps of every input channel it reads in channel, row, column
    order, with its channel's bias, so it is cut once per output.  A dense
    conv is :func:`linear` over its patches, and a depthwise conv is that per
    channel group: one :func:`_lane_dots` call per image and group, fed the
    patches of one output row at a time.
    """
    if len(x.shape) != 4:
        raise ShapeError(f"input must be [B, I, H, W], got {x.shape}")
    batch, in_ch, height, width = x.shape
    if in_ch != spec.in_channels:
        raise ShapeError(f"input has {in_ch} channels, spec says {spec.in_channels}")
    out_ch, k = spec.out_channels, spec.kernel
    w_ch = 1 if spec.depthwise else spec.in_channels
    if weight.shape != (out_ch, w_ch, k, k):
        raise ShapeError(f"weight must be {(out_ch, w_ch, k, k)}, got {weight.shape}")
    if bias is not None and bias.shape != (out_ch,):
        raise ShapeError(f"bias must be ({out_ch},), got {bias.shape}")
    h_out = (height + 2 * spec.padding - k) // spec.stride + 1
    w_out = (width + 2 * spec.padding - k) // spec.stride + 1
    if h_out < 1 or w_out < 1:
        raise ShapeError(f"kernel {k} does not fit the padded input {x.shape} "
                         f"(padding {spec.padding})")

    # Taps outside the input read zeros from a padded copy of the input, laid
    # out padded row after padded row, each holding its channels side by
    # side.  A zero operand adds no product to a sum, so a padding tap drops
    # out exactly as a skipped tap would.  A group's patch at output column
    # ow is picked from the k padded rows its output row reads, in the order
    # of its outputs' flat kernel slices.
    pad, stride = spec.padding, spec.stride
    row = width + 2 * pad
    span = in_ch * row
    groups = in_ch // w_ch
    per, mult = w_ch * k * k, out_ch // groups
    pickers = []
    for g in range(groups):
        taps = [ky * span + (g * w_ch + c) * row + kx
                for c in range(w_ch) for ky in range(k) for kx in range(k)]
        # one index would make itemgetter return the element, not a sequence
        pickers.append([itemgetter(*[ow * stride + t for t in taps]) if per > 1
                        else itemgetter(slice(ow * stride + taps[0], ow * stride + taps[0] + 1))
                        for ow in range(w_out)])
    k_ints, k_grid = _fixed(weight.data, cfg)
    kernels = [([k_ints[o * per:(o + 1) * per] for o in range(g * mult, (g + 1) * mult)], k_grid)
               for g in range(groups)]
    size = in_ch * height * width

    out: list[ScaledInt] = []
    for b in range(batch):
        flat, grid = _fixed(x.data[b * size:(b + 1) * size], cfg)
        ints = [0] * (span * (height + 2 * pad))
        for i in range(in_ch):
            for ih in range(height):
                src = (i * height + ih) * width
                dst = (ih + pad) * span + i * row + pad
                ints[dst:dst + width] = flat[src:src + width]
        x_max = max(max(flat), -min(flat))
        for g in range(groups):
            views = (ints[r:r + k * span] for r in range(0, h_out * stride * span, stride * span))
            rows = chain.from_iterable([pick(view) for pick in pickers[g]] for view in views)
            dots = _lane_dots(rows, grid, x_max, kernels[g],
                              None if bias is None else bias.data[g * mult:(g + 1) * mult],
                              cfg, sat)
            for j in range(mult):
                out.extend(dots[j::mult])
    return QTensor((batch, out_ch, h_out, w_out), tuple(out))


def linear(
    x: QTensor,
    weight: QTensor,
    bias: QTensor | None,
    cfg: ScaleConfig,
    sat: SaturationCounter | None = None,
) -> QTensor:
    """Affine map ``x @ weight.T + bias`` over the trailing axis."""
    if len(weight.shape) != 2:
        raise ShapeError(f"weight must be [O, I], got {weight.shape}")
    out_f, in_f = weight.shape
    if not x.shape or x.shape[-1] != in_f:
        raise ShapeError(f"input trailing dim must be {in_f}, got {x.shape}")
    if bias is not None and bias.shape != (out_f,):
        raise ShapeError(f"bias must be ({out_f},), got {bias.shape}")
    ints, grid = _fixed(weight.data, cfg)
    wrows = [ints[o * in_f:(o + 1) * in_f] for o in range(out_f)]
    return QTensor(x.shape[:-1] + (out_f,), _row_dots(
        x, (wrows, grid), bias.data if bias is not None else None, cfg, sat))


def matmul(
    a: QTensor,
    b: QTensor,
    cfg: ScaleConfig,
    sat: SaturationCounter | None = None,
) -> QTensor:
    if len(a.shape) != 2 or len(b.shape) != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    n = b.shape[1]
    ints, grid = _fixed(b.data, cfg)
    return QTensor((a.shape[0], n),
                   _row_dots(a, ([ints[j::n] for j in range(n)], grid), None, cfg, sat))


def _row_dots(x: QTensor, w, biases, cfg: ScaleConfig,
              sat: SaturationCounter | None) -> tuple[ScaledInt, ...]:
    """Each trailing-axis row of ``x`` dotted with each of ``w``'s rows,
    plus ``biases[o]`` when given, through :func:`_lane_dots`; ``w`` is
    ``(wrows, grid)`` as :func:`_fixed` makes it.  Rows are counted from the
    shape, so an empty trailing axis gives each output its bias alone."""
    width = x.shape[-1]
    ints, grid = _fixed(x.data, cfg)
    rows = (ints[r * width:(r + 1) * width] for r in range(math.prod(x.shape[:-1])))
    return tuple(_lane_dots(rows, grid, max(map(abs, ints), default=0), w, biases, cfg, sat))


# About how many lanes _lane_dots reads back at a time: 512 of 64 bits is
# 4 KiB of bytes per chunk, whatever the call's size.
_CHUNK_LANES = 512


def _lane_dots(rows, grid: int, x_max: int, w, biases, cfg: ScaleConfig,
               sat: SaturationCounter | None) -> list[ScaledInt]:
    """Each of ``rows`` dotted with each of ``w``'s rows, plus ``biases[o]``
    when given, boxed row after row: the multiply-accumulate of
    :func:`conv2d`, :func:`linear` and :func:`matmul`.

    ``rows`` are ints on the grid ``2**-grid`` with no magnitude above
    ``x_max``, and ``w`` is ``(wrows, g_w)``, both as :func:`_fixed` makes
    them.  Every output of the call is cut on one grid ``G``, the larger of
    ``grid + g_w`` and the scale of every live bias, and the weights and the
    biases are shifted onto it once.  That is exact: ``G`` is at least
    ``2 * scale_max``, above the ceiling, and there ``fit(m << k, s + k)`` is
    ``fit(m, s)``, so each output is T of its exact ``sum(x*w) + b`` at the
    finest scale up to ``scale_max``, cut once.  An in-format operand is an
    integer of at most ``P + scale_max - scale_min`` bits, so an exact total
    of ``n`` products and an in-format bias needs at most
    ``2*(P + scale_max - scale_min) + ceil(log2 n)`` bits: 84 at the default
    format with 64 terms.

    The O weights of each column are packed into one int in lanes of L bits,
    output o in lane o, and ``base`` holds ``2**(L-1)`` plus output o's
    shifted bias in lane o, so one C-level ``sum(map(mul, row, packs),
    base)`` makes all O totals of a row.  Every ``|total|`` is at most
    ``bound = x_max * max_o sum(|w_o|) + max(|b|)`` from the call's own
    operands, and L is the smallest multiple of 64 above ``bitlen(bound)``,
    so ``|total| < 2**(L-1)``: lane o holds its total plus ``2**(L-1)`` in
    ``[0, 2**L)`` and never borrows from or carries into its neighbour, in
    any format.  Rows are taken in chunks of about ``_CHUNK_LANES`` lanes,
    and a chunk's lanes are read back from its rows' joined little-endian
    bytes, lane 0 of the first row first, on any host: one ``struct``
    unpack of unsigned 64-bit words when L is 64, ``int.from_bytes`` per
    lane otherwise.  A chunk bounds the memory the read-back holds, which a
    whole call's lanes would not.  Each lane, less ``2**(L-1)``, is cut at
    ``G`` by :func:`_cut_each`.
    """
    wrows, g_w = w
    n_out = len(wrows)
    top = grid + g_w
    if biases is not None:
        top = max([top] + [s for m, s in biases if m])
    up = top - grid - g_w
    shifted = [0] * n_out if biases is None else [m << (top - s) if m else 0 for m, s in biases]
    widest = max([sum(map(abs, r)) for r in wrows], default=0) << up
    lane = 64 * ((x_max * widest + max(map(abs, shifted), default=0)).bit_length() // 64 + 1)
    half = 1 << (lane - 1)
    at = [lane * o for o in range(n_out)]
    packs = [sum([v << a for v, a in zip(col, at)]) << up for col in zip(*wrows)]
    base = sum([(half + b) << a for b, a in zip(shifted, at)])
    width = lane // 8
    size, per = width * n_out, max(1, _CHUNK_LANES // (n_out or 1))
    rows = iter(rows)
    out: list[ScaledInt] = []
    while raw := b"".join([sum(map(mul, row, packs), base).to_bytes(size, "little")
                           for row in islice(rows, per)]):
        lanes = struct.unpack(f"<{len(raw) // 8}Q", raw) if lane == 64 else [
            int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)]
        _cut_each(lanes, half, top, cfg, sat, out)
    return out


def _cut_each(values, offset: int, top: int, cfg: ScaleConfig,
              sat: SaturationCounter | None, out: list) -> list:
    """Append ``box(fit(u - offset, top, cfg, sat), cfg)`` to ``out`` for
    each int ``u`` of ``values``, with ``top >= scale_max``, and return it.

    Each total ``t = u - offset`` is cut inline, by the step ``fit`` takes
    for it: since ``top >= scale_max``, ``fit(t, top)`` shifts by
    ``k = max(bitlen(|t|) - P, top - scale_max) >= 0``, to the pair
    ``(+-(|t| >> k), top - k)``, whose magnitude is under ``2**P``.  When
    ``top - k`` is at least ``scale_min``, that pair is in the format, so
    ``fit`` returns it unchanged past the shift, and where its scale's row
    of ``cfg.boxes`` holds a box in slot ``+-(|t| >> k)``, that box is the
    one :func:`~scaledq.core.box` hands out.  Every other total takes
    ``box(fit(t, top, cfg, sat), cfg)``, which stays the rule's one
    statement: a zero total or one the ceiling flushes, whose slot 0 is
    always empty; a scale below the floor, where ``fit`` saturates and
    records it; a scale with no row, as past ``MAX_SLOTS``; and a pair not
    boxed yet.
    """
    rows, p_bits, least = cfg.boxes, cfg.p_bits, top - cfg.scale_max
    first = top - cfg.scale_min
    for u in values:
        t = u - offset
        k = t.bit_length() - p_bits
        if k < least:
            k = least
        q = None
        if k <= first and (row := rows[first - k]):
            q = row[t >> k if t > 0 else -(-t >> k)]
        if q is None:
            q = box(fit(t, top, cfg, sat), cfg)
        out.append(q)
    return out


def transpose(a: QTensor) -> QTensor:
    """Index permutation only; no arithmetic."""
    if len(a.shape) != 2:
        raise ShapeError(f"transpose expects a matrix, got {a.shape}")
    m, n = a.shape
    return QTensor((n, m), tuple(a.data[i * n + j] for j in range(n) for i in range(m)))


def layer_norm(
    x: QTensor,
    params: LayerNormParams,
    cfg: ScaleConfig,
    sat: SaturationCounter | None = None,
) -> QTensor:
    """Standardize each trailing-axis vector, then apply the affine pair.

    Neither the mean nor a deviation is cut.  Each row is read through
    :func:`_fixed`, each element the integer ``a_i`` on its grid ``top``,
    and ``A`` is their sum, so ``n*a_i - A`` is ``n * (x_i - mean)``, exact.
    That integer at scale ``g`` is the deviation ``d_i``, with ``g`` the
    grid ``top``, or a coarser one where the row's largest deviation would
    leave no room to square and sum ``n`` of them below ``max_value``.  So
    ``d_i = c * (x_i - mean)`` with ``c = n * 2**(top - g)``, and the
    variance ``var``, ``c**2`` times the (population) variance plus
    ``c**2 * eps``, is T of the exact ``(dot(d, d) + n * c**2 * eps) / n``,
    one ``quotient``.  Its ``inv = 1/sqrt(var)``, by the quantized Newton
    iteration from :func:`~scaledq.newton.exponent_seed`, carries the
    ``1/c`` that standardizes each ``d_i``.  Each output is T of the exact
    ``d_i * inv * gamma_i + beta_i``: the products and beta, each on its
    grid, are aligned on the larger, ``t >= scale_max``, where
    ``fit(m << j, s + j)`` is ``fit(m, s)``, so :func:`_cut_each` cuts the
    row at ``t`` as at each output's own grid.  So the variance and the
    outputs are the row's only cuts, besides Newton's steps.  A row whose
    deviations all vanish, one holding a single value in any of its stored
    forms, short-circuits to beta and never consults eps.
    """
    n = x.shape[-1] if x.shape else 0
    if n < 1:
        raise ShapeError(f"layer_norm needs a non-empty trailing axis, got {x.shape}")
    if params.gamma.shape != (n,):
        raise ShapeError(f"gamma/beta must be ({n},), got {params.gamma.shape}")
    # beta is boxed once, so the rows that short-circuit to it hold shared boxes
    beta = [box(e, cfg) for e in params.beta.data]
    (gamma, g_gamma), (betas, g_beta) = _fixed(params.gamma.data, cfg), _fixed(beta, cfg)
    eps_m, eps_s = params.eps
    # n deviations below 2**room square and sum below 2**(P - 1 - scale_min),
    # under max_value, so the variance, eps aside, never saturates
    room = (cfg.p_bits - 1 - cfg.scale_min - n.bit_length()) // 2
    out: list[ScaledInt] = []
    for r in range(0, x.size, n):
        aligned, top = _fixed(x.data[r:r + n], cfg)
        total = sum(aligned)
        ints = [n * a - total for a in aligned]
        if not any(ints):
            out.extend(beta)
            continue
        g = max(top, max(max(ints), -min(ints)).bit_length() - room)
        es = eps_s + 2 * (g - top)  # c**2 * eps is eps_m * n**2 at scale es
        vs = max(2 * g, es)
        var = box(quotient((sum(map(mul, ints, ints)) << (vs - 2 * g))
                           + (eps_m * n ** 3 << (vs - es)), n, vs, cfg, sat), cfg)
        (im, i_s), _ = newton_inv_sqrt(var, exponent_seed(var, cfg), NEWTON_ITERS, cfg, sat)
        t = max(g + g_gamma + i_s, g_beta)
        im, lift = im << (t - g - g_gamma - i_s), t - g_beta
        _cut_each([d * c * im + (b << lift) for d, c, b in zip(ints, gamma, betas)],
                  0, t, cfg, sat, out)
    return QTensor(x.shape, tuple(out))


def softmax(
    xs: Sequence[ScaledInt],
    cfg: ScaleConfig,
    sat: SaturationCounter | None = None,
) -> list[ScaledInt]:
    """Quadratic-series softmax: ``(1 + x + x^2/2) / sum_j(...)``.

    Each numerator is T of its exact value, ``((x + 1)^2 + 1) / 2 >= 1/2``,
    cut once, so it is positive on every input.  Their sum, cut once, is
    the denominator, positive too; past the scale floor it saturates and
    counts on ``sat``.  Each output is T of its numerator over that shared
    denominator, the whole row divided on one grid (see :func:`_normalize`).
    It is one row of :func:`softmax_tensor`.
    """
    if len(xs) < 1:
        raise ShapeError(f"softmax needs at least one element, got {len(xs)}")
    return list(softmax_tensor(QTensor((len(xs),), tuple(xs)), cfg, sat).data)


def _softmax_numerator(x, cfg: ScaleConfig,
                       sat: SaturationCounter | None) -> tuple[int, int]:
    """T of the exact ``1 + x + x^2/2`` on one pair: its three terms as ints
    on one grid of at least ``scale_max``, where ``fit`` is T, cut once."""
    m, s = x
    g = max(cfg.scale_max, 2 * s + 1)
    return fit((1 << g) + (m << (g - s)) + (m * m << (g - 2 * s - 1)), g, cfg, sat)


def _normalize(nums, cfg: ScaleConfig,
               sat: SaturationCounter | None) -> list[ScaledInt]:
    """One softmax row from its positive numerators ``(m, s)``: with ``g``
    their largest scale, each floor quotient ``(m << (g - s + e)) // dm`` by
    their sum ``(dm, ds)`` is cut on the row's grid ``g - ds + e``.  ``e``
    gives each more than P bits on a grid above ``scale_max``, and a floor
    of a floor is the floor, so each is T of its value, as ``pair_div``."""
    dm, ds = pair_sum(nums, cfg, sat)
    g = max([s for _, s in nums])
    e = cfg.p_bits + dm.bit_length() + max(0, cfg.scale_max + ds - g + 1)
    return _cut_each([(m << (g - s + e)) // dm for m, s in nums], 0, g - ds + e, cfg, sat, [])


def softmax_tensor(
    x: QTensor,
    cfg: ScaleConfig,
    sat: SaturationCounter | None = None,
) -> QTensor:
    """Row-wise :func:`softmax` over the trailing axis.

    Each distinct input's numerator is evaluated once per call and reused
    for its repeats, which replay its saturations (see :func:`_each_distinct`).
    """
    n = x.shape[-1] if x.shape else 0
    if n < 1:
        raise ShapeError(f"softmax needs a non-empty trailing axis, got {x.shape}")
    nums = _each_distinct(_softmax_numerator, x.data, cfg, sat)
    out: list[ScaledInt] = []
    for r in range(0, x.size, n):
        out.extend(_normalize(nums[r:r + n], cfg, sat))
    return QTensor(x.shape, tuple(out))


def _each_distinct(fn, xs, cfg: ScaleConfig,
                   sat: SaturationCounter | None, *args) -> list:
    """``[fn(x, cfg, sat, *args) for x in xs]``, with ``fn`` run once per
    distinct ``(magnitude, scale)`` pair in ``xs``.

    The format holds few values (16 321 at P = 8 with 5 scale bits), so an
    activation tensor of thousands of elements repeats most of them.  Each
    distinct pair runs against a counter of its own, and every occurrence,
    the first included, records that many saturations on ``sat``, so the
    count is the plain loop's.  The memo lives for this call only: a cache
    kept between calls would answer repeated passes without doing the work.
    """
    memo = {}
    out = []
    for x in xs:
        hit = memo.get(x)
        if hit is None:
            own = None if sat is None else SaturationCounter()
            hit = memo[x] = (fn(x, cfg, own, *args), 0 if own is None else own.count)
        result, saturations = hit
        if saturations:
            for _ in range(saturations):
                sat.record()
        out.append(result)
    return out


_ONE = (1, 0)
# The series coefficients of gelu's A as (magnitude, scale) pairs: 102/2^7 on
# x and 18/2^9 on x^3.  reference.GELU_C1 and GELU_C3 are their values.
GELU_SERIES = ((102, 7), (18, 9))


def gelu(
    x: ScaledInt,
    cfg: ScaleConfig,
    sat: SaturationCounter | None = None,
    variant: str | None = None,
) -> ScaledInt:
    """Smooth gate ``0.5 * x * (1 + A [, +A^3 | -A^3/3])`` with the dyadic
    series ``A = 102/2^7 * x + 18/2^9 * x^3``.

    ``series-linear`` keeps just ``1 + A``; ``series-cubed`` adds ``A^3``;
    ``series-cubed-corrected`` subtracts ``A^3/3`` instead, the analytic
    continuation of the underlying tanh series.
    """
    variant = variant or cfg.gelu_variant
    x3 = pair_mul(pair_mul(x, x, cfg, sat), x, cfg, sat)
    c1, c3 = GELU_SERIES
    a = pair_add(pair_mul(c1, x, cfg, sat), pair_mul(c3, x3, cfg, sat), cfg, sat)
    if variant == GELU_SERIES_LINEAR:
        gate = pair_add(_ONE, a, cfg, sat)
    else:
        a3 = pair_mul(pair_mul(a, a, cfg, sat), a, cfg, sat)
        if variant == GELU_SERIES_CUBED:
            gate = pair_sum((_ONE, a, a3), cfg, sat)
        elif variant == GELU_SERIES_CUBED_CORRECTED:
            gate = pair_sum((_ONE, a, pair_div(a3, (-3, 0), cfg, sat)), cfg, sat)
        else:
            raise ValueError(f"unknown gelu variant {variant!r}")
    m, s = pair_mul(x, gate, cfg, sat)
    return box(fit(m, s + 1, cfg, sat), cfg)


def gelu_map(
    x: QTensor,
    cfg: ScaleConfig,
    sat: SaturationCounter | None = None,
    variant: str | None = None,
) -> QTensor:
    """:func:`gelu` on every element, evaluated once per distinct input per
    call; repeats replay its saturations (see :func:`_each_distinct`)."""
    return QTensor(x.shape, tuple(_each_distinct(gelu, x.data, cfg, sat, variant)))


def relu(x: ScaledInt) -> ScaledInt:
    return ZERO if x[0] < 0 else x


def _inv_root(q: QTensor, k: QTensor, v: QTensor, d_m: int, cfg: ScaleConfig,
              sat: SaturationCounter | None) -> ScaledInt:
    """Both attentions' front end: their shape check and ``1/sqrt(d_m)``,
    once per call, by Newton from ``d_m``'s :func:`exponent_seed`."""
    if q.shape != k.shape or q.shape != v.shape or len(q.shape) != 2:
        raise ShapeError(f"attention expects matching [T, d] tensors, "
                         f"got {q.shape}, {k.shape}, {v.shape}")
    if d_m < 1:
        raise ShapeError(f"attention head dimension must be positive, got {d_m}")
    d = handle_overflow(d_m, 0, cfg)
    scaled, _ = newton_inv_sqrt(d, exponent_seed(d, cfg), NEWTON_ITERS, cfg, sat)
    return scaled


def _scaled(t: QTensor, factor: ScaledInt, cfg: ScaleConfig,
            sat: SaturationCounter | None) -> QTensor:
    """Every element of ``t`` times ``factor`` through ``scale_mul``."""
    return QTensor(t.shape, tuple(scale_mul(e, factor, cfg, sat) for e in t.data))


def attention(
    q: QTensor,
    k: QTensor,
    v: QTensor,
    d_m: int,
    cfg: ScaleConfig,
    sat: SaturationCounter | None = None,
) -> QTensor:
    """Scaled dot-product attention ``softmax(Q K^T / sqrt(d_m)) V``.

    The ``1/sqrt(d_m)`` factor is computed once per call and reused across
    the whole score matrix.
    """
    inv_root = _inv_root(q, k, v, d_m, cfg, sat)
    scores = _scaled(matmul(q, transpose(k), cfg, sat), inv_root, cfg, sat)
    return matmul(softmax_tensor(scores, cfg, sat), v, cfg, sat)


def factorized_attention(
    q: QTensor,
    k: QTensor,
    v: QTensor,
    d_m: int,
    cfg: ScaleConfig,
    sat: SaturationCounter | None = None,
) -> QTensor:
    """Linear-complexity attention ``(Q / sqrt(d_m)) (softmax_T(K)^T V)``.

    The key softmax runs over the token axis, independently per feature
    column, so the context matrix is only ``d x d``.
    """
    inv_root = _inv_root(q, k, v, d_m, cfg, sat)
    # the rows of K^T are the per-feature token columns
    context = matmul(softmax_tensor(transpose(k), cfg, sat), v, cfg, sat)
    return matmul(_scaled(q, inv_root, cfg, sat), context, cfg, sat)
