"""Quantized tensor operators built solely from the scaled-integer primitives.

Every operator performs integer arithmetic only; converting results back to
floating point is the job of the reference/benchmark layer.  A multi-term sum
aligns every term to the set's maximum scale, adds wide in a fixed order and
normalizes once.  The operators compute on signed ``(magnitude, scale)`` int
pairs, each step ending in ``core.fit`` or ``core.quotient``, bit-identical to
composing the ``core`` primitives; every sum of products runs through
:func:`_dot`, and a :class:`ScaledInt` is built only per output element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import (
    ZERO,
    GELU_SERIES_CUBED,
    GELU_SERIES_CUBED_CORRECTED,
    GELU_SERIES_LINEAR,
    SaturationCounter,
    ScaleConfig,
    ScaledInt,
    fit,
    handle_overflow,
    quotient,
    scale_mul,
)
from .newton import default_seed, newton_inv_sqrt


class ShapeError(ValueError):
    """Tensor shapes inconsistent with the requested operation."""


@dataclass(frozen=True)
class QTensor:
    """Shaped, row-major array of scaled integers (one scale per element)."""

    shape: tuple[int, ...]
    data: tuple[ScaledInt, ...]

    def __post_init__(self):
        n = math.prod(self.shape)
        if n != len(self.data):
            raise ShapeError(f"shape {self.shape} needs {n} elements, got {len(self.data)}")

    @property
    def size(self) -> int:
        return len(self.data)


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
    which keeps identity kernels and zero biases exact.
    """
    live = [t for t in terms if t.magnitude]
    if not live:
        return ZERO
    if len(live) == 1:
        return live[0]
    s = max(t.scale for t in live)
    total = 0
    for t in live:
        total += t.signed_magnitude << (s - t.scale)
    if total == 0:
        return ZERO
    return handle_overflow(abs(total), s, cfg, total < 0, sat)


def _pairs(elements: Sequence[ScaledInt]) -> list[tuple[int, int]]:
    """Elements as the ``(signed_magnitude, scale)`` int pairs the kernels
    read; built per call (or per row), never kept on a tensor."""
    return [(-e.magnitude if e.negative else e.magnitude, e.scale) for e in elements]


def _add_pairs(pairs, cfg: ScaleConfig,
               sat: SaturationCounter | None) -> tuple[int, int]:
    """:func:`sum_aligned` on ``(signed_magnitude, scale)`` pairs: zero
    pairs drop out and a single live pair comes back as given."""
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


def _add(a, b, cfg: ScaleConfig,
         sat: SaturationCounter | None) -> tuple[int, int]:
    """:func:`scale_add` on two pairs; a zero pair returns the other as given."""
    if not a[0]:
        return b
    if not b[0]:
        return a
    top = a[1] if a[1] > b[1] else b[1]
    return fit((a[0] << (top - a[1])) + (b[0] << (top - b[1])), top, cfg, sat)


def _mul(a, b, cfg: ScaleConfig,
         sat: SaturationCounter | None) -> tuple[int, int]:
    """:func:`scale_mul` on two pairs."""
    return fit(a[0] * b[0], a[1] + b[1], cfg, sat)


def _div(a, b, cfg: ScaleConfig,
         sat: SaturationCounter | None) -> tuple[int, int]:
    """:func:`scale_div` on two pairs."""
    return quotient(a[0], b[0], a[1] - b[1], cfg, sat)


def _dot(xs, ws, cfg: ScaleConfig,
         sat: SaturationCounter | None) -> tuple[int, int]:
    """Fused multiply-accumulate on two equal-length pair sequences, the one
    path for every sum of products in this module.

    Bit-identical to ``sum_aligned([scale_mul(x, w) ...])``.  Each product's
    cut to P bits and :func:`fit`'s shift down to the scale ceiling compose
    into one shift toward zero by ``max(bitlen - P, scale - scale_max)``,
    taken inline; a product cut to zero drops out, and :func:`fit` is called
    only below the floor.  The live products, all in range, are added at
    scale ``scale_max``, shifted down once to the largest live scale, where
    ``sum_aligned`` aligns them, and fitted once.  Integer addition does not
    depend on order; ``fit`` keeps one in-format term.
    """
    p_bits, lo, hi = cfg.p_bits, cfg.scale_min, cfg.scale_max
    total, top = 0, lo
    for (xm, xe), (wm, we) in zip(xs, ws):
        if xm and wm:
            m = xm * wm
            s = xe + we
            k = m.bit_length() - p_bits
            if s - hi > k:
                k = s - hi
            if k > 0:
                m = m >> k if m > 0 else -(-m >> k)
                if not m:
                    continue
                s -= k
            if s < lo:
                m, s = fit(m, s, cfg, sat)
            total += m << (hi - s)
            if s > top:
                top = s
    return fit(total >> (hi - top), top, cfg, sat)


def conv2d(
    x: QTensor,
    weight: QTensor,
    bias: QTensor | None,
    spec: ConvSpec,
    cfg: ScaleConfig,
    sat: SaturationCounter | None = None,
) -> QTensor:
    """2-D convolution over ``x[B, I, H, W]``.

    Per output element: elementwise products across the kernel window, a
    max-scale-aligned sum per input channel, a second aligned sum across
    channels, then the bias folded in the same way.  Every stage result is
    renormalized before it feeds the next.

    A pointwise (k = 1) channel sum is one product already cut to P bits,
    which ``fit`` returns unchanged, so the pointwise sum across channels is
    one :func:`_dot` over the channel column; a depthwise output has one
    channel, so its window's dot is the channel sum.  Both give the bytes
    and saturation counts of the two-stage sum.
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

    # Taps outside the input read zero pairs from a padded copy of the input
    # planes, stacked channel after channel.  A zero operand adds no product
    # to a sum, so a padding tap drops out exactly as a skipped tap would.
    # Each window is a list of offsets into the stack from an output's start;
    # each output channel has a list of (window, kernel) dots, summed across
    # channels when there is more than one.
    pad, stride = spec.padding, spec.stride
    row = width + 2 * pad
    plane = row * (height + 2 * pad)
    offsets = [ky * row + kx for ky in range(k) for kx in range(k)]
    starts = [oh * stride * row + ow * stride for oh in range(h_out) for ow in range(w_out)]
    wp = _pairs(weight.data)
    biases = _pairs(bias.data) if bias is not None else None
    kernels = [wp[j:j + k * k] for j in range(0, len(wp), k * k)]
    taps = [[i * plane + d for d in offsets] for i in range(in_ch)]
    if spec.depthwise:
        groups = [[(o // (out_ch // in_ch), kernels[o])] for o in range(out_ch)]
    elif k == 1:
        # pointwise: one window holding every channel's tap, one dot per output
        taps = [[i * plane for i in range(in_ch)]]
        groups = [[(0, wp[o * in_ch:(o + 1) * in_ch])] for o in range(out_ch)]
    else:
        groups = [[(i, kernels[o * in_ch + i]) for i in range(in_ch)]
                  for o in range(out_ch)]
    npos = len(starts)
    out: list[ScaledInt] = []
    for b in range(batch):
        stack = [(0, 0)] * (in_ch * plane)
        for i in range(in_ch):
            for ih in range(height):
                src = ((b * in_ch + i) * height + ih) * width
                dst = i * plane + (ih + pad) * row + pad
                stack[dst:dst + width] = _pairs(x.data[src:src + width])
        image: list[ScaledInt] = [ZERO] * (out_ch * npos)
        for pos, st in enumerate(starts):
            windows = [[stack[st + d] for d in tap] for tap in taps]
            for o, group in enumerate(groups):
                if len(group) == 1:
                    acc = _dot(windows[group[0][0]], group[0][1], cfg, sat)
                else:
                    acc = _add_pairs([_dot(windows[i], ker, cfg, sat) for i, ker in group],
                                     cfg, sat)
                if biases is not None:
                    acc = _add(acc, biases[o], cfg, sat)
                image[o * npos + pos] = ScaledInt.from_signed(*acc)
        out.extend(image)
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
    wp = _pairs(weight.data)
    wrows = [wp[o * in_f:(o + 1) * in_f] for o in range(out_f)]
    biases = _pairs(bias.data) if bias is not None else None
    out: list[ScaledInt] = []
    for r in range(x.size // in_f):
        row = _pairs(x.data[r * in_f:(r + 1) * in_f])
        for o, wrow in enumerate(wrows):
            acc = _dot(row, wrow, cfg, sat)
            if biases is not None:
                acc = _add(acc, biases[o], cfg, sat)
            out.append(ScaledInt.from_signed(*acc))
    return QTensor(x.shape[:-1] + (out_f,), tuple(out))


def matmul(
    a: QTensor,
    b: QTensor,
    cfg: ScaleConfig,
    sat: SaturationCounter | None = None,
) -> QTensor:
    if len(a.shape) != 2 or len(b.shape) != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    m, k = a.shape
    _, n = b.shape
    bp = _pairs(b.data)
    cols = [bp[j::n] for j in range(n)]
    out: list[ScaledInt] = []
    for i in range(m):
        row = _pairs(a.data[i * k:(i + 1) * k])
        out.extend(ScaledInt.from_signed(*_dot(row, col, cfg, sat)) for col in cols)
    return QTensor((m, n), tuple(out))


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

    Mean and (population) variance come from aligned sums and scaled
    division; the inverse square root of ``var + eps`` runs the quantized
    Newton iteration.  A row of identical stored values, or one whose
    quantized deviations all vanish (one value stored in different forms),
    short-circuits to beta and never consults eps.
    """
    n = x.shape[-1] if x.shape else 0
    if n < 1:
        raise ShapeError(f"layer_norm needs a non-empty trailing axis, got {x.shape}")
    if params.gamma.shape != (n,):
        raise ShapeError(f"gamma/beta must be ({n},), got {params.gamma.shape}")
    count = fit(n, 0, cfg)
    eps = (params.eps.signed_magnitude, params.eps.scale)
    gamma, beta = _pairs(params.gamma.data), _pairs(params.beta.data)
    seed = default_seed(cfg)
    out: list[ScaledInt] = []
    for r in range(0, x.size, n):
        row = _pairs(x.data[r:r + n])
        if row.count(row[0]) == n:
            out.extend(params.beta.data)
            continue
        mm, ms = _div(_add_pairs(row, cfg, sat), count, cfg, sat)
        devs = [_add(e, (-mm, ms), cfg, sat) for e in row]
        if not any(m for m, _ in devs):
            out.extend(params.beta.data)
            continue
        var = _div(_dot(devs, devs, cfg, sat), count, cfg, sat)
        inv_std, _ = newton_inv_sqrt(ScaledInt.from_signed(*_add(var, eps, cfg, sat)),
                                     seed, cfg.newton_iters, cfg, sat)
        inv = (inv_std.signed_magnitude, inv_std.scale)
        out.extend(ScaledInt.from_signed(
            *_add(_mul(_mul(d, inv, cfg, sat), g, cfg, sat), b, cfg, sat))
            for d, g, b in zip(devs, gamma, beta))
    return QTensor(x.shape, tuple(out))


def softmax(
    xs: Sequence[ScaledInt],
    cfg: ScaleConfig,
    sat: SaturationCounter | None = None,
) -> list[ScaledInt]:
    """Quadratic-series softmax: ``(1 + x + x^2/2) / sum_j(...)``.

    The numerator polynomial is positive for every real input, so the
    denominator never vanishes.  Halving x^2 is a scale increment, and each
    output is a scaled division of its numerator by the shared denominator.
    """
    if len(xs) < 1:
        raise ShapeError(f"softmax needs at least one element, got {len(xs)}")
    nums = []
    for x in _pairs(xs):
        m, s = _mul(x, x, cfg, sat)
        nums.append(_add_pairs((_ONE, x, fit(m, s + 1, cfg, sat)), cfg, sat))
    den = _add_pairs(nums, cfg, sat)
    return [ScaledInt.from_signed(*_div(num, den, cfg, sat)) for num in nums]


def softmax_tensor(
    x: QTensor,
    cfg: ScaleConfig,
    sat: SaturationCounter | None = None,
) -> QTensor:
    """Row-wise softmax over the trailing axis."""
    n = x.shape[-1] if x.shape else 0
    if n < 1:
        raise ShapeError(f"softmax needs a non-empty trailing axis, got {x.shape}")
    out: list[ScaledInt] = []
    for r in range(x.size // n):
        out.extend(softmax(x.data[r * n:(r + 1) * n], cfg, sat))
    return QTensor(x.shape, tuple(out))


_ONE = (1, 0)


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
    x = (x.signed_magnitude, x.scale)
    x3 = _mul(_mul(x, x, cfg, sat), x, cfg, sat)
    a = _dot(((102, 7), (18, 9)), (x, x3), cfg, sat)
    if variant == GELU_SERIES_LINEAR:
        gate = _add(_ONE, a, cfg, sat)
    else:
        a3 = _mul(_mul(a, a, cfg, sat), a, cfg, sat)
        if variant == GELU_SERIES_CUBED:
            gate = _add_pairs((_ONE, a, a3), cfg, sat)
        elif variant == GELU_SERIES_CUBED_CORRECTED:
            gate = _add_pairs((_ONE, a, _div(a3, (-3, 0), cfg, sat)), cfg, sat)
        else:
            raise ValueError(f"unknown gelu variant {variant!r}")
    m, s = _mul(x, gate, cfg, sat)
    return ScaledInt.from_signed(*fit(m, s + 1, cfg, sat))


def gelu_map(
    x: QTensor,
    cfg: ScaleConfig,
    sat: SaturationCounter | None = None,
    variant: str | None = None,
) -> QTensor:
    return QTensor(x.shape, tuple(gelu(e, cfg, sat, variant) for e in x.data))


def relu(x: ScaledInt) -> ScaledInt:
    return ZERO if x.negative else x


def relu_map(x: QTensor) -> QTensor:
    return QTensor(x.shape, tuple(relu(e) for e in x.data))


def _inv_sqrt_of_count(d_m: int, cfg: ScaleConfig,
                       sat: SaturationCounter | None) -> ScaledInt:
    if d_m < 1:
        raise ShapeError(f"attention head dimension must be positive, got {d_m}")
    scaled, _ = newton_inv_sqrt(handle_overflow(d_m, 0, cfg), default_seed(cfg),
                                cfg.newton_iters, cfg, sat)
    return scaled


def attention(
    q: QTensor,
    k: QTensor,
    v: QTensor,
    d_m: int,
    cfg: ScaleConfig,
    sat: SaturationCounter | None = None,
) -> QTensor:
    """Scaled dot-product attention ``softmax(Q K^T / sqrt(d_m)) V``.

    The ``1/sqrt(d_m)`` factor is computed once per call via the quantized
    Newton iteration and reused across the whole score matrix.
    """
    if q.shape != k.shape or q.shape != v.shape or len(q.shape) != 2:
        raise ShapeError(f"attention expects matching [T, d] tensors, "
                         f"got {q.shape}, {k.shape}, {v.shape}")
    inv_root = _inv_sqrt_of_count(d_m, cfg, sat)
    scores = matmul(q, transpose(k), cfg, sat)
    scaled = QTensor(scores.shape,
                     tuple(scale_mul(e, inv_root, cfg, sat) for e in scores.data))
    weights = softmax_tensor(scaled, cfg, sat)
    return matmul(weights, v, cfg, sat)


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
    if q.shape != k.shape or q.shape != v.shape or len(q.shape) != 2:
        raise ShapeError(f"attention expects matching [T, d] tensors, "
                         f"got {q.shape}, {k.shape}, {v.shape}")
    tokens, feats = k.shape
    inv_root = _inv_sqrt_of_count(d_m, cfg, sat)
    cols: list[list[ScaledInt]] = []
    for j in range(feats):
        cols.append(softmax([k.data[t * feats + j] for t in range(tokens)], cfg, sat))
    # cols[j][t] is already softmax(K)^T laid out [feats, tokens]
    sk_t = QTensor((feats, tokens), tuple(e for col in cols for e in col))
    context = matmul(sk_t, v, cfg, sat)
    q_scaled = QTensor(q.shape, tuple(scale_mul(e, inv_root, cfg, sat) for e in q.data))
    return matmul(q_scaled, context, cfg, sat)
