"""FP64 reference implementations and error metrics.

Each ``ref_*`` function mirrors a quantized operator with plain float
arithmetic written as naive loops, deliberately independent of the integer
path so the two can check each other.  ``ref_softmax_series`` and
``ref_gelu_series`` evaluate the same truncated polynomials the quantized
operators use, isolating rounding error from approximation error;
``ref_softmax_exact`` / ``ref_gelu_exact`` give the true functions.
"""

from __future__ import annotations

import math
from typing import Sequence

from .core import GELU_SERIES_CUBED, GELU_SERIES_CUBED_CORRECTED, GELU_SERIES_LINEAR, dequantize
from .ops import GELU_SERIES, ConvSpec, QTensor, ShapeError, Tensor

# The quantized gelu's dyadic series constants, 102/2^7 and 18/2^9, as floats.
GELU_C1, GELU_C3 = (math.ldexp(m, -s) for m, s in GELU_SERIES)


class FTensor(Tensor):
    """Shaped, row-major array of floats."""


def dequantize_tensor(q: QTensor) -> FTensor:
    return FTensor(q.shape, tuple(map(dequantize, q.data)))


def ref_conv2d(x: FTensor, weight: FTensor, bias: FTensor | None,
               spec: ConvSpec) -> FTensor:
    batch, in_ch, height, width = x.shape
    out_ch, k = spec.out_channels, spec.kernel
    stride, pad = spec.stride, spec.padding
    w_ch = 1 if spec.depthwise else in_ch
    h_out = (height + 2 * pad - k) // stride + 1
    w_out = (width + 2 * pad - k) // stride + 1
    multiplier = out_ch // in_ch if spec.depthwise else 0

    def taps(n_out: int, n_in: int) -> list[list[tuple[int, int]]]:
        # (kernel index, input index) of each output index's in-range taps
        return [[(t, i) for t in range(k) if 0 <= (i := n * stride - pad + t) < n_in]
                for n in range(n_out)]

    # Offsets are worked out once per output row and column, and summed in
    # the same order as a loop that checks every tap: channel, ky, kx.
    rows = [[(ky * k, ih * width) for ky, ih in r] for r in taps(h_out, height)]
    cols = taps(w_out, width)
    xd, wd = x.data, weight.data
    out = []
    for b in range(batch):
        for o in range(out_ch):
            channels = [o // multiplier] if spec.depthwise else range(in_ch)
            bases = [((o * w_ch + ci) * k * k, (b * in_ch + i) * height * width)
                     for ci, i in enumerate(channels)]
            for r in rows:
                for c in cols:
                    acc = 0.0
                    for wb, xb in bases:
                        for wr, xr in r:
                            wi, xi = wb + wr, xb + xr
                            for kx, iw in c:
                                acc += xd[xi + iw] * wd[wi + kx]
                    if bias is not None:
                        acc += bias.data[o]
                    out.append(acc)
    return FTensor((batch, out_ch, h_out, w_out), tuple(out))


def ref_linear(x: FTensor, weight: FTensor, bias: FTensor | None) -> FTensor:
    out_f, in_f = weight.shape
    if x.shape[-1:] != (in_f,):
        raise ShapeError(f"input trailing dim must be {in_f}, got {x.shape}")
    out = []
    for r in range(math.prod(x.shape[:-1])):
        for o in range(out_f):
            acc = 0.0
            for i in range(in_f):
                acc += x.data[r * in_f + i] * weight.data[o * in_f + i]
            if bias is not None:
                acc += bias.data[o]
            out.append(acc)
    return FTensor(x.shape[:-1] + (out_f,), tuple(out))


def ref_matmul(a: FTensor, b: FTensor) -> FTensor:
    return ref_linear(a, ref_transpose(b), None)


def ref_transpose(a: FTensor) -> FTensor:
    m, n = a.shape
    return FTensor((n, m), tuple(a.data[i * n + j] for j in range(n) for i in range(m)))


def ref_layer_norm(x: FTensor, gamma: Sequence[float], beta: Sequence[float],
                   eps: float) -> FTensor:
    n = x.shape[-1]
    out = []
    for r in range(x.size // n):
        row = x.data[r * n:(r + 1) * n]
        mean = sum(row) / n
        var = sum((v - mean) ** 2 for v in row) / n
        inv_std = 1.0 / math.sqrt(var + eps)
        for i, v in enumerate(row):
            out.append((v - mean) * inv_std * gamma[i] + beta[i])
    return FTensor(x.shape, tuple(out))


def ref_softmax_exact(xs: Sequence[float]) -> list[float]:
    exps = [math.exp(v) for v in xs]
    total = sum(exps)
    return [e / total for e in exps]


def ref_softmax_series(xs: Sequence[float]) -> list[float]:
    nums = [1.0 + v + v * v / 2.0 for v in xs]
    total = sum(nums)
    return [n / total for n in nums]


def ref_gelu_exact(x: float) -> float:
    inner = math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3)
    return 0.5 * x * (1.0 + math.tanh(inner))


def ref_gelu_series(x: float, variant: str = GELU_SERIES_LINEAR) -> float:
    a = GELU_C1 * x + GELU_C3 * x ** 3
    if variant == GELU_SERIES_LINEAR:
        gate = 1.0 + a
    elif variant == GELU_SERIES_CUBED:
        gate = 1.0 + a + a ** 3
    elif variant == GELU_SERIES_CUBED_CORRECTED:
        gate = 1.0 + a - a ** 3 / 3.0
    else:
        raise ValueError(f"unknown gelu variant {variant!r}")
    return 0.5 * x * gate


def ref_newton_inv_sqrt(x: float, y0: float, iters: int) -> tuple[float, list[float]]:
    """Float shadow of the quantized iteration: ``y <- (3y - x*y^3) / 2``."""
    y = y0
    seq = [y0]
    for _ in range(iters):
        y = (3.0 * y - x * y ** 3) / 2.0
        seq.append(y)
    return y, seq


def _softmax_rows(x: FTensor) -> FTensor:
    """:func:`ref_softmax_series` on each trailing-axis row."""
    n = x.shape[-1]
    return FTensor(x.shape, tuple(e for r in range(math.prod(x.shape[:-1]))
                                  for e in ref_softmax_series(x.data[r * n:(r + 1) * n])))


def _scaled_by_inv_root(t: FTensor, d_m: int) -> FTensor:
    inv_root = 1.0 / math.sqrt(d_m)
    return FTensor(t.shape, tuple(e * inv_root for e in t.data))


def ref_attention(q: FTensor, k: FTensor, v: FTensor, d_m: int) -> FTensor:
    """Attention with the same truncated-series softmax the quantized
    operator uses, so differences reflect rounding alone."""
    scores = _scaled_by_inv_root(ref_matmul(q, ref_transpose(k)), d_m)
    return ref_matmul(_softmax_rows(scores), v)


def ref_factorized_attention(q: FTensor, k: FTensor, v: FTensor, d_m: int) -> FTensor:
    context = ref_matmul(_softmax_rows(ref_transpose(k)), v)
    return ref_matmul(_scaled_by_inv_root(q, d_m), context)


def error_sums(quantized: QTensor, reference: FTensor, sq: float = 0.0,
               worst: float = 0.0) -> tuple[float, float]:
    """``sq`` plus the squared error of each dequantized element against the
    reference, added left to right, and the larger of ``worst`` and the
    largest absolute error; the one place quantized outputs are scored.  A
    NaN error never replaces ``worst``, as in ``max(worst, abs(diff))``."""
    if quantized.shape != reference.shape:
        raise ShapeError(f"shape mismatch: {quantized.shape} vs {reference.shape}")
    for q, r in zip(quantized.data, reference.data):
        diff = math.ldexp(q[0], -q[1]) - r
        sq += diff * diff
        if abs(diff) > worst:
            worst = abs(diff)
    return sq, worst


def mse(quantized: QTensor, reference: FTensor) -> float:
    """Mean squared error between dequantized outputs and the reference,
    averaged over every element; an empty tensor has no mean."""
    sq = error_sums(quantized, reference)[0]
    if not reference.size:
        raise ShapeError(f"mean squared error of an empty tensor, shape {reference.shape}")
    return sq / reference.size


def max_abs_error(quantized: QTensor, reference: FTensor) -> float:
    return error_sums(quantized, reference)[1]
