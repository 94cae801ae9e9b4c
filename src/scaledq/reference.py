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
from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import GELU_SERIES_CUBED, GELU_SERIES_CUBED_CORRECTED, GELU_SERIES_LINEAR, dequantize
from .ops import ConvSpec, QTensor, ShapeError

# Dyadic series constants shared with the quantized gelu: 102/2^7 and 18/2^9.
GELU_C1 = 102.0 / 128.0
GELU_C3 = 18.0 / 512.0


@dataclass(frozen=True)
class FTensor:
    """Shaped, row-major array of floats."""

    shape: tuple[int, ...]
    data: tuple[float, ...]

    def __post_init__(self):
        n = math.prod(self.shape)
        if n != len(self.data):
            raise ShapeError(f"shape {self.shape} needs {n} elements, got {len(self.data)}")

    @property
    def size(self) -> int:
        return len(self.data)


def dequantize_tensor(q: QTensor) -> FTensor:
    return FTensor(q.shape, tuple(dequantize(e) for e in q.data))


def ref_conv2d(x: FTensor, weight: FTensor, bias: FTensor | None,
               spec: ConvSpec) -> FTensor:
    batch, in_ch, height, width = x.shape
    out_ch, k = spec.out_channels, spec.kernel
    w_ch = 1 if spec.depthwise else in_ch
    h_out = (height + 2 * spec.padding - k) // spec.stride + 1
    w_out = (width + 2 * spec.padding - k) // spec.stride + 1
    multiplier = out_ch // in_ch if spec.depthwise else 0
    out = []
    for b in range(batch):
        for o in range(out_ch):
            channels = [o // multiplier] if spec.depthwise else list(range(in_ch))
            for oh in range(h_out):
                for ow in range(w_out):
                    acc = 0.0
                    for ci, i in enumerate(channels):
                        for ky in range(k):
                            ih = oh * spec.stride - spec.padding + ky
                            if not 0 <= ih < height:
                                continue
                            for kx in range(k):
                                iw = ow * spec.stride - spec.padding + kx
                                if not 0 <= iw < width:
                                    continue
                                acc += (x.data[((b * in_ch + i) * height + ih) * width + iw]
                                        * weight.data[((o * w_ch + ci) * k + ky) * k + kx])
                    if bias is not None:
                        acc += bias.data[o]
                    out.append(acc)
    return FTensor((batch, out_ch, h_out, w_out), tuple(out))


def ref_linear(x: FTensor, weight: FTensor, bias: FTensor | None) -> FTensor:
    out_f, in_f = weight.shape
    rows = x.size // in_f
    out = []
    for r in range(rows):
        for o in range(out_f):
            acc = 0.0
            for i in range(in_f):
                acc += x.data[r * in_f + i] * weight.data[o * in_f + i]
            if bias is not None:
                acc += bias.data[o]
            out.append(acc)
    return FTensor(x.shape[:-1] + (out_f,), tuple(out))


def ref_matmul(a: FTensor, b: FTensor) -> FTensor:
    m, k = a.shape
    _, n = b.shape
    out = []
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a.data[i * k + t] * b.data[t * n + j]
            out.append(acc)
    return FTensor((m, n), tuple(out))


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


def ref_relu(x: float) -> float:
    return x if x > 0.0 else 0.0


def ref_newton_inv_sqrt(x: float, y0: float, iters: int) -> tuple[float, list[float]]:
    """Float shadow of the quantized iteration: ``y <- (3y - x*y^3) / 2``."""
    y = y0
    seq = [y0]
    for _ in range(iters):
        y = (3.0 * y - x * y ** 3) / 2.0
        seq.append(y)
    return y, seq


def ref_attention(q: FTensor, k: FTensor, v: FTensor, d_m: int) -> FTensor:
    """Attention with the same truncated-series softmax the quantized
    operator uses, so differences reflect rounding alone."""
    tokens, feats = q.shape
    inv_root = 1.0 / math.sqrt(d_m)
    scores = ref_matmul(q, ref_transpose(k))
    weights = []
    for i in range(tokens):
        row = [scores.data[i * tokens + j] * inv_root for j in range(tokens)]
        weights.extend(ref_softmax_series(row))
    return ref_matmul(FTensor((tokens, tokens), tuple(weights)), v)


def ref_factorized_attention(q: FTensor, k: FTensor, v: FTensor, d_m: int) -> FTensor:
    tokens, feats = q.shape
    inv_root = 1.0 / math.sqrt(d_m)
    cols = []
    for j in range(feats):
        cols.append(ref_softmax_series([k.data[t * feats + j] for t in range(tokens)]))
    sk_t = FTensor((feats, tokens), tuple(e for col in cols for e in col))
    context = ref_matmul(sk_t, v)
    q_scaled = FTensor(q.shape, tuple(e * inv_root for e in q.data))
    return ref_matmul(q_scaled, context)


def errors(quantized: QTensor, reference: FTensor) -> Iterator[float]:
    """Signed error of each dequantized element against the reference, in
    row-major order; the one place quantized outputs are scored."""
    if quantized.shape != reference.shape:
        raise ShapeError(f"shape mismatch: {quantized.shape} vs {reference.shape}")
    return (dequantize(qe) - re for qe, re in zip(quantized.data, reference.data))


def mse(quantized: QTensor, reference: FTensor) -> float:
    """Mean squared error between dequantized outputs and the reference,
    averaged over every element."""
    total = 0.0
    for diff in errors(quantized, reference):
        total += diff * diff
    return total / reference.size


def max_abs_error(quantized: QTensor, reference: FTensor) -> float:
    worst = 0.0
    for diff in errors(quantized, reference):
        worst = max(worst, abs(diff))
    return worst
