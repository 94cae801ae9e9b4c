"""The format's arithmetic on plain int pairs, stated once for the tests.

One rule, T (:func:`cut`), truncates an exact rational toward zero to P bits
and clamps it to +/-``max_value``, recording a saturation on ``sat``.  ``fit``,
``quotient`` and ``dot`` are T and the primitives compose them:
``handle_overflow`` is ``fit``, ``shift_scale(q, d)`` is ``fit(q[0], q[1] + d)``
and ``scale_sub(a, b)`` is ``scale_add(a, -b)``.  Each fused stage is T of its
exact value too (:func:`exact`): a dot plus its bias, ``layer_norm``'s
variance and affine tail, and softmax's numerator.  ``layer_norm``'s
deviations are exact, as its mean is, and never cut.  ``quantize`` rounds
instead, and the Newton step (:func:`newton`) has a rule of its own.

Every operator is composed from these rules here too: ``conv2d``, ``linear``
and ``matmul`` are one ``dot`` per output; ``layer_norm`` is ``variance``, the
Newton rule from ``exponent_seed`` and ``affine``; ``softmax_tensor`` is each
row's numerators, their ``sum_aligned`` and one ``scale_div`` per output; and
``gelu`` is its series, one ``scale_mul``, ``scale_add``, ``sum_aligned``,
``scale_div`` or ``fit`` per step.  From ``scaledq`` this file takes only the
exception types, ``QTensor`` and ``NEWTON_ITERS``, so no rule is borrowed
from the code it checks.
"""

import math

from scaledq.core import DivisionByZero, DomainError, RangeError
from scaledq.newton import NEWTON_ITERS
from scaledq.ops import QTensor


def cut(num, den, grid, cfg, sat):
    """T: ``num / den`` cut toward zero to P bits at scale at most ``grid``.
    A floor of a floor is the floor, so ``m >> k`` is the value at grid - k."""
    m = (abs(num) << grid) // abs(den) if grid >= 0 else abs(num) // (abs(den) << -grid)
    k = max(m.bit_length() - cfg.p_bits, 0)
    m, grid = m >> k, grid - k
    if grid < cfg.scale_min:
        m, grid = cfg.max_magnitude, cfg.scale_min
        sat.record()
    return ((m if (num < 0) == (den < 0) else -m), grid) if m else (0, 0)


def fit(m, s, cfg, sat):
    """T of ``m / 2**s``, no finer than ``s``, on the format's scales."""
    grid = min(max(s, cfg.scale_min), cfg.scale_max)
    return cut(m, 1 << s, grid, cfg, sat) if s >= 0 else cut(m << -s, 1, grid, cfg, sat)


def quotient(a, b, s, cfg, sat):
    """T of ``a / b / 2**s`` at the finest scale that fits in P bits."""
    if not b:
        raise DivisionByZero("scaled division by zero")
    a, b = (a << -s, b) if s < 0 else (a, b << s)
    return cut(a, b, cfg.scale_max, cfg, sat)


def sum_aligned(terms, cfg, sat):
    """The exact sum of the nonzero terms, fitted at their largest scale."""
    top = max([s for m, s in terms if m], default=0)
    return fit(sum([m << (top - s) for m, s in terms if m]), top, cfg, sat)


def scale_mul(a, b, cfg, sat):
    return fit(a[0] * b[0], a[1] + b[1], cfg, sat)


def scale_add(a, b, cfg, sat):
    return sum_aligned((a, b), cfg, sat)


def scale_div(a, b, cfg, sat):
    return quotient(a[0], b[0], a[1] - b[1], cfg, sat)


def exact(terms, den, cfg, sat):
    """T of the exact sum of the pairs ``terms`` over the int ``den``, at the
    finest scale up to ``scale_max``: one cut, so the result's stored form
    depends only on its value, as ``quotient``'s does."""
    top = max([s for _, s in terms])
    num = sum([m << (top - s) for m, s in terms])
    return cut(num << max(-top, 0), den << max(top, 0), cfg.scale_max, cfg, sat)


def dot(xs, ws, cfg, sat, bias=(0, 0)):
    """T of the exact ``sum(x * w) + bias``."""
    return exact([(x[0] * w[0], x[1] + w[1]) for x, w in zip(xs, ws)] + [bias], 1, cfg, sat)


def variance(ds, eps, cfg, sat):
    """``layer_norm``'s variance: T of the exact ``(sum(d**2) + n*eps) / n``
    over the ``n`` deviations ``ds``, with the pair ``eps`` added before the
    one cut."""
    n = len(ds)
    return exact([(m * m, 2 * s) for m, s in ds] + [(n * eps[0], eps[1])], n, cfg, sat)


def affine(d, inv, g, b, cfg, sat):
    """``layer_norm``'s tail: T of the exact ``d * inv * g + b``."""
    return exact([(d[0] * inv[0] * g[0], d[1] + inv[1] + g[1]), b], 1, cfg, sat)


def softmax_numerator(x, cfg, sat):
    """T of the exact ``1 + x + x**2/2``.  That is ``((x + 1)**2 + 1) / 2``,
    at least 1/2, so its cut is positive on every input."""
    m, s = x
    return exact([(1, 0), x, (m * m, 2 * s + 1)], 1, cfg, sat)


def quantize(value, cfg):
    """``value`` rounded half to even at the largest scale up to ``scale_max``
    whose magnitude fits; ``RangeError`` past ``max_value`` or not finite."""
    if not math.isfinite(value):
        raise RangeError(f"cannot quantize non-finite value {value!r}")
    num, den = value.as_integer_ratio()  # den is a power of two
    if abs(num) > cfg.max_magnitude * den << -cfg.scale_min:
        raise RangeError(f"magnitude {abs(value)!r} exceeds representable range")
    # no scale above P - 1 - floor(log2 |value|) fits, so the search starts there
    for s in range(min(cfg.scale_max, cfg.p_bits - 1 - abs(num).bit_length()
                       + den.bit_length()), cfg.scale_min - 1, -1):
        d = den << max(-s, 0)
        m, r = divmod(abs(num) << max(s, 0), d)
        m += 2 * r > d or (2 * r == d and m & 1)
        if m <= cfg.max_magnitude:
            return ((m if num > 0 else -m), s) if m else (0, 0)


def exponent_seed(x, cfg):
    """``2**-c`` for ``x`` in ``[2**e, 2**(e+1))`` and ``c = ceil(e/2)``, no
    finer than the scale ceiling, as ``fit`` holds ``2**(P-1)`` at scale
    ``c + P - 1``."""
    e = abs(x[0]).bit_length() - 1 - x[1]
    return fit(1 << (cfg.p_bits - 1), min((e + 1) // 2, cfg.scale_max) + cfg.p_bits - 1,
               cfg, None)


def newton(x, y, iters, cfg, sat):
    """The iterates of ``y <- y * (3 - x*y**2) / 2`` from seed ``y``, every
    step computed.  On the magnitudes, ``d = 3*m - x*m**3`` with the cubic
    cut toward zero to the iterate's scale by one shift; ``d <= 0`` pins the
    iterate at zero, where it stays.  The first step halves by adding one to
    the scale, ``fit(d, s + 1)``; later ones round half-up,
    ``fit((d + 1) >> 1, s)``."""
    (xm, xs), ys = x, [y]
    for j in range(iters):
        m, s = y
        if m:
            cubic, k = xm * m ** 3, 2 * s + xs
            d = 3 * m - (cubic >> k if k >= 0 else cubic << -k)
            if d <= 0:
                y = (0, 0)
            else:
                y = fit(d, s + 1, cfg, sat) if j == 0 else fit((d + 1) >> 1, s, cfg, sat)
        ys.append(y)
    return ys


# --- the operators, composed from the rules above --------------------------
# Each takes and returns ``QTensor``s (or a pair, for ``gelu``) and must match
# the library's operator bit for bit, saturations included.

def conv2d(x, w, bias, conv, cfg, sat):
    """``conv2d`` composed from the spec: each output is one ``dot`` over the
    in-range taps of the channels it reads, in channel, ky, kx order, plus
    the bias."""
    batch, in_ch, height, width = x.shape
    out_ch, k, s, p = conv.out_channels, conv.kernel, conv.stride, conv.padding
    w_ch = 1 if conv.depthwise else in_ch
    h_out, w_out = (height + 2 * p - k) // s + 1, (width + 2 * p - k) // s + 1
    out = []
    for b in range(batch):
        for o in range(out_ch):
            chans = [o // (out_ch // in_ch)] if conv.depthwise else range(in_ch)
            for oh in range(h_out):
                for ow in range(w_out):
                    xs, ws = [], []
                    for ci, i in enumerate(chans):
                        for ky in range(k):
                            for kx in range(k):
                                ih, iw = oh * s - p + ky, ow * s - p + kx
                                if 0 <= ih < height and 0 <= iw < width:
                                    xs.append(x.data[((b * in_ch + i) * height + ih) * width + iw])
                                    ws.append(w.data[((o * w_ch + ci) * k + ky) * k + kx])
                    out.append(dot(xs, ws, cfg, sat, (0, 0) if bias is None else bias.data[o]))
    return QTensor((batch, out_ch, h_out, w_out), tuple(out))


def linear(x, w, bias, cfg, sat):
    """``linear`` composed from the spec: each output is one ``dot`` of an
    input row with a weight row, plus the bias.  Rows are counted from the
    shape, so an empty trailing axis gives each output its bias alone."""
    out_f, in_f = w.shape
    out = []
    for r in range(math.prod(x.shape[:-1])):
        for o in range(out_f):
            out.append(dot(x.data[r * in_f:(r + 1) * in_f],
                           w.data[o * in_f:(o + 1) * in_f], cfg, sat,
                           (0, 0) if bias is None else bias.data[o]))
    return QTensor(x.shape[:-1] + (out_f,), tuple(out))


def matmul(a, b, cfg, sat):
    """``matmul`` composed from the spec: one ``dot`` per row and column."""
    (m, k), (_, n) = a.shape, b.shape
    return QTensor((m, n), tuple(
        dot(a.data[i * k:(i + 1) * k], b.data[j::n], cfg, sat)
        for i in range(m) for j in range(n)))


def layer_norm(x, params, cfg, sat):
    """``layer_norm`` composed from the spec.  Each deviation is exact, as
    the mean is: the integer ``n * (x_i - mean)`` on the row's largest scale
    ``top``, taken as the pair ``(n * a_i - A, grid)`` at the grid ``top``,
    or at the finest coarser one that keeps every deviation under
    ``2**room``, so their ``n`` squares sum below ``2**(P - 1 - scale_min)``.
    A row whose deviations are all zero is beta.  ``variance`` gives ``c**2``
    times the variance plus ``c**2 * eps``, with ``c = n * 2**(top - grid)``,
    in one cut; the Newton rule runs from the exponent seed, and ``affine``
    cuts each output once."""
    n = x.shape[-1]
    (em, es), out = params.eps, []
    room = (cfg.p_bits - 1 - cfg.scale_min - n.bit_length()) // 2
    for r in range(x.size // n):
        row = x.data[r * n:(r + 1) * n]
        top = max(s for _, s in row)
        total = sum(m << (top - s) for m, s in row)
        ints = [n * (m << (top - s)) - total for m, s in row]
        if not any(ints):
            out.extend(params.beta.data)
            continue
        grid = max(top, max(abs(v) for v in ints).bit_length() - room)
        devs = [(v, grid) for v in ints]
        var = variance(devs, (em * n * n, es + 2 * (grid - top)), cfg, sat)
        if var[0] <= 0:
            raise DomainError("inverse square root needs a positive input")
        inv = newton(var, exponent_seed(var, cfg), NEWTON_ITERS, cfg, sat)[-1]
        out.extend(affine(d, inv, g, b, cfg, sat)
                   for d, g, b in zip(devs, params.gamma.data, params.beta.data))
    return QTensor(x.shape, tuple(out))


def softmax_tensor(x, cfg, sat):
    """Softmax over the trailing axis: each numerator one cut, their sum
    one cut, and each output the numerator's quotient by it."""
    n = x.shape[-1]
    out = []
    for r in range(x.size // n):
        nums = [softmax_numerator(e, cfg, sat) for e in x.data[r * n:(r + 1) * n]]
        den = sum_aligned(nums, cfg, sat)
        out.extend(scale_div(num, den, cfg, sat) for num in nums)
    return QTensor(x.shape, tuple(out))


def gelu(x, cfg, sat, variant):
    """The series GELU ``x/2 * gate``, each step its own cut: ``A`` is
    ``102/2**7 * x + 18/2**9 * x**3``, and the gate is ``1 + A``
    (``series-linear``), ``1 + A + A**3`` (``series-cubed``) or
    ``1 + A - A**3/3`` (``series-cubed-corrected``); a cubed gate's three
    terms are one aligned sum, and halving is one ``fit`` a scale finer."""
    x3 = scale_mul(scale_mul(x, x, cfg, sat), x, cfg, sat)
    a = scale_add(scale_mul((102, 7), x, cfg, sat), scale_mul((18, 9), x3, cfg, sat), cfg, sat)
    if variant == "series-linear":
        gate = scale_add((1, 0), a, cfg, sat)
    else:
        a3 = scale_mul(scale_mul(a, a, cfg, sat), a, cfg, sat)
        if variant == "series-cubed-corrected":
            m, s = scale_div(a3, (3, 0), cfg, sat)
            a3 = (-m, s)
        gate = sum_aligned([(1, 0), a, a3], cfg, sat)
    m, s = scale_mul(x, gate, cfg, sat)
    return fit(m, s + 1, cfg, sat)
