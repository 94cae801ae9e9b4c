"""Quantized Newton iteration for the inverse square root.

The update ``y <- (3y - x*y^3) / 2`` is evaluated entirely on stored
magnitudes: the cubic term is aligned to the iterate's scale with a single
truncating shift, the subtraction happens on integers, and the halving rounds
half-up.  The very first update instead folds its halving into the scale
(``scale += 1``) so a tiny seed magnitude such as 1 is not wiped out before
the iteration can grow.  After the first step the stored scale only moves
when a magnitude outgrows P bits.  Once a halved update equals the iterate's
magnitude, or the iterate is zero, every later step would return the same
value, so no further step is computed.  The trace holds only the iterates
computed; its ``entries`` repeat the last one for the remaining steps when
they are read.

Every Newton setting lives here: the seed rule :func:`exponent_seed`, the
step budget ``NEWTON_ITERS`` that the library's callers run, and the cap
``MAX_NEWTON_ITERS`` on any caller's count.
"""

from __future__ import annotations

from collections import namedtuple

from .core import (
    DomainError,
    SaturationCounter,
    ScaleConfig,
    ScaledInt,
    ZERO,
    handle_overflow,
)

# Steps ``layer_norm``, both attentions and ``scaledq invsqrt`` run.  From
# :func:`exponent_seed` the iterate is within 2**-5 of ``1/sqrt(x)`` after
# 3 steps below 2**20.  Within 20 steps 7968 of the 8160 positive inputs of
# the default format stop at a fixed point; the other 192 end in a 2-cycle
# and return the cycle's value for the budget's parity, so an odd budget
# can change ``layer_norm`` outputs.
NEWTON_ITERS = 20
# Most steps any caller may ask for.  The iterate grows at most 1.5x per
# step, and 1.5**4096 is far past the widest format's span of 2**1534, so
# more steps only cost time and memory.
MAX_NEWTON_ITERS = 1 << 12


class NewtonTrace(namedtuple("NewtonTrace", "input iters values")):
    """Record of one run: its ``input``, its step budget ``iters`` and
    ``values``, the iterates the loop computed, seed first.  A run that stops
    at a fixed point holds fewer than ``iters + 1`` values, since every later
    step would return the last one; :attr:`entries` fills those in when read,
    so a run that nobody reads never builds them."""

    __slots__ = ()

    def __new__(cls, input: ScaledInt, iters: int, values: tuple[ScaledInt, ...]):
        if not 0 < len(values) <= iters + 1:
            raise ValueError("trace must hold 1 to iters + 1 values")
        return tuple.__new__(cls, (input, iters, values))

    @property
    def entries(self) -> tuple[tuple[int, ScaledInt], ...]:
        """``entries[j] == (j, Y_j)`` for every step ``j`` from 0 to
        ``iters``, with ``entries[0]`` holding the seed."""
        values = self.values
        return tuple(enumerate(values + (values[-1],) * (self.iters + 1 - len(values))))


def exponent_seed(x: ScaledInt, cfg: ScaleConfig) -> ScaledInt:
    """Seed ``2**-ceil(e/2)`` for ``x`` in ``[2**e, 2**(e+1))``, held at full
    width: magnitude ``2**(P-1)`` at scale ``ceil(e/2) + P - 1``, through
    :func:`handle_overflow`.

    ``x * y0**2`` lies in ``[1/2, 2)``, inside the convergence bound
    ``y0 < sqrt(3/x)``, and the iterate starts with P significant bits, so
    the scale the first step gives it has room for the result (I-BERT's
    integer square-root seed, Kim et al., ICML 2021).  On every positive
    input of the default format the iterate is never zero, and below
    ``2**20`` it is within 2**-5 (relative) of ``1/sqrt(x)`` after at most
    3 steps.  Where ``2**-ceil(e/2)`` is finer than the scale ceiling, the
    seed is the finest step, ``(1, scale_max)``.
    """
    m, s = x
    e = m.bit_length() - 1 - s
    return handle_overflow(1 << (cfg.p_bits - 1),
                           min(-(-e // 2), cfg.scale_max) + cfg.p_bits - 1, cfg)


def newton_inv_sqrt(
    x: ScaledInt,
    y0: ScaledInt,
    iters: int,
    cfg: ScaleConfig,
    sat: SaturationCounter | None = None,
) -> tuple[ScaledInt, NewtonTrace]:
    """Iterate toward ``1/sqrt(x)`` from seed ``y0``.

    Requires positive ``x`` and ``y0``; convergence additionally needs
    ``y0 < sqrt(3/x)``, which :func:`exponent_seed` satisfies wherever it
    is not the finest step.  A step whose update is not positive (the bound
    was violated) pins the iterate to zero without any signal.  ``iters`` is
    at most ``MAX_NEWTON_ITERS``.  Returns the final iterate and the trace of
    the iterates computed, whose ``entries`` give all ``iters + 1`` steps.
    """
    xm, xe = x
    if xm <= 0:
        raise DomainError("inverse square root needs a positive input")
    if y0[0] <= 0:
        raise DomainError("inverse square root needs a positive seed")
    if iters < 0:
        raise DomainError(f"iteration count must be non-negative, got {iters}")
    if iters > MAX_NEWTON_ITERS:
        raise DomainError(f"iteration count must be at most {MAX_NEWTON_ITERS}, got {iters}")

    y = y0
    ys = [y0]
    for j in range(iters):
        mag, scale = y
        shift = 2 * scale + xe
        wide = xm * mag * mag * mag
        cubic = wide >> shift if shift >= 0 else wide << -shift
        d = 3 * mag - cubic
        if d <= 0:
            # Seed violated the convergence bound; pin at zero rather than
            # oscillate with a negative iterate.
            y = ZERO
        else:
            if j == 0:
                scale += 1
            else:
                d = (d + 1) >> 1
                if d == mag:
                    break
            y = handle_overflow(d, scale, cfg, sat)
        ys.append(y)
        if not y[0]:
            break
    # An early stop leaves y at a fixed point: in format with a halved update
    # equal to its magnitude, or zero, whose update pins it at zero.  Every
    # later step returns y unchanged and cannot saturate, so the trace's
    # entries repeat y for the steps not computed.
    return y, NewtonTrace(x, iters, tuple(ys))
