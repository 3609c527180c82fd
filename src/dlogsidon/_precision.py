"""Guarded high-precision comparisons for block edges and range bounds.

Integer parts are exact; every compared value is carried with PRECISION
bits past its binary point. Any comparison that falls within 2^-64 of a
tie raises PrecisionAmbiguity instead of guessing. The guard is absolute,
so no working precision could decide more than this one does.
"""

from __future__ import annotations

import mpmath

from .errors import PrecisionAmbiguity

PRECISION = 192
GUARD_BITS = 64
_GUARD = mpmath.mpf(2) ** -GUARD_BITS  # a power of two, exact at any precision


def _bits(x) -> int:
    """Working bits that keep PRECISION of them past the binary point of x."""
    return PRECISION + max(mpmath.mag(x), 0)


def cmp_log2(n: int, e) -> int:
    """Sign of log2(n) - e for a positive integer n, guard-banded.

    Returns -1 or +1; a difference smaller than 2^-64 raises
    PrecisionAmbiguity.
    """
    if n < 1:
        raise ValueError(f"need a positive integer, got {n}")
    with mpmath.workprec(_bits(e)):
        diff = mpmath.log(n, 2) - e
        if abs(diff) < _GUARD:
            raise PrecisionAmbiguity(f"log2({n}) within 2^-{GUARD_BITS} of exponent {e}")
        return -1 if diff < 0 else 1


def cmp_int(n: int, x) -> int:
    """Sign of n - x for an exact integer n against a high-precision value."""
    with mpmath.workprec(_bits(x)):
        diff = mpmath.mpf(n) - x
        if abs(diff) < _GUARD:
            raise PrecisionAmbiguity(f"{n} within 2^-{GUARD_BITS} of {x}")
        return -1 if diff < 0 else 1


def pow2_floor(e) -> int:
    """floor(2^e): the largest integer n >= 1 with n <= 2^e, or 0 when e < 0.

    Exact at any size of 2^e, or the call raises PrecisionAmbiguity; see
    pow2_ratio_floor.
    """
    return pow2_ratio_floor(e, 1)


def int_floor(e) -> int:
    """Largest integer n with n <= e, guard-banded the same way as pow2_floor."""
    n = int(e)
    while cmp_int(n + 1, e) <= 0:
        n += 1
    while cmp_int(n, e) > 0:
        n -= 1
    return n


def pow2_ratio_floor(e, divisor: int) -> int:
    """floor(2^e / divisor) for a positive integer divisor.

    2^e is evaluated with PRECISION bits past its integer part, so the guard
    of the integer comparisons bounds |n - 2^e / divisor| itself: the result
    is exact however large 2^e is, or the call raises PrecisionAmbiguity.
    """
    if divisor < 1:
        raise ValueError(f"divisor must be positive, got {divisor}")
    with mpmath.workprec(PRECISION + max(int(e) + 1, 0)):
        x = mpmath.mpf(2) ** e / divisor
    # x > 0, so below 1 the floor is 0 with no comparison against 0.
    return 0 if cmp_int(1, x) > 0 else int_floor(x)
