"""Guarded high-precision comparisons for block edges and range bounds.

Integer parts are exact; the fractional side of every exponent is carried
with at least 96 bits (default 192 total). Any comparison that falls within
2^-64 of a tie raises PrecisionAmbiguity instead of guessing.
"""

from __future__ import annotations

import mpmath

from .errors import PrecisionAmbiguity

DEFAULT_PRECISION = 192
MIN_PRECISION = 96
GUARD_BITS = 64


def check_precision(prec: int) -> int:
    if prec < MIN_PRECISION:
        raise ValueError(f"precision {prec} below the minimum of {MIN_PRECISION} bits")
    return prec


def _guard():
    return mpmath.mpf(2) ** (-GUARD_BITS)


def cmp_log2(n: int, e, prec: int) -> int:
    """Sign of log2(n) - e for a positive integer n, guard-banded.

    Returns -1 or +1; a difference smaller than 2^-64 raises
    PrecisionAmbiguity.
    """
    if n < 1:
        raise ValueError(f"need a positive integer, got {n}")
    with mpmath.workprec(prec):
        diff = mpmath.log(n, 2) - e
        if abs(diff) < _guard():
            raise PrecisionAmbiguity(f"log2({n}) within 2^-{GUARD_BITS} of exponent {e}")
        return -1 if diff < 0 else 1


def cmp_int(n: int, x, prec: int) -> int:
    """Sign of n - x for an exact integer n against a high-precision value."""
    with mpmath.workprec(prec):
        diff = mpmath.mpf(n) - x
        if abs(diff) < _guard():
            raise PrecisionAmbiguity(f"{n} within 2^-{GUARD_BITS} of {x}")
        return -1 if diff < 0 else 1


def pow2_floor(e, prec: int) -> int:
    """floor(2^e): the largest integer n >= 1 with n <= 2^e, or 0 when e < 0.

    Exact at any size of 2^e, or the call raises PrecisionAmbiguity; see
    pow2_ratio_floor.
    """
    return pow2_ratio_floor(e, 1, prec)


def int_floor(e, prec: int) -> int:
    """Largest integer n with n <= e, guard-banded the same way as pow2_floor."""
    with mpmath.workprec(prec):
        n = int(mpmath.floor(e))
        while cmp_int(n + 1, e, prec) <= 0:
            n += 1
        while cmp_int(n, e, prec) > 0:
            n -= 1
        return n


def pow2_ratio_floor(e, divisor: int, prec: int) -> int:
    """floor(2^e / divisor) for a positive integer divisor.

    2^e is evaluated with prec bits past its integer part, so the guard of
    the integer comparisons bounds |n - 2^e / divisor| itself: the result is
    exact however large 2^e is, or the call raises PrecisionAmbiguity.
    """
    if divisor < 1:
        raise ValueError(f"divisor must be positive, got {divisor}")
    with mpmath.workprec(prec):
        bits = prec + max(int(mpmath.ceil(e)), 0)
    with mpmath.workprec(bits):
        x = mpmath.mpf(2) ** e / divisor
        # x > 0, so below 1 the floor is 0 with no comparison against 0.
        return 0 if cmp_int(1, x, bits) > 0 else int_floor(x, bits)
