"""Arithmetic substrate: primality, interval sieves, prime counting,
primitive roots, and discrete logarithms.

Everything here is exact integer arithmetic. Primality is deterministic
Miller-Rabin (the fixed witness set is proven complete far beyond 64 bits),
prime enumeration is a segmented sieve, and prime counting is the
Lucy_Hedgehog recursion in O(n^(3/4)) steps. A single discrete log takes
O(sqrt q) group operations with a cached baby-step table per (generator,
modulus); many logs to one modulus are read off a full log table built in
q - 1 steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import isqrt

from .errors import DLogUndefined, InvalidModulus

# Proven deterministic for n < 3.3 * 10^24 (Sorenson-Webster).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SEGMENT = 1 << 22


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_upto(n: int) -> list[int]:
    """All primes <= n by a plain sieve of Eratosthenes."""
    if n < 2:
        return []
    flags = bytearray(b"\x01") * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
    return [i for i in range(2, n + 1) if flags[i]]


@dataclass(frozen=True)
class PrimeInterval:
    """Half-open dyadic-style interval (lo, hi]: lo exclusive, hi inclusive."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo < 1 or self.hi <= self.lo:
            raise ValueError(f"need 1 <= lo < hi, got ({self.lo}, {self.hi}]")

    def __contains__(self, n: int) -> bool:
        return self.lo < n <= self.hi


def _sieve_segment(lo: int, hi: int, base: list[int]) -> bytearray:
    """Flags for the integers lo..hi inclusive, using base primes."""
    flags = bytearray(b"\x01") * (hi - lo + 1)
    for p in base:
        if p * p > hi:
            break
        start = max(p * p, (lo + p - 1) // p * p)
        flags[start - lo :: p] = bytearray(len(range(start, hi + 1, p)))
    if lo == 1:
        flags[0] = 0
    return flags


def primes_in_interval(iv: PrimeInterval) -> list[int]:
    """Primes p with iv.lo < p <= iv.hi, ascending, segmented sieve."""
    lo, hi = iv.lo + 1, iv.hi
    base = primes_upto(isqrt(hi))
    out = []
    for seg_lo in range(lo, hi + 1, _SEGMENT):
        seg_hi = min(seg_lo + _SEGMENT - 1, hi)
        flags = _sieve_segment(seg_lo, seg_hi, base)
        out.extend(compress(range(seg_lo, seg_hi + 1), flags))
    # Small primes eaten by their own square-free marking: the segment sieve
    # never kills a base prime p >= seg_lo because marking starts at p*p.
    return out


@lru_cache(maxsize=64)
def prime_count(n: int) -> int:
    """pi(n): number of primes <= n, by the Lucy_Hedgehog recursion.

    S(v) counts the integers in [2, v] that survive sieving by the primes
    below p; only the values v = n // i ever occur. Sieving by the prime p
    removes from S(v), for v >= p^2, the survivors whose least prime factor
    is p: S(v // p) - S(p - 1) of them. Once p passes sqrt(n), S(n) = pi(n).
    small[v] holds S(v) for v <= r = isqrt(n), large[i] holds S(n // i).
    """
    if n < 2:
        return 0
    r = isqrt(n)
    small = [v - 1 for v in range(r + 1)]
    large = [0] + [n // i - 1 for i in range(1, r + 1)]
    for p in range(2, r + 1):
        if small[p] == small[p - 1]:
            continue  # p is composite
        below = small[p - 1]
        p2 = p * p
        # Every right-hand side reads values from before this p's update.
        top = min(r, n // p2)
        mid = min(top, r // p)
        large[1 : top + 1] = (
            [large[i] - large[i * p] + below for i in range(1, mid + 1)]
            + [large[i] - small[n // (i * p)] + below for i in range(mid + 1, top + 1)])
        small[p2 : r + 1] = [small[v] - small[v // p] + below for v in range(p2, r + 1)]
    return large[1]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division. Intended for n up to ~2^40."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_primitive_root(g: int, q: int) -> bool:
    """Whether g generates the full multiplicative group mod prime q."""
    if not is_prime(q):
        raise InvalidModulus(f"{q} is not prime")
    if q == 2:
        return g % 2 == 1
    g %= q
    if g == 0:
        return False
    order = q - 1
    return all(pow(g, order // r, q) != 1 for r in factorize(order))


def smallest_primitive_root(q: int) -> int:
    """Least g >= 2 of multiplicative order q-1 modulo the prime q.

    For q = 2 the group is trivial and 1 is returned.
    """
    if not is_prime(q):
        raise InvalidModulus(f"{q} is not prime")
    if q == 2:
        return 1
    order = q - 1
    radicals = list(factorize(order))
    g = 2
    while True:
        if all(pow(g, order // r, q) != 1 for r in radicals):
            return g
        g += 1


@lru_cache(maxsize=128)
def _bsgs_table(g: int, q: int):
    """Baby-step table {g^j: j} for j < m = ceil(sqrt(q-1)), plus g^-m."""
    m = isqrt(q - 2) + 1 if q > 2 else 1
    baby = {}
    x = 1
    for j in range(m):
        baby.setdefault(x, j)
        x = x * g % q
    return m, baby, pow(x, -1, q)


def discrete_log(g: int, a: int, q: int) -> int:
    """x in [0, q-2] with g^x = a (mod q), baby-step giant-step.

    g must be a primitive root mod the prime q; a = 0 has no logarithm and
    raises DLogUndefined.
    """
    a %= q
    if a == 0:
        raise DLogUndefined(f"0 has no discrete log mod {q}")
    m, baby, giant = _bsgs_table(g, q)
    y = a
    for i in range(m):
        j = baby.get(y)
        if j is not None:
            return (i * m + j) % (q - 1) if q > 2 else 0
        y = y * giant % q
    raise ValueError(f"no discrete log of {a} base {g} mod {q}; is g a primitive root?")


def log_table(g: int, q: int) -> list[int]:
    """Full discrete-log table t with t[g^x mod q] = x for x in [0, q-2].

    Built in q - 1 multiplications; t[0] = -1, since 0 has no logarithm. g
    must be a primitive root mod the prime q: a table that does not reach
    all q - 1 nonzero residues raises the same ValueError as discrete_log.
    """
    table = [-1] * q
    x = 1
    for e in range(q - 1):
        table[x] = e
        x = x * g % q
    # g^(q-1) = 1 for any g prime to q, and table[1] keeps the largest
    # exponent below q - 1 that maps to 1: 0 exactly when g has order q - 1.
    if x != 1 or table[1] != 0:
        raise ValueError(f"powers of {g} mod {q} miss residues; is g a primitive root?")
    return table


def lift_to_window(d: int, q: int, h: int = 2) -> int:
    """Representative of d mod (q-1) inside [(h-1)q + 1, hq - 1].

    The window holds exactly q-1 consecutive integers, so the lift exists
    and is unique. h >= 2 keeps digit sums of h elements carry-free.
    """
    if h < 2:
        raise ValueError(f"need h >= 2, got {h}")
    if not 0 <= d <= q - 2:
        raise ValueError(f"digit {d} outside [0, {q - 2}]")
    lo = (h - 1) * q + 1
    return lo + (d - lo) % (q - 1)
