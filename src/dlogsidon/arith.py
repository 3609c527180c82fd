"""Arithmetic substrate: primality, interval sieves, prime counting, and
the unit-group core shared by both rings.

Everything here is exact integer arithmetic. Primality is deterministic
Miller-Rabin (the fixed witness set is proven complete far beyond 64 bits),
prime enumeration is a segmented sieve, and prime counting is the
Lucy_Hedgehog recursion in O(n^(3/4)) steps. UnitGroupRing holds the
generator search, baby-step giant-step and full log tables, and the finite
Sidon set, once for Z and GF(2)[X]; a ring supplies only its arithmetic mod
q. PrimeField is the Z ring, and is_primitive_root, smallest_primitive_root,
discrete_log and log_table are its methods.
"""

from __future__ import annotations

import operator
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
    return flags


def primes_in_interval(iv: PrimeInterval) -> list[int]:
    """Primes p with iv.lo < p <= iv.hi, ascending, segmented sieve.

    The base primes up to sqrt(iv.hi) come from the same sieve, one level
    down; a base prime inside the interval survives its own marking, which
    starts at p^2.
    """
    lo, hi = iv.lo + 1, iv.hi
    base = primes_upto(isqrt(hi))
    out = []
    for seg_lo in range(lo, hi + 1, _SEGMENT):
        seg_hi = min(seg_lo + _SEGMENT - 1, hi)
        flags = _sieve_segment(seg_lo, seg_hi, base)
        out.extend(compress(range(seg_lo, seg_hi + 1), flags))
    return out


def primes_upto(n: int) -> list[int]:
    """All primes <= n: primes_in_interval over (1, n]."""
    return primes_in_interval(PrimeInterval(1, n)) if n >= 2 else []


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


class UnitGroupRing:
    """The cyclic unit group of the residue field R/q, written once for
    R = Z (PrimeField, the field F_q) and R = GF(2)[X] (gf2x.Gf2Ring,
    GF(2^n)). Residues are the ints 0..N(q) - 1.

    A subclass supplies check_modulus(q), which raises unless q is
    irreducible, reduce(a, q), the norm N(q) = |R/q|, mul(a, b, q) and
    pow(a, e, q) in R/q, and irreducibles_below(q), the irreducibles p
    with N(p)^2 < N(q).
    """

    def is_generator(self, g: int, q: int) -> bool:
        """Whether g generates the whole unit group of R/q."""
        self.check_modulus(q)
        g = self.reduce(g, q)
        order = self.norm(q) - 1
        return g != 0 and all(self.pow(g, order // r, q) != 1 for r in factorize(order))

    def generator(self, q: int) -> int:
        """The least residue g >= 1 of order N(q) - 1; 1 for the trivial
        unit group (q = 2 over Z, q = X over GF(2)[X])."""
        self.check_modulus(q)
        order = self.norm(q) - 1
        radicals = list(factorize(order))
        return next(g for g in range(1, order + 1)
                    if all(self.pow(g, order // r, q) != 1 for r in radicals))

    @lru_cache(maxsize=128)
    def _bsgs_table(self, g: int, q: int):
        """Baby steps {g^j: j} for j < m = 2 ceil(sqrt(N(q) - 1)), g^-m, and
        the group order.

        A table serves many logs (the blocks of a generation, a finite set),
        and a log takes (N(q) - 1) / (2m) giant steps on average, so twice
        the square root costs fewer products in all from 4 logs on.
        """
        order = self.norm(q) - 1
        m = 2 * (isqrt(order - 1) + 1)
        mul = self.mul
        powers = []
        x = 1
        for _ in range(m):
            powers.append(x)
            x = mul(x, g, q)
        if x == 0:  # g = 0 mod q has no inverse power to step by
            raise ValueError(f"{g} is 0 mod {q}, not a generator")
        return m, dict(zip(powers, range(m))), self.pow(x, order - 1, q), order

    def dlog(self, g: int, a: int, q: int) -> int:
        """x in [0, N(q) - 2] with g^x = a in R/q, baby-step giant-step.

        g must generate the unit group; a = 0 mod q has no logarithm and
        raises DLogUndefined, a g that does not reach a raises ValueError.
        """
        y = self.reduce(a, q)
        if y == 0:
            raise DLogUndefined(f"0 has no discrete log mod {q}")
        m, baby, giant, order = self._bsgs_table(g, q)
        mul = self.mul
        for i in range(m):
            if y in baby:
                return (i * m + baby[y]) % order
            y = mul(y, giant, q)
        raise ValueError(f"no discrete log of {a} base {g} mod {q}; is g a generator?")

    def log_table(self, g: int, q: int) -> list[int]:
        """Full table t with t[g^x mod q] = x for x in [0, N(q) - 2]; t[0] = -1.

        Built in N(q) - 1 products. A g that does not reach every nonzero
        residue raises the same ValueError as dlog.
        """
        order = self.norm(q) - 1
        mul = self.mul
        table = [-1] * (order + 1)
        x = 1
        for e in range(order):
            table[x] = e
            x = mul(x, g, q)
        # g^order = 1 for any unit g, and table[1] keeps the largest exponent
        # below order that maps to 1: 0 exactly when g has full order.
        if x != 1 or table[1] != 0:
            raise ValueError(f"powers of {g} mod {q} miss residues; is g a generator?")
        return table

    def finite_sidon(self, q: int, g: int | None = None) -> set[int]:
        """{dlog_g(p) : p irreducible, N(p)^2 < N(q)} in Z_(N(q) - 1); g
        defaults to the least generator.

        Products of two such irreducibles have norm below N(q), so they are
        their own residues mod q: distinct pairs give distinct products, and
        the logs form a Sidon set in Z_(N(q) - 1).
        """
        self.check_modulus(q)
        if g is None:
            g = self.generator(q)
        return {self.dlog(g, p, q) for p in self.irreducibles_below(q)}


class PrimeField(UnitGroupRing):
    """Z mod a prime q: reduction a % q, norm q, the primes up to sqrt(q)."""

    reduce = staticmethod(operator.mod)
    pow = staticmethod(pow)

    @staticmethod
    def check_modulus(q: int) -> None:
        if not is_prime(q):
            raise InvalidModulus(f"{q} is not prime")

    @staticmethod
    def norm(q: int) -> int:
        return q

    @staticmethod
    def mul(a: int, b: int, q: int) -> int:
        return a * b % q

    @staticmethod
    def irreducibles_below(q: int) -> list[int]:
        return primes_upto(isqrt(q))


# The unit-group algorithms of Z under their classic names; basis.INTEGERS,
# a PrimeField too, serves the construction.
_PRIMES = PrimeField()
is_primitive_root = _PRIMES.is_generator
smallest_primitive_root = _PRIMES.generator
discrete_log = _PRIMES.dlog
log_table = _PRIMES.log_table


def lift_to_window(d: int, q: int, h: int) -> int:
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
