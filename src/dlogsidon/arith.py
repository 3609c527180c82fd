"""Arithmetic substrate: primality, interval sieves, prime counting, and
the unit-group core shared by both rings.

Everything here is exact integer arithmetic. Primality is deterministic
Miller-Rabin (the fixed witness set is proven complete far beyond 64 bits).
Prime enumeration is a segmented sieve over numpy bool flags, read out with
np.flatnonzero into an int64 array (prime_array; primes_in_interval is the
same primes as Python ints), and it refuses an interval of more than
SIEVE_LIMIT integers with SieveTooLarge before allocating. Prime counting is
the Lucy_Hedgehog recursion in O(n^(3/4)) steps, run as whole-array updates
on int64 arrays, for n below 2^62. UnitGroupRing holds the generator search,
baby-step giant-step and full log tables, and the finite Sidon set, once for
Z and GF(2)[X]; a ring supplies its arithmetic and irreducibles. INTEGERS is
the Z ring, and is_primitive_root, smallest_primitive_root, discrete_log and
log_table are its methods.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .errors import DLogTooLarge, DLogUndefined, InvalidModulus, SieveTooLarge

# Proven deterministic for n < 3.3 * 10^24 (Sorenson-Webster).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SEGMENT = 1 << 22

# Most integers one sieve lists. Its primes fill an int64 array of up to
# about 60 MB, beside their uint32 offsets while it is filled. The largest
# basis window, j = 13's (2^25, 2^27], holds 1.0e8 integers.
SIEVE_LIMIT = 1 << 27

# Most baby steps one BSGS table holds, m = 2 (isqrt(N(q) - 2) + 1), so
# norms up to 2^38 + 1. At the limit the powers and their dict hold 106 MiB
# (123 MiB while built, by tracemalloc, for the largest prime below 2^38);
# the largest table a basis needs, a random q_13 < 2^27, has about 23k.
MAX_BABY_STEPS = 1 << 20

# Exponents one log-table chunk writes: its base powers and the chunk's
# powers are int64 columns of this length, 512 KiB each.
_LOG_CHUNK = 1 << 16

# prime_count holds values up to n in int64 arrays.
PRIME_COUNT_LIMIT = 1 << 62


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


def dyadic_interval(j: int) -> PrimeInterval:
    """The prime pool (2^(2j-1), 2^(2j+1)] for basis entry j >= 1."""
    if j < 1:
        raise ValueError(f"basis index must be >= 1, got {j}")
    return PrimeInterval(1 << (2 * j - 1), 1 << (2 * j + 1))


def check_sieve(lo: int, hi: int) -> None:
    """Raise SieveTooLarge if (lo, hi] holds more than SIEVE_LIMIT integers."""
    if hi - lo > SIEVE_LIMIT:
        raise SieveTooLarge(f"sieving ({lo}, {hi}] lists {hi - lo} integers, "
                            f"above the limit of 2^27 = {SIEVE_LIMIT}")


def prime_array(iv: PrimeInterval) -> np.ndarray:
    """Primes p with iv.lo < p <= iv.hi, ascending, as an int64 array.

    A segmented sieve: each segment is one numpy bool buffer, reused, in
    which each base prime p up to sqrt(iv.hi) clears its multiples from p^2
    on with one strided slice, and np.flatnonzero reads the survivors out,
    kept as uint32 offsets into the segment until one int64 array of the
    total length is filled, so the primes are held one and a half times at
    most. The base primes come from the same sieve, one level down; a base
    prime inside the interval survives its own marking, which starts at p^2.
    """
    check_sieve(iv.lo, iv.hi)
    lo, hi = iv.lo + 1, iv.hi
    root = isqrt(hi)
    base = prime_array(PrimeInterval(1, root)).tolist() if root >= 2 else []
    offsets = []
    buffer = np.empty(min(_SEGMENT, hi - lo + 1), dtype=bool)
    for seg_lo in range(lo, hi + 1, _SEGMENT):
        seg_hi = min(seg_lo + _SEGMENT - 1, hi)
        flags = buffer[: seg_hi - seg_lo + 1]
        flags[:] = True
        for p in base:
            if p * p > seg_hi:
                break
            flags[max(p * p, (seg_lo + p - 1) // p * p) - seg_lo :: p] = False
        offsets.append((seg_lo, np.flatnonzero(flags).astype(np.uint32)))
    primes = np.empty(sum(len(off) for _, off in offsets), dtype=np.int64)
    pos = 0
    for seg_lo, off in offsets:
        np.add(off, seg_lo, out=primes[pos : pos + len(off)], dtype=np.int64)
        pos += len(off)
    return primes


def primes_in_interval(iv: PrimeInterval) -> list[int]:
    """Primes p with iv.lo < p <= iv.hi, ascending: prime_array as Python ints."""
    return prime_array(iv).tolist()


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
    small[v] holds S(v) for v <= r = isqrt(n), large[i] holds S(n // i),
    both int64 arrays, so n must stay below PRIME_COUNT_LIMIT = 2^62; each
    prime's update is one array expression per side, and its right-hand side
    is a new array, so every term reads values from before this p's update.
    """
    if n < 2:
        return 0
    if n >= PRIME_COUNT_LIMIT:
        raise SieveTooLarge(f"prime count at {n}: int64 arrays hold n < 2^62 only")
    r = isqrt(n)
    small = np.arange(-1, r, dtype=np.int64)
    quotients = np.zeros(r + 1, dtype=np.int64)  # quotients[i] = n // i
    quotients[1:] = n // np.arange(1, r + 1, dtype=np.int64)
    large = quotients - 1
    large[0] = 0
    for p in range(2, r + 1):
        below = int(small[p - 1])
        if small[p] == below:
            continue  # p is composite
        p2 = p * p
        top = min(r, n // p2)
        mid = min(top, r // p)
        # S(n // (i p)) is large[i p] while i p <= r, else small[(n // i) // p].
        rhs = np.empty(top, dtype=np.int64)
        rhs[:mid] = large[p : mid * p + 1 : p]
        rhs[mid:] = small[quotients[mid + 1 : top + 1] // p]
        rhs -= below
        large[1 : top + 1] -= rhs
        if p2 <= r:
            small[p2:] -= small[np.arange(p2, r + 1, dtype=np.int64) // p] - below
    return int(large[1])


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
    pow(a, e, q) in R/q, reduce_column(col, q) and mul_column(col, b, q),
    the same over an int64 array of elements (residues, for mul_column),
    irreducibles(lo, hi), the irreducibles p with
    lo < N(p) <= hi, check_listing(lo, hi), which raises the ring's limit
    error before that listing allocates, and basis_entry(j).
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

    def baby_steps(self, q: int) -> int:
        """m = 2 ceil(sqrt(N(q) - 1)), the baby steps of a BSGS table mod q;
        DLogTooLarge when m > MAX_BABY_STEPS."""
        m = 2 * (isqrt(self.norm(q) - 2) + 1)
        if m > MAX_BABY_STEPS:
            raise DLogTooLarge(f"discrete logs mod {q} need {m} baby steps, above the "
                               f"limit of 2^20 = {MAX_BABY_STEPS}")
        return m

    @lru_cache(maxsize=128)
    def _bsgs_table(self, g: int, q: int):
        """Baby steps {g^j: j} for j < m = baby_steps(q), g^-m, and the
        group order.

        A table serves many logs (the blocks of a generation, a finite set),
        and a log takes (N(q) - 1) / (2m) giant steps on average, so twice
        the square root costs fewer products in all from 4 logs on. Raises
        DLogTooLarge, before any power is taken, when m > MAX_BABY_STEPS.
        """
        order = self.norm(q) - 1
        m = self.baby_steps(q)
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

    def log_table(self, g: int, q: int) -> np.ndarray:
        """Full table t with t[g^x mod q] = x for x in [0, N(q) - 2]; t[0] = -1.

        An int32 array (every basis norm is below 2^31), filled a chunk of
        up to _LOG_CHUNK exponents at a time: the chunk from cC on is the
        column of base powers g^0..g^(C-1) times g^(cC), one mul_column,
        written at those residues. The base powers come from log2 C
        doublings of the same product. A g that does not reach every
        nonzero residue raises the same ValueError as dlog.
        """
        order = self.norm(q) - 1
        g = self.reduce(g, q)
        width = min(order, _LOG_CHUNK)
        base = np.ones(width, dtype=np.int64)
        done = 1
        while done < width:
            step = min(done, width - done)
            base[done:done + step] = self.mul_column(base[:step], self.pow(g, done, q), q)
            done += step
        table = np.full(order + 1, -1, dtype=np.int32)
        exponents = np.arange(width, dtype=np.int32)
        lead, stride = 1, self.pow(g, width, q)
        for start in range(0, order, width):
            size = min(width, order - start)
            table[self.mul_column(base[:size], lead, q)] = exponents[:size] + start
            lead = self.mul(lead, stride, q)
        # Only a g of full order writes every nonzero residue; a g = 0 mod q
        # (which also wrote t[0]) has no power equal to 1 at all.
        if self.pow(g, order, q) != 1 or table[1:].min() < 0:
            raise ValueError(f"powers of {g} mod {q} miss residues; is g a generator?")
        return table

    def finite_sidon(self, q: int, g: int | None = None) -> set[int]:
        """{dlog_g(p) : p irreducible, N(p)^2 < N(q)} in Z_(N(q) - 1); g
        defaults to the least generator.

        Products of two such irreducibles have norm below N(q), so they are
        their own residues mod q: distinct pairs give distinct products, and
        the logs form a Sidon set in Z_(N(q) - 1).
        """
        if g is None:
            g = self.generator(q)  # which tests q
        else:
            self.check_modulus(q)
        return {self.dlog(g, p, q) for p in self.irreducibles_below(q)}

    def irreducibles_below(self, q: int) -> list[int]:
        """The irreducibles p with N(p)^2 < N(q), ascending."""
        return self.irreducibles(1, isqrt(self.norm(q) - 1))


class PrimeField(UnitGroupRing):
    """Z mod a prime q: reduction a % q, norm q; the primes of an interval
    from the sieve, and the least prime of each dyadic window."""

    reduce = staticmethod(operator.mod)
    pow = staticmethod(pow)
    check_listing = staticmethod(check_sieve)

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
    def reduce_column(col: np.ndarray, q: int) -> np.ndarray:
        return col % q

    @staticmethod
    def mul_column(col: np.ndarray, b: int, q: int) -> np.ndarray:
        """col * b mod q; residues below q < 2^31 keep the products in int64."""
        return col * b % q

    @staticmethod
    def irreducibles(lo: int, hi: int) -> list[int]:
        return primes_in_interval(PrimeInterval(lo, hi)) if hi > lo else []

    def basis_entry(self, j: int) -> tuple[int, int]:
        """The least prime of dyadic_interval(j) and its least primitive root."""
        # Bertrand's postulate puts a prime in every window (n, 4n].
        iv = dyadic_interval(j)
        q = next(p for p in range(iv.lo + 1, iv.hi + 1) if is_prime(p))
        return q, self.generator(q)


# The Z ring, and its unit-group algorithms under their classic names.
INTEGERS = PrimeField()
is_primitive_root = INTEGERS.is_generator
smallest_primitive_root = INTEGERS.generator
discrete_log = INTEGERS.dlog
log_table = INTEGERS.log_table


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
