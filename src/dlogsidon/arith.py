"""Arithmetic substrate: primality, interval sieves, prime counting, and
the unit-group core shared by both rings.

Everything here is exact integer arithmetic. Primality is deterministic
Miller-Rabin (the fixed witness set is proven complete far beyond 64 bits).
Prime enumeration is a segmented sieve over numpy bool flags for the odd
numbers only, read out with np.flatnonzero into an int64 array
(prime_array; primes_in_interval is the same primes as Python ints), and it
refuses an interval of more than SIEVE_LIMIT integers with SieveTooLarge
before allocating. Prime counting is the Lucy_Hedgehog recursion in
O(n^(3/4)) steps, run as whole-array updates on int64 arrays, for n below
2^62. UnitGroupRing holds the generator search, Pohlig-Hellman discrete
logs (a baby-step giant-step search in each subgroup of prime order) and
full log tables, and the finite Sidon set, once for Z and GF(2)[X]; a ring
supplies its arithmetic and irreducibles. The factors of a group order come
from one cached factorize. INTEGERS is the Z ring, and is_primitive_root,
smallest_primitive_root, discrete_log and log_table are its methods.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from types import MappingProxyType

import numpy as np

from .errors import DLogTooLarge, DLogUndefined, InvalidModulus, SieveTooLarge

# Proven deterministic for n < 3.3 * 10^24 (Sorenson-Webster).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Odd flags one sieve segment holds: 1 MiB of bools for 2^21 integers. On
# a 2-core Xeon with 2 MiB of L2 cache a core, segments of 2^22 flags sieved
# the j = 12 and 13 window pools 1.3 to 1.6 times as slowly.
_SEGMENT = 1 << 20

# Most integers one sieve lists. Its primes fill an int64 array of up to
# about 60 MB, beside their uint32 offsets while it is filled. The largest
# basis window, j = 13's (2^25, 2^27], holds 1.0e8 integers.
SIEVE_LIMIT = 1 << 27

# Most baby steps of a BSGS over the whole unit group, baby_steps(q) =
# 2 (isqrt(N(q) - 2) + 1), so discrete logs reach norms up to 2^38 + 1. A
# log plan's tables are those of the subgroups of prime order r, of
# 2 (isqrt(r - 1) + 1) steps each, so none is larger: 106 MiB at most, for
# a group of prime order at the limit. A basis modulus q_13 < 2^27 needs at
# most 16,384 steps, when q_13 is a safe prime 2r + 1.
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

    A segmented sieve over the odd numbers only, 2 added by hand: flag i of
    a segment stands for seg_lo + 2i, so a segment of _SEGMENT flags spans
    twice as many integers. Each segment is one numpy bool buffer, reused,
    in which each odd base prime p up to sqrt(iv.hi) clears its odd
    multiples from p^2 on with one slice of stride p, and np.flatnonzero
    reads the survivors out, kept as uint32 flag indices into the segment
    until one int64 array of the total length is filled, so the primes are
    held one and a half times at most. The base primes come from the same
    sieve, one level down; a base prime inside the interval survives its
    own marking, which starts at p^2.
    """
    check_sieve(iv.lo, iv.hi)
    lo, hi = iv.lo + 1, iv.hi
    root = isqrt(hi)
    base = prime_array(PrimeInterval(2, root)).tolist() if root >= 3 else []
    first = lo | 1  # the least odd number >= lo; lo >= 2, so 1 never is
    count = (hi - first) // 2 + 1  # odd numbers in [lo, hi], 0 for (1, 2]
    offsets = []
    buffer = np.empty(min(_SEGMENT, count), dtype=bool)
    for start in range(0, count, _SEGMENT):
        seg_lo = first + 2 * start
        size = min(_SEGMENT, count - start)
        seg_hi = seg_lo + 2 * (size - 1)
        flags = buffer[:size]
        flags[:] = True
        for p in base:
            if p * p > seg_hi:
                break
            m = max(p * p, (seg_lo + p - 1) // p * p)
            m += p * (m % 2 == 0)  # the first odd multiple
            flags[(m - seg_lo) // 2 :: p] = False
        offsets.append((seg_lo, np.flatnonzero(flags).astype(np.uint32)))
    two = int(lo == 2)
    primes = np.empty(two + sum(len(off) for _, off in offsets), dtype=np.int64)
    primes[:two] = 2
    pos = two
    for seg_lo, off in offsets:
        out = primes[pos : pos + len(off)]
        np.multiply(off, 2, out=out, dtype=np.int64)
        out += seg_lo
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


@lru_cache(maxsize=256)
def factorize(n: int) -> Mapping[int, int]:
    """Prime factorization {r: e} by trial division. Intended for n up to
    ~2^40.

    Cached, so the group order N(q) - 1 of a modulus is factored once for
    its generator search, its generator tests and its log plan; its callers
    share one read-only mapping."""
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
    return MappingProxyType(out)


def _table_size(order: int) -> int:
    """2 ceil(sqrt(order)), the baby steps of a BSGS table over a cyclic
    group of that order: twice the square root costs fewer products in all
    from 4 logs on, since a log takes order / (2m) giant steps on average."""
    return 2 * (isqrt(max(order - 1, 0)) + 1)


@dataclass(frozen=True)
class _Subgroup:
    """One prime power r^e of a group order n in a log plan: the cofactor
    n / r^e that projects into it, the CRT coefficient (1 mod r^e, 0 mod
    the cofactor), the inverse of its base of order r^e, and the BSGS
    table of the subgroup of order r, m baby steps {gamma^j: j} and the
    giant step gamma^-m."""

    r: int
    e: int
    cofactor: int
    crt: int
    inverse: int
    m: int
    baby: dict
    giant: int


class UnitGroupRing:
    """The cyclic unit group of the residue field R/q, written once for
    R = Z (PrimeField, the field F_q) and R = GF(2)[X] (gf2x.Gf2Ring,
    GF(2^n)). Residues are the ints 0..N(q) - 1. Discrete logs work in the
    subgroups of prime-power order of the group, by Pohlig-Hellman, from
    one cached plan per (g, q); log tables hold every log at once.

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
        """m = 2 ceil(sqrt(N(q) - 1)), the baby steps of a BSGS table over
        the whole unit group mod q (2 for N(q) <= 2); DLogTooLarge when
        m > MAX_BABY_STEPS. It bounds every subgroup table of a log plan."""
        m = _table_size(self.norm(q) - 1)
        if m > MAX_BABY_STEPS:
            raise DLogTooLarge(f"discrete logs mod {q} need {m} baby steps, above the "
                               f"limit of 2^20 = {MAX_BABY_STEPS}")
        return m

    @lru_cache(maxsize=128)
    def _dlog_plan(self, g: int, q: int):
        """The Pohlig-Hellman plan of base g mod q: the group order n =
        N(q) - 1 and one _Subgroup per prime power r^e of n.

        Raises DLogTooLarge, before n is factored or any power is taken,
        when baby_steps(q) > MAX_BABY_STEPS. Then it proves that g has
        order n: g^n = 1 and, as the base of order r of each subgroup,
        g^(n/r) != 1. A reducible q has fewer than n units, so that proves
        q irreducible and g a generator, and each log of the plan exact;
        any other g or q raises ValueError.
        """
        self.baby_steps(q)
        order = self.norm(q) - 1
        given, g = g, self.reduce(g, q)
        if self.pow(g, order, q) != 1:
            raise ValueError(f"{given} does not generate the unit group mod {q}")
        subgroups = []
        for r, e in factorize(order).items():
            size = r ** e
            cofactor = order // size
            base = g if cofactor == 1 else self.pow(g, cofactor, q)  # of order r^e
            gamma = self.pow(base, size // r, q) if e > 1 else base  # of order r
            if gamma == 1:
                raise ValueError(f"{given} does not generate the unit group mod {q}")
            m = _table_size(r)
            powers, x = [], 1
            for _ in range(m):
                powers.append(x)
                x = self.mul(x, gamma, q)
            subgroups.append(_Subgroup(
                r=r, e=e, cofactor=cofactor, crt=cofactor * pow(cofactor, -1, size) % order,
                inverse=self.pow(base, size - 1, q), m=m, baby=dict(zip(powers, range(m))),
                giant=self.pow(x, r - 1, q)))
        return order, subgroups

    def dlog(self, g: int, a: int, q: int) -> int:
        """x in [0, N(q) - 2] with g^x = a in R/q, by Pohlig-Hellman.

        Each prime power r^e of N(q) - 1 gets the projection
        a^((N(q) - 1) / r^e), skipped when that cofactor is 1, and its e
        base-r digits, each a BSGS over the subgroup of order r; the
        Chinese remainder theorem joins them. In a group of prime order
        that is one BSGS over the whole group, of baby_steps(q) baby steps.
        a = 0 mod q has no logarithm and raises DLogUndefined; a g that does
        not generate the unit group, or a q that is not irreducible, raises
        ValueError when the plan is made.
        """
        y = self.reduce(a, q)
        if y == 0:
            raise DLogUndefined(f"0 has no discrete log mod {q}")
        order, subgroups = self._dlog_plan(g, q)
        x = 0
        for sub in subgroups:
            t = y if sub.cofactor == 1 else self.pow(y, sub.cofactor, q)
            x += sub.crt * self._subgroup_log(sub, t, q)
        return x % order

    def _subgroup_log(self, sub: _Subgroup, t: int, q: int) -> int:
        """The log of t, of order dividing r^e, to the plan's base of order
        r^e, one base-r digit at a time from the lowest: the digit of place
        r^k is the BSGS log, in the subgroup of order r, of t^(r^(e-1-k))
        once the lower digits are divided out of t."""
        mul, r, m, baby, giant = self.mul, sub.r, sub.m, sub.baby, sub.giant
        x, place = 0, 1
        for i in range(sub.e - 1, -1, -1):
            y = self.pow(t, r ** i, q) if i else t
            for step in range(m):
                if y in baby:
                    digit = (step * m + baby[y]) % r
                    break
                y = mul(y, giant, q)
            else:  # the plan proved that gamma generates this subgroup
                raise AssertionError(f"BSGS missed a residue of order {r} mod {q}")
            if digit and i:
                t = mul(t, self.pow(sub.inverse, digit * place, q), q)
            x += digit * place
            place *= r
        return x

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
        defaults to the least generator, and a given g that does not generate
        the unit group raises ValueError.

        Products of two such irreducibles have norm below N(q), so they are
        their own residues mod q: distinct pairs give distinct products, and
        the logs form a Sidon set in Z_(N(q) - 1). A q whose logs need
        more than MAX_BABY_STEPS baby steps raises DLogTooLarge first,
        before N(q) - 1 is factored.
        """
        self.baby_steps(q)
        if g is None:
            g = self.generator(q)  # which tests q
        elif not self.is_generator(g, q):  # which tests q too
            raise ValueError(f"{g} does not generate the unit group mod {q}")
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

    # The same expressions serve an int64 column; its residues below
    # q < 2^31 keep the products of mul_column in int64.
    reduce_column = reduce
    mul_column = mul

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


def lift_to_window(d: int | np.ndarray, q: int, h: int) -> int | np.ndarray:
    """Representative of d mod (q-1) inside [(h-1)q + 1, hq - 1], for one
    digit or for each digit of an int64 column.

    The window holds exactly q-1 consecutive integers, so the lift exists
    and is unique. h >= 2 keeps digit sums of h elements carry-free. A digit
    outside [0, q - 2], such as a log table's -1, raises.
    """
    if h < 2:
        raise ValueError(f"need h >= 2, got {h}")
    bad = np.asarray(d)[(d < 0) | (d > q - 2)]
    if bad.size:
        raise ValueError(f"digit {bad.flat[0]} outside [0, {q - 2}]")
    lo = (h - 1) * q + 1
    return lo + (d - lo) % (q - 1)
