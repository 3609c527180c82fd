"""GF(2)[X] arithmetic and its ring: carry-less arithmetic on bit patterns,
irreducibles in place of primes, and GF2, the ring the shared basis,
encoder and generator run over. GF2 supplies only reduction, products and
powers mod q (reduction and products also over int64 columns), the norm,
the irreducible test and its irreducibles by norm;
the generator search, discrete logs, log tables and finite Sidon set are
arith.UnitGroupRing's, and gf2_generator and gf2_discrete_log are GF2's
methods. An irreducible of degree d has norm 2^d, so a block's degrees come
from the same integer edges, blocks.block_edges, as its primes over Z.

The irreducibles of a degree come from a sieve over numpy bool flags, the
GF(2) twin of arith.prime_array (irreducibles_of_degree, up to degree 24).
Rabin's test (is_irreducible) serves the single polynomials: the least
irreducible of a degree and the check of a given modulus.

A polynomial is a nonnegative int whose bit i is the coefficient of X^i, so
X^3 + X + 1 is 0b1011. The j-th modulus is the least irreducible of degree
2j - 1, so its norm (the size of GF(2)[X]/q_j) is N_j = 2^(2j-1): digits
live in [N_j + 1, 2N_j - 1] and the j-th weight is prod_(i<j) 4 N_i =
2^(j^2 - 1), which makes h = 2 digit sums carry-free for the same reason as
on the integer side.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .arith import UnitGroupRing, factorize
from .basis import Basis
from .blocks import BlockParams, block_edges, block_of_prime
from .errors import DegreeTooLarge, NotIrreducible
from .generator import SequencePrefix, generate_blocks

Gf2Poly = int  # bit i holds the coefficient of X^i

_MAX_DEGREE = 24

# Cofactors one sieve pass multiplies at a time: three int64 arrays of this
# length, 6 MiB in all, beside the 16 MiB of flags at degree 24.
_COFACTORS = 1 << 18


def gf2_deg(a: Gf2Poly) -> int:
    """Degree of a; the zero polynomial gets the sentinel -1."""
    return a.bit_length() - 1


def gf2_mul(a: Gf2Poly, b: Gf2Poly) -> Gf2Poly:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def gf2_mod(a: Gf2Poly, b: Gf2Poly) -> Gf2Poly:
    """a mod b: the leading term of a cleared by a shifted b until
    deg a < deg b."""
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = b.bit_length()
    while (shift := a.bit_length() - db) >= 0:
        a ^= b << shift
    return a


def gf2_gcd(a: Gf2Poly, b: Gf2Poly) -> Gf2Poly:
    while b:
        a, b = b, gf2_mod(a, b)
    return a


def gf2_mulmod(a: Gf2Poly, b: Gf2Poly, m: Gf2Poly) -> Gf2Poly:
    return gf2_mod(gf2_mul(a, b), m)


def gf2_powmod(a: Gf2Poly, e: int, m: Gf2Poly) -> Gf2Poly:
    out = 1
    a = gf2_mod(a, m)
    while e:
        if e & 1:
            out = gf2_mulmod(out, a, m)
        a = gf2_mulmod(a, a, m)
        e >>= 1
    return out


def is_irreducible(f: Gf2Poly) -> bool:
    """Rabin's criterion: X^(2^d) = X mod f and gcd(X^(2^(d/r)) - X, f) = 1
    for every prime r dividing d."""
    d = gf2_deg(f)
    if d < 1:
        return False
    if d == 1:
        return True
    if f & 1 == 0:  # divisible by X
        return False
    x = 2
    for r in factorize(d):
        if gf2_gcd(gf2_powmod(x, 1 << (d // r), f) ^ x, f) != 1:
            return False
    return gf2_powmod(x, 1 << d, f) == x


def check_degree(d: int) -> None:
    """ValueError below degree 1, DegreeTooLarge past the bound of 24."""
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    if d > _MAX_DEGREE:
        raise DegreeTooLarge(f"degree {d} beyond the enumeration bound {_MAX_DEGREE}")


@lru_cache(maxsize=32)
def irreducibles_of_degree(d: int) -> tuple[Gf2Poly, ...]:
    """All monic irreducibles of degree d, ascending by bit pattern.

    A sieve: flags[r] stands for X^d + r, r < 2^d. Each irreducible f of
    degree e <= d/2, taken from the cached lower degrees, clears its
    multiples f (X^(d-e) + g) = X^d + (f g ^ (f - X^e) X^(d-e)) for every
    g of degree below d - e. The carry-less f g over an int64 array of g is
    one XOR of shifted copies of g per set bit of f, with g taken
    _COFACTORS at a time. A reducible polynomial has an irreducible factor
    of degree <= d/2, so np.flatnonzero reads out exactly the irreducibles.
    """
    check_degree(d)
    flags = np.ones(1 << d, dtype=bool)
    for e in range(1, d // 2 + 1):
        m = d - e
        for lo in range(0, 1 << m, _COFACTORS):
            g = np.arange(lo, min(lo + _COFACTORS, 1 << m), dtype=np.int64)
            product, shifted = np.empty_like(g), np.empty_like(g)
            for f in irreducibles_of_degree(e):
                product.fill((f ^ (1 << e)) << m)
                for s in range(e + 1):
                    if f >> s & 1:
                        np.left_shift(g, s, out=shifted)
                        product ^= shifted
                flags[product] = False
    found = np.flatnonzero(flags)
    del flags
    found += 1 << d
    found = found.tolist()  # drops the array before the tuple is built
    found = tuple(found)
    if len(found) != irreducible_count(d):
        raise AssertionError(f"irreducible count mismatch at degree {d}")
    return found


def least_irreducible(d: int) -> Gf2Poly:
    """The least irreducible of degree d by bit pattern, by a scan that
    stops at the first one."""
    check_degree(d)
    return next(f for f in range(1 << d, 1 << (d + 1)) if is_irreducible(f))


def irreducible_count(d: int) -> int:
    """Necklace count (1/d) sum_(e|d) mu(e) 2^(d/e)."""
    def mobius(n):
        fac = factorize(n)
        if any(v > 1 for v in fac.values()):
            return 0
        return -1 if len(fac) % 2 else 1

    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += mobius(e) * (1 << (d // e))
    return total // d


def gf2_finite_sidon(n: int, q: Gf2Poly | None = None) -> set[int]:
    """GF2.finite_sidon(q), {dlog(p) : p irreducible, deg p < n/2} in
    Z_(2^n - 1), for q of degree 3 <= n <= 24, by default the least
    irreducible; DegreeTooLarge past 24, whether or not q is given."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    check_degree(n)
    if q is None:
        q = least_irreducible(n)
    if gf2_deg(q) != n:
        raise ValueError(f"modulus degree {gf2_deg(q)} does not match n = {n}")
    return GF2.finite_sidon(q)


def _degrees(lo: int, hi: int) -> range:
    """The degrees d >= 1 with lo < 2^d <= hi, for lo >= 1."""
    return range(lo.bit_length(), hi.bit_length())


def block_of_degree(d: int, params: BlockParams) -> int:
    """block_of_prime(2^d), the block of the irreducibles of degree d: the
    one whose integer edges hold the norm 2^d. ValueError for d < 1, whose
    norm 1 lies below every block, or whose shift is negative."""
    return block_of_prime(1 << d, params)


def degrees_in_block(k: int, params: BlockParams) -> range:
    """The degrees of the irreducibles of block k, from its integer edges."""
    return _degrees(*block_edges(k, params))


class Gf2Ring(UnitGroupRing):
    """GF(2)[X] for the shared generator: the irreducibles of the degrees d
    with 2^d in a norm interval, the least irreducible of degree 2j - 1 with
    its least generator, and the field GF(2)[X]/q of norm 2^deg(q)."""

    reduce = staticmethod(gf2_mod)
    mul = staticmethod(gf2_mulmod)
    pow = staticmethod(gf2_powmod)

    @staticmethod
    def check_modulus(q: Gf2Poly) -> None:
        if not is_irreducible(q):
            raise NotIrreducible(f"{q:#x} is not irreducible")

    @staticmethod
    def norm(q: Gf2Poly) -> int:
        return 1 << gf2_deg(q)

    @staticmethod
    def reduce_column(col: np.ndarray, q: Gf2Poly) -> np.ndarray:
        """gf2_mod over an int64 array: from the top degree present down to
        deg q, the rows with that coefficient set take q shifted under it."""
        out = col.copy()
        n = gf2_deg(q)
        top = int(col.max()).bit_length() - 1 if len(col) else -1
        for s in range(top, n - 1, -1):
            out ^= (out >> s & 1) * (q << (s - n))
        return out

    @staticmethod
    def mul_column(col: np.ndarray, b: Gf2Poly, q: Gf2Poly) -> np.ndarray:
        """col * b mod q for residues col: one XOR of a shifted copy of col
        per set bit of b, then reduce_column. Products of degree below
        2 deg q stay in int64 up to deg q = 32."""
        product = np.zeros_like(col)
        for s in range(b.bit_length()):
            if b >> s & 1:
                product ^= col << s
        return Gf2Ring.reduce_column(product, q)

    @staticmethod
    def irreducibles(lo: int, hi: int) -> list[Gf2Poly]:
        return [p for d in _degrees(lo, hi) for p in irreducibles_of_degree(d)]

    @staticmethod
    def check_listing(lo: int, hi: int) -> None:
        """Raise DegreeTooLarge if (lo, hi] holds a norm 2^d past the degree bound."""
        degrees = _degrees(lo, hi)
        if degrees:
            check_degree(degrees[-1])

    def basis_entry(self, j: int) -> tuple[Gf2Poly, Gf2Poly]:
        q = least_irreducible(2 * j - 1)
        return q, self.generator(q)


GF2 = Gf2Ring()
gf2_generator = GF2.generator
gf2_discrete_log = GF2.dlog


def gf2_generate_blocks(k_max: int, params: BlockParams) -> SequencePrefix:
    """Elements for every irreducible in blocks k_min..k_max by degree: the
    shared generate_blocks over a GF2 basis of scale 4."""
    return generate_blocks(k_max, params, Basis(4, ring=GF2))
