"""Sequence prefixes: all elements of blocks k_min..k_max, plus the finite
single-modulus construction.

Generation streams one block of primes at a time, each block straight
from its integer edges. Primes equal to a basis prime carry no digit vector;
they are recorded as exclusions, not elements.

Digits come from a full log table of (g_j, q_j) once some block has at
least isqrt(q_j) primes, the point where q_j - 1 table steps cost no more
than that many BSGS searches of up to sqrt(q_j) steps each. Smaller blocks
keep BSGS, so a sparse prefix over a large basis builds no big tables.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from math import isqrt

from .arith import discrete_log, log_table, prime_count, primes_upto, smallest_primitive_root
from .basis import Basis
from .blocks import BlockParams, primes_in_block
from .encoder import SidonElement, element_in_block
from .errors import ExcludedPrime, PrefixTooShort


@dataclass(frozen=True)
class ExclusionRecord:
    p: int
    k: int
    basis_index: int

    def to_json_obj(self) -> dict:
        return {"p": self.p, "k": self.k, "basis_index": self.basis_index}


@dataclass
class SequencePrefix:
    """Elements of blocks k_min..k_max sorted by (block, value)."""

    h: int
    k_min: int
    k_max: int
    elements: list[SidonElement]
    excluded: list[ExclusionRecord]
    block_sizes: dict[int, int]
    basis: Basis
    params: BlockParams
    _values: list[int] = field(init=False, repr=False)

    def __post_init__(self):
        vals = [e.value for e in self.elements]
        if any(a >= b for a, b in zip(vals, vals[1:])):
            raise ValueError("element values must be strictly increasing")
        self._values = vals

    def values(self) -> list[int]:
        return list(self._values)

    def covered_bound(self) -> int:
        """Largest x for which counting against this prefix is complete."""
        return self.basis.weight(self.k_max + 1)

    def block_elements(self, k: int) -> list[SidonElement]:
        return [e for e in self.elements if e.k == k]

    def summaries(self) -> list[dict]:
        out = []
        for k in range(self.k_min, self.k_max + 1):
            vals = [e.value for e in self.elements if e.k == k]
            out.append({
                "k": k,
                "block_size": self.block_sizes.get(k, 0),
                "excluded": sum(1 for x in self.excluded if x.k == k),
                "min_value": str(vals[0]) if vals else None,
                "max_value": str(vals[-1]) if vals else None,
            })
        return out


def iter_elements(k_max: int, params: BlockParams, basis: Basis, h: int = 2):
    """Yield ("element", SidonElement) and ("excluded", ExclusionRecord) per block."""
    if basis.scale != h * h:
        raise ValueError(f"basis scale {basis.scale} does not match h = {h}")
    if k_max < params.k_min:
        raise ValueError(f"k_max = {k_max} below the first block {params.k_min}")
    tables: dict[int, list[int]] = {}
    for k in range(params.k_min, k_max + 1):
        ps = primes_in_block(k, params)
        yield ("block", (k, len(ps)))
        basis.ensure(k)
        for j in range(1, k + 1):
            q, g = basis.entry(j)
            if j not in tables and len(ps) >= isqrt(q):
                tables[j] = log_table(g, q)
        for p in ps:
            try:
                yield ("element", element_in_block(p, k, basis, h, tables))
            except ExcludedPrime as e:
                yield ("excluded", ExclusionRecord(p=e.p, k=e.k, basis_index=e.index))


def generate_blocks(k_max: int, params: BlockParams, basis: Basis, h: int = 2) -> SequencePrefix:
    elements: list[SidonElement] = []
    excluded: list[ExclusionRecord] = []
    block_sizes: dict[int, int] = {}
    for kind, item in iter_elements(k_max, params, basis, h):
        if kind == "block":
            block_sizes[item[0]] = item[1]
        elif kind == "element":
            elements.append(item)
        else:
            excluded.append(item)
    elements.sort(key=lambda e: (e.k, e.value))
    if len({e.value for e in elements}) != len(elements):
        raise ValueError("duplicate element values; the digit map must be injective")
    return SequencePrefix(h=h, k_min=params.k_min, k_max=k_max, elements=elements,
                          excluded=excluded, block_sizes=block_sizes,
                          basis=basis, params=params)


def count_upto(x: int, prefix: SequencePrefix) -> int:
    """A(x) = #{elements <= x}. Only sound up to the covered bound."""
    if x < 0:
        return 0
    if x > prefix.covered_bound():
        raise PrefixTooShort(
            f"count at {x} exceeds the covered bound {prefix.covered_bound()}")
    return bisect_right(prefix._values, x)


def finite_dlog_sidon_set(q: int, g: int | None = None) -> set[int]:
    """{dlog_g(p) : p prime, p <= sqrt(q)} in Z_(q-1).

    Products of two such primes stay below q, so distinct digit pairs give
    distinct products mod q and the residues form a Sidon set in Z_(q-1).
    """
    if g is None:
        g = smallest_primitive_root(q)
    return {discrete_log(g, p, q) for p in primes_upto(isqrt(q))}


def expected_finite_size(q: int) -> int:
    return prime_count(isqrt(q))
