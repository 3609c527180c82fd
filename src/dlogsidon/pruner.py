"""Range-bound pruning: the finitely many primes that can head a pair collision.

For block indices k2 < k1 with k2^2 < (c/(1-c)) k1^2, any pair collision
whose largest prime p1 lies in block k1 and whose smaller pair lies in block
k2 forces p1 to divide a nonzero integer

    s = s1 * Q1 + s2 * p2' * Q2,   Q1 = q_1..q_k2,  Q2 = q_(k2+1)..q_k1,

with 1 <= |s1| <= 2^(E(k1)+E(k2))/Q1 and 1 <= |s2| <= 2^E(k1)/Q2. Rather
than enumerate all s, membership is solved per prime: s1 is determined mod
p1 by (s2, p2'), so each candidate costs one modular inverse and a short
arithmetic progression scan.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import mpmath

from ._precision import PRECISION, cmp_int, pow2_ratio_floor
from .basis import Basis
from .blocks import BlockParams, const_sqrt5, primes_in_block
from .errors import ConsistencyError, IneligiblePair, RatioBoundExceeded
from .generator import SequencePrefix

# Allowed removed fraction per block above 1/2.
SLACK = 0.1


@dataclass(frozen=True)
class SRangeBounds:
    """Solution ranges for one eligible block pair."""

    k2: int
    k1: int
    q1_product: int
    q2_product: int
    s1_max: int
    s2_max: int

    def is_empty(self) -> bool:
        return self.s1_max < 1 or self.s2_max < 1


@dataclass(frozen=True)
class BadPrimeRecord:
    """A prime of block k1 dividing a witness s, with the witness spelled out."""

    p1: int
    k1: int
    k2: int
    s1: int
    s2: int
    p2: int
    q1_product: int
    q2_product: int

    @property
    def s(self) -> int:
        return self.s1 * self.q1_product + self.s2 * self.p2 * self.q2_product

    def to_json_obj(self) -> dict:
        return {"p1": self.p1, "k1": self.k1, "k2": self.k2, "s1": str(self.s1),
                "s2": str(self.s2), "p2": self.p2, "s": str(self.s)}


def _is_eligible(k2: int, k1: int, params: BlockParams) -> bool:
    with mpmath.workprec(PRECISION):
        c = params.c
        return cmp_int(k2 * k2, c / (1 - c) * k1 * k1) < 0


def eligible_k2s(k1: int, params: BlockParams) -> list[int]:
    return [k2 for k2 in range(params.k_min, k1) if _is_eligible(k2, k1, params)]


def s_bounds(k2: int, k1: int, params: BlockParams, basis: Basis) -> SRangeBounds:
    """Ranges of (s1, s2) for the pair (k2, k1); IneligiblePair otherwise."""
    if not params.k_min <= k2 < k1:
        raise IneligiblePair(f"need k_min <= k2 < k1, got k2 = {k2}, k1 = {k1}")
    if not _is_eligible(k2, k1, params):
        raise IneligiblePair(f"k2 = {k2}, k1 = {k1} fails k2^2 < (c/(1-c)) k1^2")
    q1_product = basis.prime_product(1, k2)
    q2_product = basis.prime_product(k2 + 1, k1)
    with mpmath.workprec(PRECISION):
        pair_exp = params.exponent(k1) + params.exponent(k2)
    s1_max = pow2_ratio_floor(pair_exp, q1_product)
    s2_max = pow2_ratio_floor(params.exponent(k1), q2_product)
    return SRangeBounds(k2=k2, k1=k1, q1_product=q1_product, q2_product=q2_product,
                        s1_max=s1_max, s2_max=s2_max)


def _signed(limit: int):
    for mag in range(1, limit + 1):
        yield mag
        yield -mag


def _witness(p1: int, bounds: SRangeBounds, p2s: list[int]):
    """First (s1, s2, p2) in canonical order with p1 | s, or None."""
    q1p, q2p = bounds.q1_product, bounds.q2_product
    if q1p % p1 == 0:
        # p1 is one of q_1..q_k2: p1 | s iff p1 | s2, any s1 works.
        if bounds.s1_max < 1:
            return None
        for s2 in _signed(bounds.s2_max):
            if s2 % p1 != 0:
                continue
            for p2 in p2s:
                for s1 in _signed(bounds.s1_max):
                    if s1 * q1p + s2 * p2 * q2p != 0:
                        return s1, s2, p2
        return None
    # When p1 is one of q_(k2+1)..q_k1, t = 0: the scan runs over the
    # multiples of p1, as p1 | s iff p1 | s1.
    inv = pow(q1p, -1, p1)
    lo = -bounds.s1_max
    for s2 in _signed(bounds.s2_max):
        for p2 in p2s:
            t = (-s2 * p2 * q2p) * inv % p1
            first = lo + (t - lo) % p1
            for s1 in range(first, bounds.s1_max + 1, p1):
                if s1 == 0:
                    continue
                if s1 * q1p + s2 * p2 * q2p == 0:
                    continue
                return s1, s2, p2
    return None


def bad_primes(k1: int, params: BlockParams, basis: Basis) -> list[BadPrimeRecord]:
    """Primes of block k1 dividing some nonzero witness s, with witnesses.

    One record per bad prime, the first witness in (k2, s2, p2', s1) order:
    k2 and p2' ascending, s2 as 1, -1, 2, -2, ..., and s1 ascending from
    -s1_max, except when p1 is one of q_1..q_k2 (then every s1 qualifies
    and it runs 1, -1, 2, -2, ...). When the size bound guarantees a
    witness cannot be divisible by two block-k1 primes, that is verified
    and a violation raises ConsistencyError.
    """
    plans = []
    for k2 in eligible_k2s(k1, params):
        b = s_bounds(k2, k1, params, basis)
        if b.is_empty():
            continue
        p2s = primes_in_block(k2, params)
        if len(p2s) == 0:
            continue
        plans.append((b, p2s))
    if not plans:
        # Plans come first so that no plan means no sieve of block k1; on the
        # deterministic basis every plan through k1 = 11 is empty.
        return []
    p_list = primes_in_block(k1, params)
    records = []
    for p1 in p_list:
        for b, p2s in plans:
            found = _witness(p1, b, p2s)
            if found is None:
                continue
            s1, s2, p2 = found
            rec = BadPrimeRecord(p1=p1, k1=k1, k2=b.k2, s1=s1, s2=s2, p2=p2,
                                 q1_product=b.q1_product, q2_product=b.q2_product)
            if rec.s % p1 != 0:
                raise ConsistencyError(f"witness for {p1} is not divisible by it")
            with mpmath.workprec(PRECISION):
                # |s| <= 2^(E(k1)+E(k2)+1) < (block k1 floor)^2 in this regime.
                regime = (2 * params.exponent(k1 - 1)
                          > params.exponent(k1) + params.exponent(b.k2) + 1)
            if regime:
                others = [p for p in p_list if p != p1 and rec.s % p == 0]
                if others:
                    raise ConsistencyError(
                        f"witness {rec.s} divisible by {p1} and {others[0]} "
                        f"against the size bound")
            records.append(rec)
            break
    return records


@dataclass
class PruneResult:
    pruned: SequencePrefix
    records: list[BadPrimeRecord]
    reports: list[dict]


def pruned_generate(prefix: SequencePrefix) -> PruneResult:
    """Drop every bad prime's element from a generated prefix, using the
    prefix's own block law and basis.

    The removed fraction per block must stay below 1/2 plus SLACK; a
    breach raises RatioBoundExceeded since the surviving sequence would no
    longer have the intended density.
    """
    params, basis = prefix.params, prefix.basis
    if not params.c > const_sqrt5():
        raise ValueError("pruning needs c above (3 - sqrt 5)/2; below that "
                         "no pair collision exists to prune")
    records: list[BadPrimeRecord] = []
    bad_by_block: dict[int, set[int]] = {}
    reports = []
    for k in range(params.k_min, prefix.k_max + 1):
        recs = bad_primes(k, params, basis)
        records.extend(recs)
        bad_by_block[k] = {r.p1 for r in recs}
        size = prefix.block_sizes.get(k, 0)
        ratio = len(recs) / size if size else 0.0
        if ratio > 0.5 + SLACK:
            raise RatioBoundExceeded(f"block {k}: removed {ratio:.3f} of primes")
        reports.append({"k": k, "block_size": size, "bad_count": len(recs),
                        "ratio": ratio})
    survivors = [e for e in prefix.elements if e.p not in bad_by_block.get(e.k, ())]
    return PruneResult(pruned=replace(prefix, elements=survivors), records=records,
                       reports=reports)
