"""Exhaustive collision search, structural decomposition of collisions, and
the growth brackets for counting functions.

Collision search is exact. One numpy engine serves every arity l: it
writes a key for every l-subset sum into one array in lexicographic order
(the sum mod 2^61 - 1, or mod `modulus`; uint64 unless the modulus is too
large), sorts it in place, and only when keys repeat regenerates those
subsets and groups them by exact big-integer sum. Equal sums force equal
keys, so nothing is missed; the brute-force enumeration is the independent
oracle the tests hold the engine to. The Sidon verdict for residues mod m
sorts the same pair keys, plus the doubled ones.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from math import comb

import mpmath
import numpy as np

from ._precision import PRECISION, cmp_int
from .arith import prime_count
from .basis import Basis
from .blocks import BlockParams
from .encoder import SidonElement
from .errors import ArityOutOfRange, AuditTooLarge, DigitOutOfRange, MissingDigits
from .generator import SequencePrefix, count_upto

# The engine holds one uint64 key per l-subset, so 2^28 subsets take 2 GiB.
MAX_SUBSETS = 1 << 28

# Pairs of subsets with one key, each a potential report: a small modulus
# gives O(C(n, l)^2 / m) of them, far more than there are subsets.
MAX_REPORT_PAIRS = 1 << 20

_MERSENNE61 = (1 << 61) - 1

# Neighbour comparisons after the sort run over this many keys at a time.
_CHUNK = 1 << 20


def _value_of(e):
    return e.value if hasattr(e, "value") else int(e)


@dataclass
class CollisionReport:
    """Two element-disjoint l-tuples of distinct elements with equal sums."""

    l: int
    total: int
    left: tuple
    right: tuple
    structure: dict | None = None

    def left_values(self) -> tuple[int, ...]:
        return tuple(_value_of(e) for e in self.left)

    def right_values(self) -> tuple[int, ...]:
        return tuple(_value_of(e) for e in self.right)

    def key(self):
        return (self.l, self.total, self.left_values(), self.right_values())

    def to_json_obj(self) -> dict:
        def side(items):
            return [e.to_json_obj() if hasattr(e, "to_json_obj") else str(_value_of(e))
                    for e in items]
        obj = {"l": self.l, "sum": str(self.total),
               "left": side(self.left), "right": side(self.right)}
        if self.structure is not None:
            obj["structure"] = self.structure
        return obj


def _prepare(elements, l):
    if l < 2:
        raise ArityOutOfRange(f"collision arity must be >= 2, got {l}")
    items = list(elements)
    vals = [_value_of(e) for e in items]
    if len(set(vals)) != len(vals):
        raise ValueError("elements must be pairwise distinct")
    return items, vals


def _brute_groups(vals, l, modulus):
    """Sum -> index tuples by direct enumeration and sorting; the slow oracle."""
    entries = []
    for t in combinations(range(len(vals)), l):
        s = sum(vals[i] for i in t)
        if modulus is not None:
            s %= modulus
        entries.append((s, t))
    entries.sort()
    groups = {}
    run_start = 0
    for i in range(1, len(entries) + 1):
        if i == len(entries) or entries[i][0] != entries[run_start][0]:
            if i - run_start > 1:
                groups[entries[run_start][0]] = [t for _, t in entries[run_start:i]]
            run_start = i
    return groups


def _add_mod(a, tails, m, out):
    """out = (a + tails) mod m, for a and tails already reduced mod m."""
    np.add(tails, a, out=out)
    np.subtract(out, m, out=out, where=out >= m)
    return out


def _head_rows(res, l, m):
    """(rank of the first subset, head residue, tail sums) per head index i:
    the tails, (l-1)-subsets whose smallest index exceeds i, are a suffix of
    the (l-1)-subset sums in lexicographic order."""
    n = len(res)
    tails = _subset_sums(res, l - 1, m)
    total = comb(n, l)
    for i in range(n - l + 1):
        width = comb(n - i - 1, l - 1)
        yield total - comb(n - i, l), res[i], tails[len(tails) - width:]


def _subset_sums(res, l, m):
    """Residues mod m of all l-subset sums, in lexicographic order."""
    if l == 1:
        return res
    out = np.empty(comb(len(res), l), res.dtype)
    for pos, a, tails in _head_rows(res, l, m):
        _add_mod(a, tails, m, out[pos:pos + len(tails)])
    return out


def _repeated_keys(keys):
    """Sorted distinct keys that occur more than once. Sorts keys in place
    and compares neighbours a chunk at a time, so no comparison mask spans
    the whole array."""
    keys.sort()
    found = [keys[:0]]
    for lo in range(0, len(keys), _CHUNK):
        run = keys[lo:lo + _CHUNK + 1]
        found.append(run[1:][run[1:] == run[:-1]])
    return np.unique(np.concatenate(found))


def _unrank(rank, n, l):
    """The rank-th l-subset of range(n) in lexicographic order."""
    out = []
    i = 0
    while l:
        width = comb(n - i - 1, l - 1)  # subsets whose smallest index is i
        if rank < width:
            out.append(i)
            l -= 1
        else:
            rank -= width
        i += 1
    return tuple(out)


def _confirmed_groups(vals, res, l, m, modulus, repeated):
    """Exact sum -> index tuples, over the subsets whose key repeats.

    Regenerates the keys one head row at a time, so memory stays at the
    (l-1)-subset sums plus one row, and counts the pairs sharing a sum as it
    goes, so it stops as soon as they pass MAX_REPORT_PAIRS.
    """
    exact: dict[int, list[tuple[int, ...]]] = defaultdict(list)
    pairs = 0
    for pos, a, tails in _head_rows(res, l, m):
        row = _add_mod(a, tails, m, np.empty_like(tails))
        slot = np.minimum(np.searchsorted(repeated, row), len(repeated) - 1)
        for off in np.flatnonzero(repeated[slot] == row):
            t = _unrank(pos + int(off), len(vals), l)
            s = sum(vals[i] for i in t)
            group = exact[s if modulus is None else s % modulus]
            pairs += len(group)
            _check_report_pairs(pairs, l)
            group.append(t)
    return {key: ts for key, ts in exact.items() if len(ts) > 1}


def _check_report_pairs(pairs, l):
    if pairs > MAX_REPORT_PAIRS:
        raise AuditTooLarge(f"more than {MAX_REPORT_PAIRS} pairs of {l}-subsets "
                            f"share a sum (the report limit)")


def _reports_from_groups(items, vals, groups, l):
    _check_report_pairs(sum(comb(len(tuples), 2) for tuples in groups.values()), l)
    reports = []
    for key, tuples in groups.items():
        for ta, tb in combinations(tuples, 2):
            va = {vals[i] for i in ta}
            vb = {vals[i] for i in tb}
            if va & vb:
                continue
            if max(va) < max(vb):
                ta, tb = tb, ta
            left = tuple(sorted((items[i] for i in ta), key=_value_of, reverse=True))
            right = tuple(sorted((items[i] for i in tb), key=_value_of, reverse=True))
            reports.append(CollisionReport(l=l, total=key, left=left, right=right))
    reports.sort(key=CollisionReport.key)
    return reports


def _check_subsets(n, l):
    subsets = comb(n, l)
    if subsets > MAX_SUBSETS:
        raise AuditTooLarge(f"{subsets} {l}-subsets of {n} elements exceed "
                            f"the audit limit of {MAX_SUBSETS}")


def _residues(vals, m):
    # Two keys below m add up to less than 2^64 while m <= 2^63.
    return np.fromiter((v % m for v in vals), np.uint64 if m <= 1 << 63 else object, len(vals))


def is_sidon_mod(residues, modulus: int) -> bool:
    """Whether the sums a + b (a <= b) of the residues are pairwise
    distinct mod `modulus`.

    Sorts the C(n, 2) pair keys and the n doubled keys 2a, all reduced mod
    the modulus; the keys are the sums themselves, so a repeated key is a
    repeated sum and needs no confirmation. Raises AuditTooLarge, before
    allocating anything, when there are more than MAX_SUBSETS pairs.
    """
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    vals = list(residues)
    _check_subsets(len(vals), 2)
    res = _residues(vals, modulus)
    doubled = _add_mod(res, res, modulus, np.empty_like(res))
    keys = np.concatenate((_subset_sums(res, 2, modulus), doubled))
    return len(_repeated_keys(keys)) == 0


def find_collisions(elements, l: int, modulus: int | None = None) -> list[CollisionReport]:
    """All unordered pairs of disjoint size-l subsets with equal sums.

    Each side is l distinct elements and the two sides share none, so
    [0, 1, 2, 3] at l = 2 carries exactly one collision, 0+3 = 1+2.
    With `modulus` the sums are compared mod it. Raises AuditTooLarge,
    before allocating anything, when there are more than MAX_SUBSETS
    l-subsets, and before building any report when more than
    MAX_REPORT_PAIRS pairs of subsets share a sum.
    """
    items, vals = _prepare(elements, l)
    if modulus is not None and modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    if len(vals) < 2 * l:
        return []  # no two disjoint l-subsets; from here C(n, l) is the largest level
    _check_subsets(len(vals), l)
    m = _MERSENNE61 if modulus is None else modulus
    res = _residues(vals, m)
    repeated = _repeated_keys(_subset_sums(res, l, m))
    groups = _confirmed_groups(vals, res, l, m, modulus, repeated) if len(repeated) else {}
    return _reports_from_groups(items, vals, groups, l)


def find_collisions_bruteforce(elements, l: int, modulus: int | None = None) -> list[CollisionReport]:
    """Reference implementation: direct enumeration, sort, scan."""
    items, vals = _prepare(elements, l)
    return _reports_from_groups(items, vals, _brute_groups(vals, l, modulus), l)


def check_collision_structure(report: CollisionReport, basis: Basis,
                              params: BlockParams) -> dict:
    """Evaluate the structural facts a construction collision must satisfy,
    with the windows of the basis order h.

    Facts are reported, not asserted: a hand-built collision that fails one
    of them comes back with that fact False. Requires elements with digit
    vectors inside their windows; raw integers raise MissingDigits.
    """
    elems = list(report.left) + list(report.right)
    for e in elems:
        if not isinstance(e, SidonElement):
            raise MissingDigits("structure facts need digit vectors, got raw values")
        if not all((basis.h - 1) * basis.norm(j) < x < basis.h * basis.norm(j)
                   for j, x in enumerate(e.digits, start=1)):
            raise DigitOutOfRange(f"digits of {e.p} violate their windows")
    l = report.l
    left = list(report.left)
    right = list(report.right)
    max_k = max(e.k for e in elems)

    def digit_sums(side):
        return [sum(e.digits[j - 1] for e in side if j <= e.k)
                for j in range(1, max_k + 1)]

    sums_left = digit_sums(left)
    sums_right = digit_sums(right)
    facts = {"digitwise_equal": sums_left == sums_right}

    # Block recovery off the digit sums: k_i is the largest j whose digit sum
    # reaches i window floors.
    recovered = []
    for i in range(1, l + 1):
        k_i = None
        for j in range(1, max_k + 1):
            if sums_left[j - 1] >= i * ((basis.h - 1) * basis.norm(j) + 1):
                k_i = j
        recovered.append(k_i)
    ks = [e.k for e in left]
    facts["block_indices"] = (
        recovered == ks
        and ks == [e.k for e in right]
        and all(a >= b for a, b in zip(ks, ks[1:]))
    )

    def partial(side, i):
        out = 1
        for e in side[:i]:
            out *= e.p
        return out

    chain_ok = True
    for i in range(l, 0, -1):
        k_hi = ks[i - 1]
        k_lo = ks[i] if i < l else 0
        modulus = basis.prime_product(k_lo + 1, k_hi)
        if partial(left, i) % modulus != (partial(right, i) % modulus):
            chain_ok = False
    facts["congruence_chain"] = chain_ok

    with mpmath.workprec(PRECISION):
        c = params.c.eval()
        ratio = c / (1 - c)
        k1 = ks[0]
        kl = ks[-1]
        if l == 2:
            upper = cmp_int(kl * kl, ratio * k1 * k1) < 0
            lower = cmp_int(kl * kl, (1 - c) * k1 * k1) > 0
            facts["size_inequality"] = lower and upper
        else:
            bound = ratio * sum(k * k for k in ks[:-1])
            facts["size_inequality"] = cmp_int(kl * kl, bound) < 0

    q_product = basis.prime_product(1, ks[0])
    d = 1
    for i in range(1, l + 1):
        d *= partial(left, i) - partial(right, i)
    facts["product_divisibility"] = d % q_product == 0

    report.structure = facts
    return facts


def growth_bracket_check(prefix: SequencePrefix) -> list[dict]:
    """Per-block counting brackets and element rails.

    At x = W_(k+1) the count must sit between pi(edge(k)) minus exclusions
    and pi(edge(k+2)), and every block-k element must lie strictly between
    W_k q_k and W_(k+1). The log2 ratio column is a labeled float diagnostic,
    never asserted.
    """
    basis, params = prefix.basis, prefix.params
    out = []
    for k in range(params.k_min, prefix.k_max + 1):
        x = basis.weight(k + 1)
        count = count_upto(x, prefix)
        thr_lo = params.upper_edge(k)
        lower = prime_count(thr_lo) - sum(1 for r in prefix.excluded if r.p <= thr_lo)
        upper = prime_count(params.upper_edge(k + 2))
        elems = prefix.block_elements(k)
        rail_lo = basis.weight(k) * basis.norm(k)
        rail_hi = basis.weight(k + 1)
        out.append({
            "k": k,
            "x": str(x),
            "count": count,
            "lower": lower,
            "upper": upper,
            "count_ok": lower <= count <= upper,
            "elements_ok": all(rail_lo < e.value < rail_hi for e in elems),
            "log2_ratio_approx": (math.log2(count) / math.log2(x)) if count > 0 else None,
            "c_target_approx": float(params.c.eval()),
        })
    return out
