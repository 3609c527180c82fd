"""Exhaustive collision search, structural decomposition of collisions, and
the growth brackets for counting functions.

Collision search is exact, over the paper's sums a_1 + ... + a_l with
a_1 <= ... <= a_l. One numpy engine splits the l-multisets, for every l and
the B_h check, into buckets by their exact sum mod a small odd prime P:
equal sums have equal residues, so every repeated sum lies inside one
bucket. Each bucket in turn is written as keys (the sums mod 2^61 - 1, or
mod `modulus`) into a buffer sized to the largest bucket, sorted in place,
and only when keys repeat are those multisets regenerated and grouped by
exact big-integer sum. The buckets are filled and sorted on a pool of
WORKERS threads, one buffer each (numpy releases the GIL in those calls);
repeats are confirmed on the calling thread in bucket order. Memory is
WORKERS buckets, not all C(n + l - 1, l) keys. P starts at the least prime
from 11 up that leaves about BUCKET_KEYS multisets a bucket, and rises to
about 2 * WORKERS times that, so that the buffers together hold half of
BUCKET_KEYS, while a class keeps _MIN_CLASS values or more. Since values
that share a residue mod P share a bucket, P moves on to the next prime
while the bucket sizes, counted from the classes mod P before any key is
written, put more than twice an even share in one. P = 1 (one bucket, no
pool) when everything fits, and always with a modulus: equal sums mod the
modulus need not share a residue mod P. The pool runs only as many buffers
as fit beside the (l-1)-multiset tails in MAX_KEYS words. Above MAX_SUBSETS
multisets, or when one buffer and the tails would take more than MAX_KEYS
words, the engine raises AuditTooLarge before allocating any key, so the
verdict does not depend on the core count. Reports are sorted, so they
depend on neither P nor WORKERS. The brute-force enumeration is the tests'
oracle.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, islice
from math import comb

import mpmath
import numpy as np

from ._precision import PRECISION, cmp_int
from .arith import INTEGERS, is_prime, prime_count
from .basis import Basis
from .blocks import BlockParams
from .encoder import SidonElement
from .errors import ArityOutOfRange, AuditTooLarge, DigitOutOfRange, MissingDigits
from .generator import SequencePrefix, count_upto

# Work limit: the l-multisets the search enumerates. The sqrt5 k <= 8 pair audit
# has 2.15e10 of them, about 2^34.3.
MAX_SUBSETS = 1 << 35

# Memory limit, in 8-byte words held at once (2 GiB): a buffer the size of
# the largest bucket and its reduction scratch (up to _CHUNK words) for each
# bucket in flight, as many as fit, plus _TAIL_WORDS for each (l-1)-multiset
# tail: its sum, its rank, and an unsorted copy of the sums while they are
# built. With a modulus there is one bucket: at most about 2^28 multisets.
MAX_KEYS = 1 << 28
_TAIL_WORDS = 3

# P is first chosen so that a bucket holds about this many keys (32 MiB),
# then raised so that the WORKERS buffers hold about half as many together,
# and moved to the next prime, up to _PRIME_TRIES primes in all, while the
# largest bucket holds more than twice an even share.
BUCKET_KEYS = 1 << 22
_PRIME_TRIES = 16

# Buckets scanned at once, one thread and one buffer each.
try:
    WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # not on every platform
    WORKERS = os.cpu_count() or 1

# P rises for the pool only while a class keeps about this many values: at
# l = 2 a bucket is about P / 2 outer sums of two classes, 4k keys each at 64
# values a class. Past that, more buckets mostly add to the Python rect
# loops, which hold the GIL: O(P^2) at l = 2 and O(P n) at l = 3.
_MIN_CLASS = 64

# Least bucket prime. A construction's elements are units mod its first
# basis prime q_1, which is 3, 5 or 7, so at P = q_1 one class is empty and
# the largest bucket holds q_1 / (q_1 - 1) of an even share: on the sidon-k7
# prefix 28.6 MiB at P = 5 for a basis with q_1 = 5, 22.9 MiB for one
# without. From 11 up the buckets are even whatever q_1 a basis drew.
_MIN_BUCKET_PRIME = 11

# Pairs of multisets with one key, each a potential report: a small modulus
# gives O(C(n + l - 1, l)^2 / m) of them, far more than there are multisets.
MAX_REPORT_PAIRS = 1 << 20

_MERSENNE61 = (1 << 61) - 1

# Neighbour comparisons and reductions run over this many keys at a time.
_CHUNK = 1 << 16


def _value_of(e):
    return e.value if hasattr(e, "value") else int(e)


@dataclass
class CollisionReport:
    """Two element-disjoint l-multisets with equal sums (a side may repeat)."""

    l: int
    total: int
    left: tuple
    right: tuple

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
        return {"l": self.l, "sum": str(self.total),
                "left": side(self.left), "right": side(self.right)}


def _prepare(elements, l, modulus):
    """(items, vals), the elements and their values, once the arity, the
    modulus, the MAX_SUBSETS work limit and distinct values pass, in turn."""
    if l < 2:
        raise ArityOutOfRange(f"collision arity must be >= 2, got {l}")
    if modulus is not None and modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    items = list(elements)
    subsets = comb(len(items) + l - 1, l)
    if subsets > MAX_SUBSETS:
        raise AuditTooLarge(f"{subsets} {l}-multisets exceed the audit limit of "
                            f"{MAX_SUBSETS}")
    vals = [_value_of(e) for e in items]
    if len(set(vals)) != len(vals):
        raise ValueError("elements must be pairwise distinct")
    return items, vals


def _reduce(keys, m):
    """keys mod m in place, for keys below 2m."""
    if keys.dtype == object:
        np.subtract(keys, m, out=keys, where=keys >= m)
        return keys
    # In uint64 a key below m wraps to key + 2^64 - m, above the key itself,
    # so the smaller of key and key - m is the key mod m.
    scratch = np.empty(min(len(keys), _CHUNK), keys.dtype)
    for lo in range(0, len(keys), _CHUNK):
        run = keys[lo:lo + _CHUNK]
        np.minimum(run, np.subtract(run, m, out=scratch[:len(run)]), out=run)
    return keys


def _subset_sums(res, l, m):
    """Residues mod m of all l-multiset sums, in lexicographic order: for
    each head index i, the tails are the (l-1)-multisets whose smallest
    index is at least i, a suffix of the (l-1)-multiset sums."""
    if l == 1:
        return res
    n = len(res)
    tails = _subset_sums(res, l - 1, m)
    out = np.empty(comb(n + l - 1, l), res.dtype)
    pos = 0
    for i in range(n):
        width = comb(n - i + l - 2, l - 1)
        _reduce(np.add(tails[len(tails) - width:], res[i], out=out[pos:pos + width]), m)
        pos += width
    return out


def _repeated_keys(keys):
    """Sorted distinct keys that occur more than once. Sorts keys in place
    and compares neighbours a chunk at a time, so no comparison mask spans
    the whole array. The neighbour matches come out ascending, a key once
    per extra occurrence; keeping the first of each run leaves each key
    once, as np.unique would, without np.unique's import of numpy.ma."""
    keys.sort()
    found = [keys[:0]]
    for lo in range(0, len(keys), _CHUNK):
        run = keys[lo:lo + _CHUNK + 1]
        found.append(run[1:][run[1:] == run[:-1]])
    found = np.concatenate(found)
    return np.concatenate((found[:1], found[1:][found[1:] != found[:-1]]))


def _unrank(rank, n, l):
    """The rank-th l-multiset of range(n) in lexicographic order."""
    out = []
    i = 0
    while l:
        width = comb(n - i + l - 2, l - 1)  # multisets whose smallest index is i
        if rank < width:
            out.append(i)
            l -= 1
        else:
            rank -= width
            i += 1
    return tuple(out)


def _reports(items, vals, multisets, l, modulus):
    """The element-disjoint pairs among the index multisets that share a sum
    (mod `modulus`), as sorted reports. Groups the multisets by exact sum as
    they come, and raises AuditTooLarge, before building any report, once
    more than MAX_REPORT_PAIRS pairs of them share a sum."""
    groups: dict[int, list[tuple[int, ...]]] = defaultdict(list)
    pairs = 0
    for t in multisets:
        s = sum(vals[i] for i in t)
        group = groups[s if modulus is None else s % modulus]
        pairs += len(group)
        if pairs > MAX_REPORT_PAIRS:
            raise AuditTooLarge(f"more than {MAX_REPORT_PAIRS} pairs of {l}-multisets "
                                f"share a sum (the report limit)")
        group.append(t)
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


def _residues(vals, m):
    # Two keys below m add up to less than 2^64 while m <= 2^63.
    return np.fromiter((v % m for v in vals), np.uint64 if m <= 1 << 63 else object, len(vals))


def _next_prime(p):
    p += 1
    while not is_prime(p):
        p += 1
    return p


def _bucket_prime(n, l):
    """1 when the C(n + l - 1, l) keys fit one bucket. Else P, the least
    prime >= _MIN_BUCKET_PRIME with about BUCKET_KEYS keys a bucket, or the
    least prime from min(2 * WORKERS * P, n // _MIN_CLASS) up when that
    minimum exceeds P."""
    subsets = comb(n + l - 1, l)
    if subsets <= BUCKET_KEYS:
        return 1
    p = _next_prime(max(_MIN_BUCKET_PRIME, -(-subsets // BUCKET_KEYS)) - 1)
    split = min(2 * WORKERS * p, n // _MIN_CLASS)
    return _next_prime(split - 1) if split > p else p


def _bucket_sizes(counts, l):
    """l-multisets per bucket, by class sum mod P, from the number of
    elements in each class mod P."""
    p = len(counts)
    by_size = np.zeros((l + 1, p), np.int64)
    by_size[0, 0] = 1
    for a, c in enumerate(counts):
        if not c:
            continue
        before = by_size.copy()
        for j in range(1, l + 1):
            # ways to take j elements of class a; their classes add up to j * a
            by_size[j:] += np.roll(before[:l + 1 - j], j * a % p, axis=1) * comb(c + j - 1, j)
    return by_size[l]


def _in_order(scan, buckets, bufs):
    """(t, buf, scan(buf, t)) for each bucket t, in order. With one buffer
    the scans run inline. With more they run on a pool of one thread a
    buffer, so at most len(bufs) buckets are in flight; a buffer goes back
    to the pool only when the caller asks for the next bucket, so the caller
    may refill it first. Closing the generator, or an exception in a scan,
    cancels the pending scans and joins the pool."""
    if len(bufs) == 1:
        for t in buckets:
            yield t, bufs[0], scan(bufs[0], t)
        return
    from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(len(bufs))
    todo = iter(buckets)
    try:
        pending = deque((t, buf, pool.submit(scan, buf, t)) for buf, t in zip(bufs, todo))
        while pending:
            t, buf, job = pending.popleft()
            yield t, buf, job.result()
            pending.extend((t, buf, pool.submit(scan, buf, t)) for t in islice(todo, 1))
    finally:
        pool.shutdown(cancel_futures=True)


def _buffers_that_fit(largest, n_tails, l):
    """How many buffers of `largest` keys, each with its _reduce scratch,
    fit beside n_tails tails in MAX_KEYS words; AuditTooLarge if none does."""
    words = largest + min(largest, _CHUNK)
    room = MAX_KEYS - _TAIL_WORDS * n_tails
    if words > room:
        raise AuditTooLarge(f"{largest} {l}-multiset keys in one bucket and {n_tails} tails "
                            f"exceed the audit limit of {MAX_KEYS} words")
    return room // words


def check_one_bucket(n: int) -> None:
    """Raise AuditTooLarge when a pair audit of n values mod a modulus, which
    keeps all C(n + 1, 2) keys in one bucket, cannot fit in MAX_KEYS words:
    the check the engine makes, made before the values exist. Fewer than
    two values make no bucket, as in _candidates."""
    if n >= 2:
        _buffers_that_fit(comb(n + 1, 2), n, 2)


def _candidates(vals, l, modulus):
    """Index tuples of the l-multisets of vals whose key repeats in a bucket.

    The elements are put in class order (v mod P), and a multiset is a head
    index i plus a tail, an (l-1)-multiset whose smallest index is at least
    i. A tail is held as its residue sum and its lexicographic rank; the
    tails of smallest index i take the ranks from below[i] on. Sorted by
    (class sum mod P, rank), the tails matching head i in bucket t are one
    contiguous slice, and the heads of one class that lie at or below every
    index of a tail class take the whole class: one outer sum. At l = 2
    bucket t is then the outer sums of the classes a < b with a + b = t mod
    P, and the triangle of the class a with 2a = t mod P. Callers check
    MAX_SUBSETS and pass a value. Buckets run on min(WORKERS, non-empty
    buckets) buffers, as many as fit with their scratch beside the tails in
    MAX_KEYS words; if none fits, raises AuditTooLarge before any key exists.
    """
    n = len(vals)
    if n < 2:
        return  # no key repeats, and no values means no bucket for a pool
    n_tails = comb(n + l - 2, l - 1)
    if _TAIL_WORDS * n_tails > MAX_KEYS:  # whatever the bucket prime
        raise AuditTooLarge(f"{n_tails} {l - 1}-multiset tails exceed the audit limit of "
                            f"{MAX_KEYS} words")
    p = 1 if modulus is not None else _bucket_prime(n, l)
    even_share = -(-comb(n + l - 1, l) // p)
    for attempt in range(_PRIME_TRIES):
        cls = np.fromiter((v % p for v in vals), np.uint64, n)
        order = np.argsort(cls, kind="stable")
        cls = cls[order]
        start = np.searchsorted(cls, np.arange(p + 1)).tolist()
        sizes = _bucket_sizes(np.diff(start).tolist(), l)
        if p == 1 or sizes.max() <= 2 * even_share or attempt == _PRIME_TRIES - 1:
            break
        p = _next_prime(p)
    m = _MERSENNE61 if modulus is None else modulus
    largest = int(sizes.max())
    buckets = np.flatnonzero(sizes).tolist()
    n_bufs = min(WORKERS, len(buckets), _buffers_that_fit(largest, n_tails, l))
    order = order.tolist()
    res = _residues([vals[i] for i in order], m)

    tail_cls = _subset_sums(cls, l - 1, p)
    perm = np.argsort(tail_cls, kind="stable")
    ts = np.searchsorted(tail_cls, np.arange(p + 1), sorter=perm).tolist()
    del tail_cls
    tails = _subset_sums(res, l - 1, m)[perm]
    below = np.cumsum([0] + [comb(n - i + l - 3, l - 2) for i in range(n)], dtype=np.int64)
    ends = perm[np.clip([ts[:-1], np.subtract(ts[1:], 1)], 0, len(perm) - 1)]
    first, last = (np.searchsorted(below, ends, "right") - 1).tolist()

    def rects(t):
        """(h0, h1, lo, hi): heads h0..h1-1 with the tails at lo..hi-1."""
        for a in range(p):
            h0, h1 = start[a], start[a + 1]
            c = (t - a) % p
            t0, t1 = ts[c], ts[c + 1]
            if h0 == h1 or t0 == t1:
                continue
            if first[c] >= h1 - 1:
                yield h0, h1, t0, t1
            elif last[c] >= h0:
                los = np.searchsorted(perm[t0:t1], below[h0:h1])
                for h, lo in zip(range(h0, h1), (los + t0).tolist()):
                    if lo < t1:
                        yield h, h + 1, lo, t1

    def fill(buf, parts):
        pos = 0
        for h0, h1, lo, hi in parts:
            size = (h1 - h0) * (hi - lo)
            np.add.outer(res[h0:h1], tails[lo:hi], out=buf[pos:pos + size].reshape(h1 - h0, -1))
            pos += size
        return _reduce(buf[:pos], m)

    def scan(buf, t):
        return _repeated_keys(fill(buf, rects(t)))

    bufs = [np.empty(largest, res.dtype) for _ in range(n_bufs)]
    for t, buf, repeated in _in_order(scan, buckets, bufs):
        if not len(repeated):
            continue
        for h0, h1, lo, hi in rects(t):
            keys = fill(buf, [(h0, h1, lo, hi)])
            slot = np.minimum(np.searchsorted(repeated, keys), len(repeated) - 1)
            for off in np.flatnonzero(repeated[slot] == keys).tolist():
                h, tail = divmod(off, hi - lo)
                subset = (h0 + h, *_unrank(int(perm[lo + tail]), n, l - 1))
                yield tuple(order[i] for i in subset)


def is_bh(values, h: int, modulus: int | None = None) -> bool:
    """Whether the sums a_1 + ... + a_h (a_1 <= ... <= a_h) of the distinct
    values differ, as integers or mod `modulus`; 2a = b + c is a repeat at
    h = 2. One run at h covers every lower order: one element added to both
    sides of a repeat among (h-1)-multisets makes a repeat among
    h-multisets. Raises AuditTooLarge as find_collisions does.
    """
    _, vals = _prepare(values, h, modulus)
    seen = set()
    for t in _candidates(vals, h, modulus):
        s = sum(vals[i] for i in t)
        s = s if modulus is None else s % modulus
        if s in seen:
            return False
        seen.add(s)
    return True


def is_sidon(values, modulus: int | None = None) -> bool:
    """is_bh at h = 2: the sums a + b (a <= b) are pairwise distinct."""
    return is_bh(values, 2, modulus)


def find_collisions(elements, l: int, modulus: int | None = None) -> list[CollisionReport]:
    """All unordered pairs of element-disjoint l-multisets with equal sums.

    A side may repeat an element, but the two sides share none, so
    [0, 1, 2, 3] at l = 2 carries three collisions: 0+2 = 1+1, 0+3 = 1+2
    and 1+3 = 2+2. With `modulus` the sums are compared mod it. Raises
    AuditTooLarge, before allocating any key, above MAX_SUBSETS l-multisets
    or MAX_KEYS words, and before building any report when more than
    MAX_REPORT_PAIRS pairs of multisets share a sum.
    """
    items, vals = _prepare(elements, l, modulus)
    return _reports(items, vals, _candidates(vals, l, modulus), l, modulus)


def find_collisions_bruteforce(elements, l: int, modulus: int | None = None) -> list[CollisionReport]:
    """Reference implementation: every l-multiset, enumerated directly,
    through find_collisions' report builder."""
    items, vals = _prepare(elements, l, modulus)
    return _reports(items, vals, combinations_with_replacement(range(len(vals)), l), l, modulus)


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
        c = params.c
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
    return facts


def growth_bracket_check(prefix: SequencePrefix) -> list[dict]:
    """Per-block counting brackets and element rails.

    At x = W_(k+1) the count must sit between pi(edge(k)) minus exclusions
    and pi(edge(k+2)), and every block-k element must lie strictly between
    W_k q_k and W_(k+1). The log2 ratio column is a labeled float diagnostic,
    never asserted. The brackets count primes, so a basis over another ring
    than Z raises ValueError.
    """
    basis, params = prefix.basis, prefix.params
    if basis.ring is not INTEGERS:
        raise ValueError(f"growth brackets need a basis over Z, not {type(basis.ring).__name__}")
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
            "c_target_approx": float(params.c),
        })
    return out
