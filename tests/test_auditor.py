import os
import random
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from itertools import combinations_with_replacement
from math import comb
from pathlib import Path

import numpy as np
import pytest

from dlogsidon import auditor
from dlogsidon.auditor import (
    MAX_KEYS,
    MAX_SUBSETS,
    CollisionReport,
    check_collision_structure,
    check_one_bucket,
    find_collisions,
    find_collisions_bruteforce,
    growth_bracket_check,
    is_bh,
    is_sidon,
)
from dlogsidon.blocks import const_decimal, sidon_params
from dlogsidon.encoder import SidonElement
from dlogsidon.errors import ArityOutOfRange, AuditTooLarge, DigitOutOfRange, MissingDigits
from dlogsidon.generator import generate_blocks
from dlogsidon.gf2x import gf2_generate_blocks

from oracles import (cyclic_sidon, disjoint_report_keys, double_equals_pair_sum, is_bh_list,
                     is_sidon_list)

M61 = (1 << 61) - 1


def report_keys(reports):
    return [r.key() for r in reports]


def shifted(l, base, rows):
    """Report keys for the values base + x, from (offset of the sum, left
    offsets, right offsets) rows."""
    return [(l, l * base + s, tuple(base + x for x in left), tuple(base + x for x in right))
            for s, left, right in rows]


def test_textbook_pair_collisions():
    reports = find_collisions([1, 2, 3, 4], 2)
    assert report_keys(reports) == [(2, 4, (3, 1), (2, 2)), (2, 5, (4, 1), (3, 2)),
                                    (2, 6, (4, 2), (3, 3))]

    reports = find_collisions([0, 1, 2, 3], 2)
    assert report_keys(reports) == [(2, 2, (2, 0), (1, 1)), (2, 3, (3, 0), (2, 1)),
                                    (2, 4, (3, 1), (2, 2))]

    obj = reports[0].to_json_obj()
    assert obj == {"l": 2, "sum": "2", "left": ["2", "0"], "right": ["1", "1"]}


def test_sides_hold_distinct_elements():
    # A side may repeat an element: 0+2 equals 1+1.
    assert report_keys(find_collisions([0, 1, 2], 2)) == [(2, 2, (2, 0), (1, 1))]
    assert report_keys(find_collisions_bruteforce([0, 1, 2], 2)) == [(2, 2, (2, 0), (1, 1))]
    # ... but the two sides share no element: 1+1+2 = 0+2+2 shares 2, so
    # [0, 1, 2] has no report at l = 3.
    assert find_collisions([0, 1, 2], 3) == []
    reports = find_collisions([0, 1, 2, 3, 4], 2)
    totals = [r.total for r in reports]
    assert totals == sorted(totals)
    assert (2, 4, (4, 0), (3, 1)) in report_keys(reports)


@pytest.mark.parametrize("l,n_lo,n_hi,span",
                         [(2, 25, 80, 3), (3, 18, 36, 25), (4, 10, 16, 40)])
def test_methods_agree_with_oracle(l, n_lo, n_hi, span):
    # Dense random sets carry many natural collisions.
    rng = random.Random(4000 + l)
    for _ in range(5):
        n = rng.randrange(n_lo, n_hi)
        vals = rng.sample(range(span * n), n)
        expected = disjoint_report_keys(vals, l)
        assert expected
        assert report_keys(find_collisions(vals, l)) == expected
        assert report_keys(find_collisions_bruteforce(vals, l)) == expected


@pytest.mark.parametrize("l", [2, 3, 4])
def test_engine_finds_planted_collision(l):
    # Random values above 2^200 are collision-free; plant one equal-sum pair of
    # disjoint l-subsets by adjusting one element.
    rng = random.Random(5000 + l)
    for _ in range(3):
        vals = [(1 << 201) + rng.getrandbits(190) for _ in range(3 * l + 4)]
        vals[2 * l - 1] += sum(vals[:l]) - sum(vals[l:2 * l])
        sides = sorted((tuple(sorted(vals[:l], reverse=True)),
                        tuple(sorted(vals[l:2 * l], reverse=True))), reverse=True)
        planted = (l, sum(vals[:l]), *sides)
        rng.shuffle(vals)
        assert report_keys(find_collisions(vals, l)) == [planted]
        assert report_keys(find_collisions_bruteforce(vals, l)) == [planted]


def test_engine_big_values_and_wraparound():
    # Values far above 61 bits; the residue keys must still confirm the
    # planted collision exactly.
    base = 1 << 200
    vals = [base + 1, base + 4, base + 2, base + 3, base + 9]
    expected = shifted(2, base, [(4, (3, 1), (2, 2)), (5, (4, 1), (3, 2)), (6, (4, 2), (3, 3))])
    assert report_keys(find_collisions(vals, 2)) == expected
    assert report_keys(find_collisions_bruteforce(vals, 2)) == expected
    vals = [base + 1, base + 2, base + 9, base + 3, base + 4, base + 5]
    expected = shifted(3, base, [
        (6, (4, 1, 1), (2, 2, 2)), (7, (5, 1, 1), (3, 2, 2)), (9, (4, 4, 1), (3, 3, 3)),
        (9, (5, 2, 2), (3, 3, 3)), (9, (5, 2, 2), (4, 4, 1)), (11, (5, 5, 1), (4, 4, 3)),
        (11, (9, 1, 1), (4, 4, 3)), (11, (9, 1, 1), (5, 3, 3)), (11, (9, 1, 1), (5, 4, 2)),
        (12, (5, 5, 2), (4, 4, 4)), (12, (9, 2, 1), (4, 4, 4)), (12, (9, 2, 1), (5, 4, 3)),
        (13, (9, 2, 2), (5, 4, 4)), (13, (9, 2, 2), (5, 5, 3)), (13, (9, 3, 1), (5, 4, 4)),
        (14, (9, 3, 2), (5, 5, 4)), (15, (9, 3, 3), (5, 5, 5)), (15, (9, 4, 2), (5, 5, 5)),
    ])
    assert report_keys(find_collisions(vals, 3)) == expected
    assert report_keys(find_collisions_bruteforce(vals, 3)) == expected

    # Residue sums that wrap past the Mersenne modulus still group
    # correctly, at the top level and inside the (l-1)-subset sums.
    vals = [M61 - 1, 3, M61 - 2, 4]
    reports = find_collisions(vals, 2)
    assert report_keys(reports) == [(2, M61 + 2, (M61 - 1, 3), (M61 - 2, 4))]
    vals = [M61 - 1, M61 - 2, 10, M61 - 3, M61 - 4, 14]
    reports = find_collisions(vals, 3)
    assert report_keys(reports) == report_keys(find_collisions_bruteforce(vals, 3))
    assert (3, 2 * M61 + 7, (M61 - 1, M61 - 2, 10), (M61 - 3, M61 - 4, 14)) \
        in report_keys(reports)

    # Equal residues with unequal exact sums must not be reported.
    vals = [M61 + 5, 10, 7, 8]
    assert find_collisions(vals, 2) == []
    assert find_collisions_bruteforce(vals, 2) == []
    vals = [M61 + 5, 1, 6, 2, 3, 7]
    expected = [(3, 8, (6, 1, 1), (3, 3, 2)), (3, 9, (6, 2, 1), (3, 3, 3)),
                (3, 9, (7, 1, 1), (3, 3, 3)), (3, 13, (7, 3, 3), (6, 6, 1)),
                (3, 15, (7, 7, 1), (6, 6, 3))]
    assert report_keys(find_collisions(vals, 3)) == expected
    assert report_keys(find_collisions_bruteforce(vals, 3)) == expected


def test_modular_collision_search():
    for mod, l, n in ((3, 2, 20), (3, 3, 12), (97, 2, 60), (97, 3, 24),
                      (1009, 2, 60), (1009, 4, 14)):
        rng = random.Random(71 + l)
        vals = rng.sample(range(10_000), n)
        reports = find_collisions(vals, l, modulus=mod)
        assert report_keys(reports) == disjoint_report_keys(vals, l, mod)
        assert report_keys(find_collisions_bruteforce(vals, l, modulus=mod)) == report_keys(reports)
        for r in reports:
            assert 0 <= r.total < mod
            assert (sum(r.left_values()) - sum(r.right_values())) % mod == 0
        # modular grouping really differs from exact grouping
        exact_keys = {(lv, rv) for _, _, lv, rv in disjoint_report_keys(vals, l)}
        assert any((r.left_values(), r.right_values()) not in exact_keys for r in reports)


def test_moduli_near_and_beyond_uint64():
    # Below 2^64 two keys can overflow uint64 once m > 2^63; above 2^64 the
    # keys take the object-dtype route through the same engine. Values
    # straddle the modulus so the residue sums wrap.
    rng = random.Random(72)
    for mod in ((1 << 64) - 59, (1 << 64) + 13):
        vals = sorted({rng.randrange(mod - 2000, mod + 2000) for _ in range(40)})
        vals += [v % mod + 3 * mod for v in vals[:4]]
        for l in (2, 3):
            expected = disjoint_report_keys(vals, l, mod)
            assert expected
            assert report_keys(find_collisions(vals, l, modulus=mod)) == expected
            assert report_keys(find_collisions_bruteforce(vals, l, modulus=mod)) == expected


def test_search_validation():
    with pytest.raises(ArityOutOfRange):
        find_collisions([1, 2, 3], 1)
    with pytest.raises(ArityOutOfRange):
        find_collisions_bruteforce([1, 2, 3], 0)
    with pytest.raises(ValueError):
        find_collisions([1, 2, 2, 3], 2)
    with pytest.raises(ValueError):
        find_collisions([1, 2, 3, 4], 2, modulus=0)
    assert report_keys(find_collisions([1, 2, 3], 4)) == [(4, 8, (3, 3, 1, 1), (2, 2, 2, 2))]
    with pytest.raises(AuditTooLarge, match="audit limit"):
        find_collisions(range(40), 35)  # C(74, 35) 35-multisets


def test_audit_limit_raises_before_allocating():
    # The sqrt5 k <= 8 pair audit is within the work limit; a pair audit and
    # an l = 4 audit beyond it refuse, and so do an l = 4 audit whose tails
    # exceed the memory limit and a modulus audit, which has one bucket, of
    # more keys than the memory limit.
    assert comb(207_214, 2) <= MAX_SUBSETS < comb(262_145, 2)
    assert comb(900, 4) <= MAX_SUBSETS < comb(1_000, 4)
    assert comb(23_200, 2) > MAX_KEYS
    wide = list(range(262_145))
    tracemalloc.start()
    try:
        with pytest.raises(AuditTooLarge, match="audit limit"):
            find_collisions(wide, 2)
        with pytest.raises(AuditTooLarge, match="audit limit"):
            find_collisions(range(1_000), 4)
        with pytest.raises(AuditTooLarge, match="tails exceed"):
            find_collisions(range(900), 4)
        with pytest.raises(AuditTooLarge, match="in one bucket"):
            find_collisions(range(23_200), 2, modulus=1 << 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_dense_pair_audit_holds_one_bucket(sqrt2_prefix_k7):
    # 1.09e8 pairs: all their keys at once take 830 MiB, one bucket about 32.
    elements = sqrt2_prefix_k7.elements
    assert comb(len(elements), 2) == 108_906_661
    tracemalloc.start()
    try:
        assert find_collisions(elements, 2) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 << 20


def use_prime(monkeypatch, p):
    """Make the engine split the multisets by their sum mod p."""
    monkeypatch.setattr(auditor, "_bucket_prime", lambda n, l: p)


def test_bucket_prime_from_the_count(monkeypatch):
    # One bucket up to BUCKET_KEYS keys. Above, the least prime P >= 11 with
    # about BUCKET_KEYS keys a bucket, raised to the least prime from
    # 2 * WORKERS * P up while a class keeps 64 values or more: sidon-k7
    # 11 -> 47 and prune-k7 29 -> 127 on two workers. The sqrt5 k <= 8 pair
    # audit (40 values a class at 5,119) and the B_3 k <= 13 audit keep P.
    monkeypatch.setattr(auditor, "WORKERS", 2)
    assert auditor.BUCKET_KEYS == 1 << 22
    assert comb(2_896, 2) <= 1 << 22 < comb(2_897, 2)
    assert auditor._bucket_prime(2_895, 2) == 1
    assert auditor._bucket_prime(2_896, 2) == 47
    assert auditor._bucket_prime(5_477, 2) == 47
    assert auditor._bucket_prime(14_759, 2) == 127
    assert auditor._bucket_prime(207_214, 2) == 5_119
    assert auditor._bucket_prime(3_473, 3) == 1_667
    # One worker halves the bucket; four stop where a class keeps 64 values.
    monkeypatch.setattr(auditor, "WORKERS", 1)
    assert auditor._bucket_prime(14_759, 2) == 59
    monkeypatch.setattr(auditor, "WORKERS", 4)
    assert auditor._bucket_prime(14_759, 2) == 233
    assert auditor._bucket_prime(207_214, 2) == 5_119


def test_skewed_classes_move_the_bucket_prime(monkeypatch):
    # 5,000 values give C(5001, 2) = 1.25e7 pairs, so two workers start at
    # P = 47; when every value is a multiple of 47 they all share one class
    # and one bucket would hold every key (about 96 MiB a buffer). The
    # largest bucket is compared with twice an even share at P = 47, so the
    # engine moves on to P = 53, where it is about 1.9 MiB.
    monkeypatch.setattr(auditor, "WORKERS", 2)
    rng = random.Random(9100)
    vals = [47 * rng.getrandbits(100) for _ in range(5_000)]
    assert auditor._bucket_prime(len(vals), 2) == 47
    primes = []
    bucket_sizes = auditor._bucket_sizes
    monkeypatch.setattr(auditor, "_bucket_sizes", lambda counts, l: (
        primes.append(len(counts)) or bucket_sizes(counts, l)))
    tracemalloc.start()
    try:
        assert find_collisions(vals, 2) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert primes == [47, 53]
    assert peak < 16 << 20


def big_values(n, rng):
    """n values near 2^200, collision-free at every small l."""
    return [(1 << 200) + rng.getrandbits(190) for _ in range(n)]


def planted_over_buckets(l, p, buckets, seed):
    """12 big values plus one planted value for each of `buckets` residues
    t mod p: v = (l base values) - (l - 1 others), so a sum = t mod p
    repeats."""
    rng = random.Random(seed)
    base = big_values(12, rng)
    vals = list(base)
    planted = {}
    while len(planted) < buckets:
        left = rng.choices(base, k=l)
        total = sum(left)
        if total % p in planted:
            continue
        rest = rng.sample([b for b in base if b not in left], l - 1)
        planted[total % p] = total - sum(rest)
    return vals + list(planted.values())


@pytest.mark.parametrize("workers", [1, 2, 8])
@pytest.mark.parametrize("l", [2, 3, 4])
def test_pool_agrees_with_oracle(monkeypatch, workers, l):
    # Eight workers with a short switch interval stress the hand-over of
    # each buffer between a worker and the confirming thread.
    p = 23
    vals = planted_over_buckets(l, p, 20, seed=8800 + l)
    expected = find_collisions_bruteforce(vals, l)
    assert len({r.total % p for r in expected}) >= 20
    monkeypatch.setattr(auditor, "WORKERS", workers)
    use_prime(monkeypatch, p)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert report_keys(find_collisions(vals, l)) == report_keys(expected)
        assert not is_bh(vals, l)
        assert is_bh(vals[:12], l)
    finally:
        sys.setswitchinterval(interval)
    assert not is_bh_list(vals, l) and is_bh_list(vals[:12], l)


def first_bucket_repeat(p, n, seed):
    """n big values, then a + b = c + d with a + b = 0 mod p: the one
    repeated pair sum lies in bucket 0."""
    rng = random.Random(seed)
    a, b, c = big_values(3, rng)
    b += -(a + b) % p
    return big_values(n, rng) + [a, b, c, a + b - c]


def test_pool_stops_at_the_first_repeat(monkeypatch):
    p = 53
    vals = first_bucket_repeat(p, 120, seed=8900)
    counts = [sum(1 for v in vals if v % p == a) for a in range(p)]
    assert (auditor._bucket_sizes(counts, 2) > 0).sum() >= 50
    use_prime(monkeypatch, p)
    scanned = []
    repeated_keys = auditor._repeated_keys
    monkeypatch.setattr(auditor, "_repeated_keys", lambda keys: (
        scanned.append(len(keys)) or repeated_keys(keys)))
    for workers in (2, 4):
        monkeypatch.setattr(auditor, "WORKERS", workers)
        scanned.clear()
        threads = threading.active_count()
        assert not is_bh(vals, 2)
        assert threading.active_count() == threads
        assert 1 <= len(scanned) <= workers + 1


def test_pool_surfaces_a_worker_error(monkeypatch):
    p = 53
    vals = big_values(120, random.Random(8901))
    use_prime(monkeypatch, p)
    monkeypatch.setattr(auditor, "WORKERS", 2)
    err = RuntimeError("bucket scan failed")
    calls = []
    repeated_keys = auditor._repeated_keys

    def failing(keys):
        calls.append(1)
        if len(calls) == 5:
            raise err
        return repeated_keys(keys)

    monkeypatch.setattr(auditor, "_repeated_keys", failing)
    threads = threading.active_count()
    for search in (is_bh, find_collisions):
        calls.clear()
        with pytest.raises(RuntimeError) as info:
            search(vals, 2)
        assert info.value is err
        assert threading.active_count() == threads
        assert len(calls) <= 6  # the failed scan and one more in flight


def test_repeated_keys_match_np_unique():
    # Planted copies make pairs, triples and longer runs, some of them across
    # a chunk boundary once sorted; np.unique with counts is the oracle.
    c = auditor._CHUNK
    rng = np.random.default_rng(4321)
    for dtype in (np.uint64, np.int64):
        for n in (0, 1, 2, 7, c, c + 2, 3 * c + 5):
            keys = rng.permutation(n).astype(dtype) * 7
            if n > 2:
                keys[rng.integers(0, n, n // 3)] = keys[rng.integers(0, n, n // 3)]
            values, counts = np.unique(keys, return_counts=True)
            got = auditor._repeated_keys(keys.copy())
            assert got.dtype == keys.dtype
            assert np.array_equal(got, values[counts > 1]), (dtype, n)


def test_an_audit_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call, about 13 ms of a cold
    # CLI audit; the audit must not need it.
    src = str(Path(auditor.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def run(code):
        out = subprocess.run([sys.executable, "-c", "import sys\n" + code
                              + "\nprint('numpy.ma' in sys.modules)"],
                             capture_output=True, text=True, env=env, timeout=120)
        assert out.returncode == 0, out.stderr
        return out.stdout.split()[-1]

    if run("import numpy") == "True":
        pytest.skip("import numpy already loads numpy.ma (numpy 1.x)")
    audit = ("from dlogsidon.auditor import find_collisions\n"
             "assert len(find_collisions([1, 2, 3, 4, 10, 20, 40], 2)) == 3")
    assert run(audit) == "False"


def count_buffers(monkeypatch):
    """The number of key buffers handed to the pool, one entry per audit."""
    seen = []
    in_order = auditor._in_order
    monkeypatch.setattr(auditor, "_in_order", lambda scan, buckets, bufs: (
        seen.append(len(bufs)) or in_order(scan, buckets, bufs)))
    return seen


def buffer_words(largest):
    """A buffer of the largest bucket and its reduction scratch."""
    return largest + min(largest, auditor._CHUNK)


def first_bucket_only(monkeypatch):
    """Scan only the first bucket; returns the words of each key buffer
    handed to the pool, with its reduction scratch."""
    words = []
    in_order = auditor._in_order

    def first(scan, buckets, bufs):
        words.extend(buffer_words(len(buf)) for buf in bufs)
        return in_order(scan, buckets[:1], bufs)

    monkeypatch.setattr(auditor, "_in_order", first)
    return words


def test_tails_take_three_words(monkeypatch):
    # An l = 3 audit of 300 values has C(301, 2) = 45,150 tails. Small
    # buckets (P = 557) keep one buffer and its scratch below one word a
    # tail, so the peak shows the tails' words: sum, rank and the unsorted
    # sums while they are built. A fourth word a tail (361 KB) breaks it.
    rng = random.Random(9160)
    vals = big_values(300, rng)
    n_tails = comb(len(vals) + 1, 2)
    monkeypatch.setattr(auditor, "WORKERS", 1)
    monkeypatch.setattr(auditor, "BUCKET_KEYS", 1 << 13)
    assert auditor._bucket_prime(len(vals), 3) == 557
    words = first_bucket_only(monkeypatch)
    assert is_bh(vals, 3)  # warms up numpy's first calls
    tracemalloc.start()
    try:
        assert is_bh(vals, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(words) == 2 and words[1] < n_tails
    assert peak < 8 * (3 * n_tails + words[1]) + (64 << 10)


@pytest.mark.slow
def test_b4_shape_tails_take_three_words(monkeypatch):
    # The shape of a B_4 audit at k <= 14: 642 values of 252 bits, l = 4,
    # C(644, 3) = 4.43e7 tails and P = 1,709. The setup and one bucket hold
    # 3 words a tail plus the buffers (about 1.1 GB); 4 words a tail would
    # add 338 MiB.
    rng = random.Random(14)
    vals = [(1 << 251) | rng.getrandbits(251) for _ in range(642)]
    n_tails = comb(644, 3)
    assert auditor._bucket_prime(len(vals), 4) == 1_709
    words = first_bucket_only(monkeypatch)
    tracemalloc.start()
    try:
        assert is_bh(vals, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * n_tails + 8 * sum(words) + (64 << 20)


def test_memory_limit_counts_every_buffer(monkeypatch):
    # MAX_KEYS fits the tails and one buffer of the largest bucket with its
    # scratch, not two: one worker or two run the audit on that one buffer,
    # inline, so both peak alike; a limit with room for the buffer but not
    # its scratch refuses before allocating a key.
    p = 5
    vals = list(range(0, 4 * 400, 4))
    counts = [sum(1 for v in vals if v % p == a) for a in range(p)]
    largest = int(auditor._bucket_sizes(counts, 2).max())
    tails = auditor._TAIL_WORDS * len(vals)
    use_prime(monkeypatch, p)
    buffers = count_buffers(monkeypatch)
    monkeypatch.setattr(auditor, "MAX_KEYS", buffer_words(largest) * 3 // 2 + tails)
    peaks = []
    for workers in (1, 1, 2):
        monkeypatch.setattr(auditor, "WORKERS", workers)
        tracemalloc.start()
        try:
            assert not is_sidon(vals)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert buffers == [1, 1, 1]
    assert peaks[2] <= peaks[1]  # the first run also warms up
    assert buffer_words(largest) - 1 >= largest
    monkeypatch.setattr(auditor, "MAX_KEYS", buffer_words(largest) - 1 + tails)
    tracemalloc.start()
    try:
        with pytest.raises(AuditTooLarge, match="in one bucket"):
            is_sidon(vals)
        with pytest.raises(AuditTooLarge, match="in one bucket"):
            find_collisions(vals, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert buffers == [1, 1, 1]


def test_many_workers_run_the_buffers_that_fit(monkeypatch):
    # 64 workers and a MAX_KEYS with room for two buffers and their scratch
    # beside the tails: the audit runs on two buffers, matches the oracle,
    # and peaks at about two buffers, each with a reduction scratch of as
    # many keys (below 2^16), where all seven buckets run at once with room
    # for them.
    p = 7
    vals = planted_over_buckets(2, p, 5, seed=9100) + big_values(590, random.Random(9101))
    expected = find_collisions_bruteforce(vals, 2)
    assert len({r.total % p for r in expected}) == 5
    counts = [sum(1 for v in vals if v % p == a) for a in range(p)]
    largest = int(auditor._bucket_sizes(counts, 2).max())
    assert largest < 1 << 16
    use_prime(monkeypatch, p)
    buffers = count_buffers(monkeypatch)
    monkeypatch.setattr(auditor, "WORKERS", 64)
    assert not is_sidon(vals)
    monkeypatch.setattr(auditor, "MAX_KEYS",
                        5 * buffer_words(largest) // 2 + auditor._TAIL_WORDS * len(vals))
    tracemalloc.start()
    try:
        assert report_keys(find_collisions(vals, 2)) == report_keys(expected)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert buffers == [7, 2]
    assert 2 * 8 * largest < peak < 2 * 16 * largest + (256 << 10)


def report_objs(reports):
    return [r.to_json_obj() for r in reports]


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("l,n,span", [(2, 40, 3), (3, 16, 20), (4, 11, 40)])
def test_buckets_agree_with_oracle(monkeypatch, p, l, n, span):
    rng = random.Random(6000 + 10 * l + p)
    for _ in range(4):
        vals = rng.sample(range(span * n), n)
        expected = find_collisions_bruteforce(vals, l)
        assert expected
        one_bucket = find_collisions(vals, l)
        use_prime(monkeypatch, p)
        reports = find_collisions(vals, l)
        monkeypatch.undo()
        assert report_keys(reports) == report_keys(expected)
        assert report_objs(reports) == report_objs(one_bucket)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("l", [2, 3, 4])
def test_buckets_planted_and_empty_classes(monkeypatch, p, l):
    # Values above 2^200 are collision-free. Plant one collision whose 2l
    # elements share one class mod p (at l = 2 both sides lie in the
    # triangle of the class a with 2a = t mod p), then one spread over the
    # classes; the fillers all sit in class 1, so classes stay empty.
    rng = random.Random(7000 + 10 * l + p)

    def big(residue):
        return ((1 << 201) + rng.getrandbits(190)) // p * p + residue

    for spread in (False, True):
        vals = [big(i % p if spread else 2) for i in range(2 * l)]
        vals[-1] += sum(vals[:l]) - sum(vals[l:])
        sides = sorted((tuple(sorted(vals[:l], reverse=True)),
                        tuple(sorted(vals[l:], reverse=True))), reverse=True)
        planted = (l, sum(vals[:l]), *sides)
        vals += [big(1) for _ in range(l)]
        rng.shuffle(vals)
        use_prime(monkeypatch, p)
        assert report_keys(find_collisions(vals, l)) == [planted]
        monkeypatch.undo()
        assert report_keys(find_collisions_bruteforce(vals, l)) == [planted]
    # Every value in class 0: one bucket holds every subset, the others none.
    vals = [v * p for v in range(1, 3 * l + 3)]
    use_prime(monkeypatch, p)
    assert report_keys(find_collisions(vals, l)) == disjoint_report_keys(vals, l)


@pytest.mark.parametrize("l,n", [(2, 9), (3, 8), (4, 9)])
def test_bucket_sizes_count_every_subset(l, n):
    rng = random.Random(8000 + n)
    for p in (1, 3, 5, 7):
        classes = [rng.randrange(p) for _ in range(n)]
        expected = Counter(sum(t) % p for t in combinations_with_replacement(classes, l))
        sizes = auditor._bucket_sizes([classes.count(a) for a in range(p)], l)
        assert sizes.tolist() == [expected[t] for t in range(p)]


def test_sidon_mod_matches_oracle(seed=4243):
    rng = random.Random(seed)
    verdicts = Counter()
    for _ in range(400):
        m = rng.choice([rng.randrange(1, 60), rng.randrange(1, 5000), (1 << 64) - 59,
                        (1 << 64) + 13])
        vals = sorted({rng.randrange(m) for _ in range(rng.randrange(12))})
        got = is_sidon(vals, m)
        assert got == cyclic_sidon(vals, m), (vals, m)
        verdicts[got] += 1
    assert verdicts[True] > 50 and verdicts[False] > 50


def test_sidon_mod_planted_and_small_cases():
    assert not cyclic_sidon([0, 5], 10) and not is_sidon([0, 5], 10)  # 0 + 0 = 5 + 5
    assert not cyclic_sidon([1, 3, 5], 100) and not is_sidon([1, 3, 5], 100)  # 3 + 3 = 1 + 5
    assert is_sidon([1, 3, 6], 100)
    assert is_sidon([], 7) and is_sidon([4], 7)
    assert is_sidon([]) and is_sidon([4]) and not is_sidon([1, 3, 5])
    with pytest.raises(ValueError):
        is_sidon([1, 2], 0)
    with pytest.raises(ValueError):
        is_sidon([1, 2, 2])


@pytest.mark.parametrize("p", [1, 3, 5, 7])
def test_sidon_agrees_with_oracle(monkeypatch, p):
    # Random sets: pair repeats, doubled values 2a = b + c, and neither.
    rng = random.Random(9000 + p)
    verdicts = Counter()
    for _ in range(300):
        base = rng.choice([0, 1 << 210])
        vals = [base + v for v in rng.sample(range(rng.choice([60, 400])), rng.randrange(2, 14))]
        expected = is_sidon_list(vals)
        doubled = double_equals_pair_sum(vals)
        reported = bool(disjoint_report_keys(vals, 2))
        assert expected == (not reported) and (reported or not doubled)
        if p > 1:
            use_prime(monkeypatch, p)
        assert is_sidon(vals) == expected, vals
        monkeypatch.undo()
        verdicts[expected, doubled] += 1
    assert verdicts[True, False] > 20 and verdicts[False, True] > 20
    # 2a = b + c above 2^200 with a, b, c in one class mod p: the doubled key
    # lands in the triangle bucket of that class, and only it repeats.
    a = ((1 << 201) + 12345) // 105 * 105
    vals = [a, a - 105_000, a + 105_000, (1 << 202) + 1, (1 << 203) + 2]
    assert double_equals_pair_sum(vals)
    assert disjoint_report_keys(vals, 2) == [(2, 2 * a, (a + 105_000, a - 105_000), (a, a))]
    if p > 1:
        use_prime(monkeypatch, p)
    assert not is_sidon(vals)
    assert is_sidon(vals[1:])


@pytest.mark.parametrize("p", [1, 3, 5, 7])
def test_bh_agrees_with_oracle(monkeypatch, p):
    # Random sets at h = 2, 3, 4, small or above 2^200, as integers and mod
    # 97 and 1009, with the bucket prime forced to p.
    rng = random.Random(9500 + p)
    verdicts = Counter()
    for _ in range(400):
        h = rng.choice([2, 3, 4])
        modulus = rng.choice([None, None, 97, 1009])
        base = rng.choice([0, 1 << 210])
        vals = [base + v for v in rng.sample(range(rng.choice([60, 400, 4000])),
                                             rng.randrange(2, 11))]
        expected = is_bh_list(vals, h, modulus)
        if p > 1:
            use_prime(monkeypatch, p)
        assert is_bh(vals, h, modulus) == expected, (vals, h, modulus)
        monkeypatch.undo()
        verdicts[expected] += 1
    assert verdicts[True] > 20 and verdicts[False] > 20


@pytest.mark.parametrize("p", [1, 3, 5, 7])
def test_planted_b3_counterexample(monkeypatch, p):
    # 8+8+49 = 17+17+31: every side repeats an element, and the pair sums
    # are distinct, so only the multiset audit at l = 3 sees it.
    vals = [8, 17, 29, 31, 32, 49]
    if p > 1:
        use_prime(monkeypatch, p)
    assert is_bh(vals, 2) and is_sidon(vals) and is_bh_list(vals, 2)
    assert not is_bh(vals, 3) and not is_bh_list(vals, 3)
    assert not is_bh(vals, 4) and not is_bh_list(vals, 4)
    reports = find_collisions(vals, 3)
    assert len(reports) == 5
    assert (reports[0].left_values(), reports[0].right_values()) == ((49, 8, 8), (31, 17, 17))
    assert report_keys(reports) == report_keys(find_collisions_bruteforce(vals, 3))
    assert report_keys(reports) == disjoint_report_keys(vals, 3)
    big = [(1 << 201) + v for v in vals]
    assert is_bh(big, 2) and not is_bh(big, 3)


def test_zero_and_one_values():
    for l in (2, 3, 4):
        for vals in ([], [5], [(1 << 201) + 5]):
            assert is_bh(vals, l) and is_bh(vals, l, 7)
            assert find_collisions(vals, l) == find_collisions(vals, l, 7) == []
            assert find_collisions_bruteforce(vals, l) == []
    # Two values: the sides l * a and l * b differ, but not always mod m.
    assert is_bh([0, 5], 3) and not is_bh([0, 5], 2, 10)
    assert find_collisions([0, 5], 2) == []
    assert report_keys(find_collisions([0, 5], 2, 10)) == [(2, 0, (5, 5), (0, 0))]


def test_sidon_mod_limit_raises_before_allocating():
    assert comb(23_201, 2) > MAX_KEYS
    assert comb(262_146, 2) > MAX_SUBSETS
    wide = list(range(262_145))
    tracemalloc.start()
    try:
        with pytest.raises(AuditTooLarge, match="in one bucket"):
            is_sidon(range(23_200), 1 << 40)
        with pytest.raises(AuditTooLarge, match="audit limit"):
            is_sidon(wide)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_one_bucket_check_agrees_with_the_audit(monkeypatch):
    # At MAX_KEYS = 4096 a modulus audit of 62 values fits: one bucket of
    # C(63, 2) = 1,953 keys, its scratch of as many and 3 words for each of
    # the 62 tails take 4,092 words. 63 values take 4,221. The check and the
    # audit agree on both sides of that boundary, and at the real limit it
    # lies at 23,164 values.
    assert 2 * comb(63, 2) + 3 * 62 <= 4096 < 2 * comb(64, 2) + 3 * 63
    monkeypatch.setattr(auditor, "MAX_KEYS", 4096)
    check_one_bucket(62)
    assert not is_sidon(range(62), 10_006)
    with pytest.raises(AuditTooLarge, match="in one bucket"):
        check_one_bucket(63)
    with pytest.raises(AuditTooLarge, match="in one bucket"):
        is_sidon(range(63), 10_006)
    monkeypatch.undo()
    # Fewer than two values make no bucket (the finite sets mod 2 and 3).
    assert check_one_bucket(0) is None and check_one_bucket(1) is None
    check_one_bucket(23_164)
    with pytest.raises(AuditTooLarge, match="in one bucket"):
        check_one_bucket(23_165)


def test_report_limit_bounds_the_output(monkeypatch):
    # The limit counts pairs of multisets sharing a sum: [0, 1, 2, 3] has three.
    for search in (find_collisions, find_collisions_bruteforce):
        monkeypatch.setattr(auditor, "MAX_REPORT_PAIRS", 3)
        assert len(search([0, 1, 2, 3], 2)) == 3
        monkeypatch.setattr(auditor, "MAX_REPORT_PAIRS", 2)
        with pytest.raises(AuditTooLarge, match="report limit"):
            search([0, 1, 2, 3], 2)
    monkeypatch.undo()
    # A small modulus puts about C(n + l - 1, l)^2 / m pairs of multisets on
    # equal keys: 400 values at l = 2 mod 3 give 1.1e9, far more than the
    # 80,200 multisets.
    # The engine stops confirming candidates as soon as the count passes the
    # limit (confirming them all first peaks above 6 MiB here and takes
    # seconds).
    tracemalloc.start()
    try:
        with pytest.raises(AuditTooLarge, match="report limit"):
            find_collisions(range(400), 2, modulus=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@pytest.fixture(scope="module")
def dense_fixture(request):
    from dlogsidon.basis import Basis
    entries = [(11, 2), (13, 2), (3, 2), (5, 2)]
    basis = Basis(4, entries)
    params = sidon_params(c=const_decimal("0.45"), offset=1)
    prefix = generate_blocks(4, params, basis)
    return basis, params, prefix


def test_structure_facts_on_dense_prefix(dense_fixture):
    basis, params, prefix = dense_fixture
    reports = find_collisions(prefix.elements, 2)
    assert len(prefix.elements) == 59
    assert len(reports) == 180

    by_total = {r.total: r for r in reports}
    good = by_total[187124]
    facts = check_collision_structure(good, basis, params)
    assert facts == {
        "digitwise_equal": True,
        "block_indices": True,
        "congruence_chain": True,
        "size_inequality": True,
        "product_divisibility": True,
    }
    assert good.left_values() == (177032, 10092)
    assert good.right_values() == (176943, 10181)
    assert [e.p for e in good.left] == [89, 31]
    assert [e.p for e in good.right] == [149, 7]

    # Same congruences, but the block sizes sit outside the inequality.
    shallow = by_total[205383]
    facts = check_collision_structure(shallow, basis, params)
    assert facts["digitwise_equal"] and facts["block_indices"]
    assert facts["congruence_chain"] and facts["product_divisibility"]
    assert facts["size_inequality"] is False

    # Every collision of this prefix satisfies the basis-free facts.
    for r in reports:
        f = check_collision_structure(r, basis, params)
        assert f["digitwise_equal"] and f["block_indices"] and f["congruence_chain"]


def test_structure_requires_digit_vectors():
    report = find_collisions([0, 1, 2, 3], 2)[0]
    with pytest.raises(MissingDigits):
        check_collision_structure(report, None, None)


def test_structure_rejects_window_violation(dense_fixture):
    basis, params, prefix = dense_fixture
    report = find_collisions(prefix.elements, 2)[0]
    e = report.left[0]
    broken = SidonElement(
        p=e.p, k=e.k,
        digits=(0,) + e.digits[1:],
        value=e.value,
    )
    fake = CollisionReport(l=2, total=report.total,
                           left=(broken, report.left[1]), right=report.right)
    with pytest.raises(DigitOutOfRange):
        check_collision_structure(fake, basis, params)


def test_growth_brackets_refuse_a_gf2_basis():
    # The brackets count primes of Z.
    with pytest.raises(ValueError, match="Gf2Ring"):
        growth_bracket_check(gf2_generate_blocks(5, sidon_params(offset=0)))


def test_growth_brackets_default_prefix(sqrt5_params, default_basis):
    prefix = generate_blocks(6, sqrt5_params, default_basis)
    rows = growth_bracket_check(prefix)
    assert [row["k"] for row in rows] == [2, 3, 4, 5, 6]
    table = [(row["k"], row["count"], row["lower"], row["upper"]) for row in rows]
    assert table == [
        (2, 0, 0, 4),
        (3, 0, 0, 24),
        (4, 3, 3, 269),
        (5, 21, 21, 5484),
        (6, 264, 264, 207221),
    ]
    for row in rows:
        assert row["count_ok"] and row["elements_ok"]
        if row["count"] == 0:
            assert row["log2_ratio_approx"] is None  # vacuous block
        else:
            # diagnostic only: converges to c far beyond desk scale
            assert 0.0 < row["log2_ratio_approx"] < 1.0
        assert abs(row["c_target_approx"] - 0.381966) < 1e-5
