"""Acceptance gate: the nine build criteria, one printed verdict line each.

Runs on the same session fixtures as the unit suites but re-times the
pipelines it makes runtime claims about. Each criterion prints a single
`acceptance N: PASS/FAIL ...` line through captured stdout so the gate
reads as a checklist under plain `pytest` as well as `pytest -s`.
"""

import json
import time
from contextlib import contextmanager

import pytest

from dlogsidon.arith import smallest_primitive_root
from dlogsidon.auditor import (
    check_collision_structure,
    find_collisions,
    find_collisions_bruteforce,
    growth_bracket_check,
    is_bh,
    is_sidon,
)
from dlogsidon.bh import bh_prune, montecarlo_bad_ratio
from dlogsidon.blocks import block_of_prime, const_decimal, const_sqrt5, sidon_params
from dlogsidon.generator import (
    expected_finite_size,
    finite_dlog_sidon_set,
    generate_blocks,
)
from dlogsidon.gf2x import gf2_finite_sidon, gf2_generate_blocks, irreducible_count
from dlogsidon.pruner import bad_primes, eligible_k2s, pruned_generate, s_bounds

from oracles import cyclic_sidon, is_bh_list, is_sidon_list


@contextmanager
def verdict(capsys, num, label):
    """Print one PASS/FAIL line per criterion; yields a note list for detail."""
    note = []
    t0 = time.perf_counter()
    try:
        yield note
    except BaseException:
        with capsys.disabled():
            print(f"acceptance {num}: FAIL {label}")
        raise
    dt = time.perf_counter() - t0
    extra = (" " + "; ".join(note)) if note else ""
    with capsys.disabled():
        print(f"acceptance {num}: PASS {label}{extra} [{dt:.1f}s]")


def report_keys(reports):
    return {(r.l, r.total, tuple(e.p for e in r.left), tuple(e.p for e in r.right))
            for r in reports}


def classify_pair_reports(reports, params, basis):
    """Count collision shapes the deletion argument covers and its misses.

    A pair collision is in scope when the smaller block index k2 sits below
    the larger one k1. For those, the largest participating prime must be on
    the bad list of its block; anything else is a miss.
    """
    bad_cache = {}
    in_scope = 0
    misses = 0
    for rep in reports:
        elems = list(rep.left) + list(rep.right)
        p1 = max(e.p for e in elems)
        k1 = block_of_prime(p1, params)
        k2 = min(e.k for e in elems)
        if k2 >= k1:
            continue
        in_scope += 1
        if k1 not in bad_cache:
            bad_cache[k1] = {r.p1 for r in bad_primes(k1, params, basis)}
        if p1 not in bad_cache[k1]:
            misses += 1
    return in_scope, misses, bad_cache


def block_prime_count(prefix, k):
    """Primes the block received, whether or not they survived encoding."""
    kept = sum(1 for e in prefix.elements if e.k == k)
    dropped = sum(1 for r in prefix.excluded if r.k == k)
    return kept + dropped


def test_c1_finite_dlog_sets(capsys):
    cases = ((101, 4, 2), (1009, 11, 11), (10007, 25, 5))
    with verdict(capsys, 1, "finite discrete-log sets") as note:
        for q, size, g in cases:
            t0 = time.perf_counter()
            assert smallest_primitive_root(q) == g
            vals = sorted(finite_dlog_sidon_set(q))
            assert len(vals) == size == expected_finite_size(q)
            assert cyclic_sidon(vals, q - 1)
            assert time.perf_counter() - t0 < 1.0
        note.append("sizes 4/11/25 all Sidon mod q-1 under 1s each")


def test_c2_strict_pair_sums(default_basis, sqrt5_params, capsys):
    with verdict(capsys, 2, "strict Sidon prefix k<=7") as note:
        t0 = time.perf_counter()
        prefix = generate_blocks(7, sqrt5_params, default_basis)
        vals = prefix.values()
        assert len(vals) == 5477
        assert len(set(vals)) == 5477
        assert find_collisions(prefix.elements, 2) == []
        # guard the guard before trusting it on the real prefix: 3 + 3 = 1 + 5
        assert not is_sidon([3, 1, 5, 100])
        assert is_sidon([1, 2, 4, 9])
        # every sum a + b, a <= b, distinct: doubled values included
        assert is_sidon(vals)
        assert time.perf_counter() - t0 < 60.0
        note.append("5477 elements, zero repeated pair sums")


def test_c3_worked_digit_vectors(sqrt5_prefix_k7, capsys):
    with verdict(capsys, 3, "worked digit vectors") as note:
        by_p = {e.p: e for e in sqrt5_prefix_k7.elements if e.k == 4}
        assert by_p[5].digits == (5, 14, 59, 176)
        assert by_p[5].value == 13784669
        assert by_p[2].digits == (5, 21, 73, 261)
        assert by_p[2].value == 20434385
        note.append("a_5=13784669, a_2=20434385")


def test_c4_growth_brackets(sqrt5_prefix_k7, capsys):
    with verdict(capsys, 4, "growth brackets k<=7") as note:
        rows = growth_bracket_check(sqrt5_prefix_k7)
        table = [(r["k"], int(r["x"]), r["count"], r["lower"], r["upper"])
                 for r in rows]
        assert table == [
            (2, 528, 0, 0, 4),
            (3, 78144, 0, 0, 24),
            (4, 40947456, 3, 3, 269),
            (5, 85334498304, 21, 21, 5484),
            (6, 700766900072448, 264, 264, 207221),
            (7, 23010381930778902528, 5477, 5477, 14059933),
        ]
        assert all(r["count_ok"] for r in rows)
        assert all(r["elements_ok"] for r in rows)
        note.append("count and element rails hold at every block edge")


# Non-dyadic fixed bases that actually produce pair collisions at desk
# scale, with the collision-shape census and block-4 bad count frozen.
SIDON_FIXTURES = (
    ((11, 13, 3, 5), "0.45", 1, 59, 12, 51),
    ((13, 11, 3, 5), "0.46", 1, 63, 10, 55),
    ((11, 13, 5, 3), "0.47", 1, 70, 17, 61),
    ((13, 17, 3, 5), "0.48", 1, 77, 28, 68),
    ((17, 19, 3, 5), "0.45", 2, 102, 43, 89),
)


def test_c5_deletion_pipeline(default_basis, sqrt2_params, sqrt2_prefix_k7,
                              fake_basis, capsys):
    with verdict(capsys, 5, "deletion pipeline c=sqrt2-1") as note:
        pairs = [(k2, k1) for k1 in range(2, 8) for k2 in range(2, k1)]
        assert len(pairs) == 15
        assert all(s_bounds(k2, k1, sqrt2_params, default_basis).is_empty()
                   for k2, k1 in pairs)
        assert all(eligible_k2s(k1, sqrt2_params, default_basis) == []
                   for k1 in range(2, 8))
        assert all(bad_primes(k1, sqrt2_params, default_basis) == []
                   for k1 in range(2, 8))

        res = pruned_generate(sqrt2_prefix_k7)
        vals = sqrt2_prefix_k7.values()
        assert len(vals) == 14759
        assert res.records == []
        assert res.pruned.values() == vals
        assert all(0.0 <= r["ratio"] <= 0.6 for r in res.reports)
        assert find_collisions(sqrt2_prefix_k7.elements, 2) == []

        for qs, cdec, offset, n, in_scope, bad4 in SIDON_FIXTURES:
            basis = fake_basis(qs, 4)
            params = sidon_params(c=const_decimal(cdec), offset=offset)
            prefix = generate_blocks(4, params, basis)
            assert len(prefix.elements) == n
            reports = find_collisions(prefix.elements, 2)
            assert reports
            got_in_scope, misses, bad_cache = classify_pair_reports(
                reports, params, basis)
            assert got_in_scope == in_scope
            assert misses == 0
            assert len(bad_cache[4]) == bad4 == block_prime_count(prefix, 4)

        # falsifiability: a wide front pair narrows the s-range scan, so the
        # bad list is a strict subset of its block even with no collisions
        basis = fake_basis((37, 41, 17, 3), 4)
        params = sidon_params(c=const_decimal("0.45"), offset=1)
        prefix = generate_blocks(4, params, basis)
        assert find_collisions(prefix.elements, 2) == []
        recs = bad_primes(4, params, basis)
        block4 = {e.p for e in prefix.elements if e.k == 4}
        block4 |= {r.p for r in prefix.excluded if r.k == 4}
        assert len(recs) == 9 < len(block4) == 51
        assert {r.p1 for r in recs} <= block4
        note.append("all s-ranges empty, prune a no-op, "
                    "5 collision fixtures cross-checked, bad list falsifiable")


# (qs, c, l, elements, reports, reports passing all four structure clauses)
BH_FIXTURES = (
    ((11, 13, 3, 5), "0.45", 2, 59, 174, 11),
    ((13, 17, 3, 5), "0.47", 2, 70, 227, 15),
    ((23, 29, 3, 5), "0.43", 3, 48, 1300, 1300),
    ((19, 23, 3, 5), "0.43", 3, 48, 1891, 1891),
)


def test_c6_bh3_audit_and_structure(bh3, fake_basis, capsys):
    with verdict(capsys, 6, "B_3 audit and collision structure") as note:
        params, basis, prefix = bh3
        vals = prefix.values()
        assert len(vals) == 18
        sizes = {k: len(prefix.block_elements(k)) for k in range(3, 10)}
        assert sizes == {3: 0, 4: 0, 5: 1, 6: 0, 7: 2, 8: 4, 9: 11}
        for l in (2, 3):
            assert find_collisions(prefix.elements, l) == []
            assert find_collisions_bruteforce(prefix.elements, l) == []
        assert is_bh_list(vals, 3)
        assert is_bh(vals, 3)
        pruned = bh_prune(prefix)
        assert pruned.removed == []
        assert pruned.pruned.values() == vals

        for qs, cdec, l, n, n_reports, all4 in BH_FIXTURES:
            fb = fake_basis(qs, 9)
            fparams = sidon_params(c=const_decimal(cdec), offset=1)
            fprefix = generate_blocks(4, fparams, fb)
            assert len(fprefix.elements) == n <= 200
            reports = find_collisions(fprefix.elements, l)
            assert len(reports) == n_reports
            brute = find_collisions_bruteforce(fprefix.elements, l)
            assert report_keys(reports) == report_keys(brute)
            assert len(brute) == n_reports

            got_all4 = 0
            for rep in reports:
                facts = check_collision_structure(rep, fb, fparams)
                # digit equality, block recovery, congruences, divisibility
                # are theorems of the carry-free arithmetic: always true,
                # on sides that repeat an element too
                assert facts["digitwise_equal"]
                assert facts["block_indices"]
                assert facts["congruence_chain"]
                assert facts["product_divisibility"]
                if facts["size_inequality"]:
                    got_all4 += 1
            # the size inequality needs the dyadic growth the fake bases
            # lack, so for l=2 only a frozen fraction satisfies it; the
            # l=3 fixtures satisfy all four clauses on every collision
            assert got_all4 == all4 >= 1
            if l == 3:
                assert got_all4 == len(reports)
        note.append("prefix exactly B_3, prune a no-op, "
                    "structure clauses verified on 3592 fixture collisions")


def test_c7_montecarlo_reproducibility(capsys):
    with verdict(capsys, 7, "seeded Monte-Carlo bases") as note:
        t0 = time.perf_counter()
        first = montecarlo_bad_ratio(3, 7, trials=20, seed=20260816)
        second = montecarlo_bad_ratio(3, 7, trials=20, seed=20260816)
        canon = json.dumps(first, sort_keys=True, separators=(",", ":"))
        assert canon == json.dumps(second, sort_keys=True, separators=(",", ":"))
        assert first["trials"] == 20
        for row in first["per_k"]:
            assert 0.0 <= row["mean_ratio"] <= row["max_ratio"] <= 1.0
        for trial in first["per_trial"]:
            assert all(0.0 <= r["ratio"] <= 1.0 for r in trial["ratios"])
        assert time.perf_counter() - t0 < 300.0
        note.append("20 trials byte-identical, all ratios in [0,1]")


def test_c8_polynomial_variant(capsys):
    with verdict(capsys, 8, "GF(2)[x] variant") as note:
        assert [irreducible_count(d) for d in range(1, 7)] == [2, 1, 2, 3, 6, 9]
        for n, size in ((7, 5), (13, 23)):
            vals = sorted(gf2_finite_sidon(n))
            assert len(vals) == size
            assert cyclic_sidon(vals, (1 << n) - 1)
        prefix = gf2_generate_blocks(4, sidon_params(c=const_sqrt5(), offset=0))
        vals = [e.value for e in prefix.elements]
        assert len(vals) == 20
        assert len(set(vals)) == 20
        assert find_collisions(vals, 2) == []
        assert is_sidon_list(vals)
        prefix = gf2_generate_blocks(6, sidon_params(c=const_sqrt5(), offset=0))
        vals = prefix.values()
        assert len(vals) == 1371
        assert is_sidon(vals)
        assert find_collisions(vals, 2) == []
        note.append("counts 2/1/2/3/6/9, finite sizes 5 and 23, "
                    "prefixes of 20 and 1371 with distinct pair sums")


@pytest.mark.slow
def test_c8_polynomial_prefix_k7_is_sidon(capsys):
    with verdict(capsys, 8, "GF(2)[x] prefix k <= 7") as note:
        prefix = gf2_generate_blocks(7, sidon_params(c=const_sqrt5(), offset=0))
        vals = prefix.values()
        assert len(vals) == 31_036
        assert is_sidon(vals)
        note.append("31036 values, sums a + b (a <= b) all distinct")


def test_c9_exponent_diagnostics(sqrt5_prefix_k7, capsys):
    # reported, not asserted: the counting exponent approaches c far beyond
    # any block this gate can generate
    with verdict(capsys, 9, "exponent diagnostics") as note:
        rows = growth_bracket_check(sqrt5_prefix_k7)
        shown = []
        for row in rows:
            ratio = row["log2_ratio_approx"]
            target = row["c_target_approx"]
            assert abs(target - 0.3819660112501051) < 1e-12
            if row["count"] == 0:
                assert ratio is None
                continue
            assert isinstance(ratio, float)
            assert 0.0 < ratio < 1.0
            shown.append(f"k={row['k']}: {ratio:.3f}")
        assert shown
        note.append("log2A/log2x " + ", ".join(shown)
                    + " vs target 0.382 (no tolerance)")
