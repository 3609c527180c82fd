import random
import tracemalloc
from collections import Counter
from math import comb

import pytest

from dlogsidon import auditor
from dlogsidon.auditor import (
    MAX_SUBSETS,
    CollisionReport,
    check_collision_structure,
    find_collisions,
    find_collisions_bruteforce,
    growth_bracket_check,
    is_sidon_mod,
)
from dlogsidon.blocks import const_decimal, sidon_params
from dlogsidon.encoder import SidonElement
from dlogsidon.errors import ArityOutOfRange, AuditTooLarge, DigitOutOfRange, MissingDigits
from dlogsidon.generator import generate_blocks

from oracles import cyclic_sidon, disjoint_report_keys

M61 = (1 << 61) - 1


def report_keys(reports):
    return [r.key() for r in reports]


def test_textbook_pair_collisions():
    reports = find_collisions([1, 2, 3, 4], 2)
    assert report_keys(reports) == [(2, 5, (4, 1), (3, 2))]

    reports = find_collisions([0, 1, 2, 3], 2)
    assert report_keys(reports) == [(2, 3, (3, 0), (2, 1))]

    obj = reports[0].to_json_obj()
    assert obj == {"l": 2, "sum": "3", "left": ["3", "0"], "right": ["2", "1"]}


def test_sides_hold_distinct_elements():
    # 0+2 equals 1+1, but a side never repeats an element, so no report.
    assert find_collisions([0, 1, 2], 2) == []
    assert find_collisions_bruteforce([0, 1, 2], 2) == []
    # ... and shared elements between sides are skipped: 1+2 = 0+3 is the
    # only pair here even though 1+3 = 0+4 shares nothing with it.
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
    expected = [(2, 2 * base + 5, (base + 4, base + 1), (base + 3, base + 2))]
    assert report_keys(find_collisions(vals, 2)) == expected
    assert report_keys(find_collisions_bruteforce(vals, 2)) == expected
    vals = [base + 1, base + 2, base + 9, base + 3, base + 4, base + 5]
    expected = [(3, 3 * base + 12, (base + 9, base + 2, base + 1),
                 (base + 5, base + 4, base + 3))]
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
    assert find_collisions(vals, 3) == []
    assert find_collisions_bruteforce(vals, 3) == []


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
    assert find_collisions([1, 2, 3], 4) == []
    assert find_collisions(range(40), 35) == []  # C(40, 20) would not fit


def test_audit_limit_raises_before_allocating():
    # The densest k <= 7 prefix fits; the sqrt5 k <= 8 pair audit does not.
    assert comb(14_759, 2) <= MAX_SUBSETS < comb(207_214, 2)
    tracemalloc.start()
    try:
        with pytest.raises(AuditTooLarge):
            find_collisions(range(23_200), 2)
        with pytest.raises(AuditTooLarge):
            find_collisions(range(300), 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_sidon_mod_matches_oracle(seed=4243):
    rng = random.Random(seed)
    verdicts = Counter()
    for _ in range(400):
        m = rng.choice([rng.randrange(1, 60), rng.randrange(1, 5000), (1 << 64) - 59,
                        (1 << 64) + 13])
        vals = sorted({rng.randrange(m) for _ in range(rng.randrange(12))})
        got = is_sidon_mod(vals, m)
        assert got == cyclic_sidon(vals, m), (vals, m)
        verdicts[got] += 1
    assert verdicts[True] > 50 and verdicts[False] > 50


def test_sidon_mod_planted_and_small_cases():
    assert not cyclic_sidon([0, 5], 10) and not is_sidon_mod([0, 5], 10)  # 0 + 0 = 5 + 5
    assert not cyclic_sidon([1, 3, 5], 100) and not is_sidon_mod([1, 3, 5], 100)  # 3 + 3 = 1 + 5
    assert is_sidon_mod([1, 3, 6], 100)
    assert is_sidon_mod([], 7) and is_sidon_mod([4], 7)
    with pytest.raises(ValueError):
        is_sidon_mod([1, 2], 0)


def test_sidon_mod_limit_raises_before_allocating():
    assert comb(23_200, 2) > MAX_SUBSETS
    tracemalloc.start()
    try:
        with pytest.raises(AuditTooLarge):
            is_sidon_mod(range(23_200), 1 << 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_report_limit_bounds_the_output(monkeypatch):
    # The limit counts pairs of subsets sharing a sum: [0, 1, 2, 3] has one.
    for search in (find_collisions, find_collisions_bruteforce):
        monkeypatch.setattr(auditor, "MAX_REPORT_PAIRS", 1)
        assert len(search([0, 1, 2, 3], 2)) == 1
        monkeypatch.setattr(auditor, "MAX_REPORT_PAIRS", 0)
        with pytest.raises(AuditTooLarge, match="report limit"):
            search([0, 1, 2, 3], 2)
    monkeypatch.undo()
    # A small modulus puts about C(n, l)^2 / m pairs of subsets on equal keys:
    # 400 values at l = 2 mod 3 give 1.1e9, far more than the 79,800 subsets.
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
    basis = Basis(4, entries, mode="fixed", require_dyadic=False)
    params = sidon_params(c=const_decimal("0.45"), offset=1)
    prefix = generate_blocks(4, params, basis)
    return basis, params, prefix


def test_structure_facts_on_dense_prefix(dense_fixture):
    basis, params, prefix = dense_fixture
    reports = find_collisions(prefix.elements, 2)
    assert len(prefix.elements) == 59
    assert len(reports) == 179

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
    assert good.structure is facts
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
