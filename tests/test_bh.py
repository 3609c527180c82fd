import json

import pytest

from dlogsidon.auditor import is_bh
from dlogsidon.basis import Basis
from dlogsidon.bh import (
    bh_generate,
    bh_params,
    bh_prune,
    montecarlo_bad_ratio,
    negative_taper_blocks,
    prune_repeated_sums,
)
from dlogsidon.blocks import const_window

from oracles import is_bh_list


def test_bh_params_identity_and_scale():
    p3 = bh_params(3)
    assert p3.c == const_window(3)
    assert p3.k_min == 3 and p3.taper and p3.offset == 0
    for h in (3, 4, 5, 7):
        bh_params(h)  # identity check inside must hold for every h
    with pytest.raises(ValueError):
        bh_params(2)


def test_window_constant_h3_value():
    import mpmath
    with mpmath.workprec(192):
        c = const_window(3)
        assert mpmath.almosteq(c, mpmath.sqrt(5) - 2)


def test_negative_taper_blocks_reported():
    params = bh_params(3)
    assert negative_taper_blocks(params, 9) == [2]
    # ln k < 1 only at k = 2, whatever the order h
    assert negative_taper_blocks(bh_params(5), 12) == [2]


def test_bh3_prefix_shape(bh3):
    params, basis, prefix = bh3
    assert basis.h == 3 and prefix.basis is basis
    assert len(prefix.elements) == 18
    sizes = {k: len(prefix.block_elements(k)) for k in range(3, 10)}
    assert sizes == {3: 0, 4: 0, 5: 1, 6: 0, 7: 2, 8: 4, 9: 11}
    assert all((basis.h - 1) * basis.q(e.k) < e.digits[-1]
               for e in prefix.elements)


def test_bh3_prefix_is_b3_before_pruning(bh3):
    _, _, prefix = bh3
    assert is_bh_list(prefix.values(), 3)


def test_bh_prune_keeps_everything_when_clean(bh3):
    _, _, prefix = bh3
    result = bh_prune(prefix)
    assert result.removed == []
    assert result.pruned.values() == prefix.values()


def test_prune_repeated_sums_drops_largest():
    # 0 + 2 = 1 + 1, the first report: the largest participant goes, and
    # 0 + 3 = 1 + 2 goes with it.
    survivors, removed = prune_repeated_sums([0, 1, 2, 3], 2)
    assert removed == [2]
    assert survivors == [0, 1, 3]
    assert is_bh_list(survivors, 2)


def test_prune_repeated_sums_is_exact_bh():
    # 8+8+49 = 17+17+31 repeats an element on each side, so 49 goes; then
    # 8+29+29 = 17+17+32 takes 32. The pair sums are distinct throughout.
    vals = [8, 17, 29, 31, 32, 49]
    assert prune_repeated_sums(vals, 2) == (vals, [])
    survivors, removed = prune_repeated_sums(vals, 3)
    assert (survivors, removed) == ([8, 17, 29, 31], [49, 32])
    assert is_bh(survivors, 3) and is_bh_list(survivors, 3)
    # Empty and one-value inputs, and the empty B_3 prefix of k <= 4.
    assert prune_repeated_sums([], 3) == ([], [])
    assert prune_repeated_sums([5], 3) == ([5], [])
    report = montecarlo_bad_ratio(3, 4, trials=2, seed=7)
    assert all(r["block_size"] == 0 for t in report["per_trial"] for r in t["ratios"])


def test_prune_repeated_sums_reaches_a_bh_set(seed=77):
    import random
    rng = random.Random(seed)
    vals = rng.sample(range(500), 40)
    for h in (2, 3):
        survivors, removed = prune_repeated_sums(vals, h)
        assert is_bh_list(survivors, h)
        assert sorted(survivors + removed) == sorted(vals)
        # greedy never removes more than it must: rerunning is a no-op
        again, removed_again = prune_repeated_sums(survivors, h)
        assert removed_again == []


def test_bh_prune_on_synthetic_collision(fake_basis):
    from dlogsidon.blocks import const_decimal, sidon_params
    from dlogsidon.generator import generate_blocks
    params = sidon_params(c=const_decimal("0.45"), offset=1)
    prefix = generate_blocks(4, params, fake_basis((11, 13, 3, 5), 9))
    result = bh_prune(prefix)
    assert len(result.removed) > 0
    assert is_bh_list(result.pruned.values(), 3)
    # removed elements are real prefix members
    values = set(prefix.values())
    assert all(e.value in values for e in result.removed)


def test_montecarlo_deterministic_and_shaped():
    a = montecarlo_bad_ratio(3, 7, trials=3, seed=99)
    b = montecarlo_bad_ratio(3, 7, trials=3, seed=99)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["negative_taper_blocks"] == [2]
    assert len(a["per_trial"]) == 3
    assert [row["k"] for row in a["per_k"]] == [3, 4, 5, 6, 7]
    for row in a["per_k"]:
        assert 0.0 <= row["mean_ratio"] <= row["max_ratio"] <= 1.0
    c = montecarlo_bad_ratio(3, 7, trials=3, seed=100)
    assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)
    for trials in (0, -1):
        with pytest.raises(ValueError):
            montecarlo_bad_ratio(3, 7, trials, seed=99)


@pytest.mark.slow
def test_bh3_prefix_k13_is_b3():
    # 3,473 values of up to 210 bits: C(3475, 3) = 6.99e9 multisets, about
    # 3 minutes on one core.
    prefix = bh_generate(13, bh_params(3), Basis(9))
    vals = prefix.values()
    assert len(vals) == 3_473
    assert is_bh(vals, 3)
