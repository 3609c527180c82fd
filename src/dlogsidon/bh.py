"""B_h sequences, h >= 3 (all a_1 + ... + a_h, a_1 <= ... <= a_h, distinct):
tapered blocks, greedy B_h pruning and a Monte-Carlo survey over random bases.

The window constant c = sqrt((h-1)^2 + 1) - (h-1) satisfies
-1 + 2c(h-1)/(1-c) - c = 0, which balances the two sides of the counting
argument; bh_params verifies the identity at working precision. The order
h itself is the basis's: a B_h prefix is cut over a basis of scale h^2.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace

import mpmath

from ._precision import PRECISION
from .auditor import find_collisions
from .basis import Basis, build_basis
from .blocks import BlockParams, tapered_params
from .encoder import SidonElement
from .errors import ConsistencyError
from .generator import SequencePrefix, generate_blocks


def bh_params(h: int) -> BlockParams:
    """The tapered block law of order h, its window constant checked."""
    if h < 3:
        raise ValueError(f"this path is for h >= 3, got {h}")
    params = tapered_params(h)
    with mpmath.workprec(PRECISION):
        c = params.c
        residue = -1 + 2 * c * (h - 1) / (1 - c) - c
        if abs(residue) > mpmath.mpf(2) ** (32 - PRECISION):
            raise ConsistencyError(f"window constant identity off by {residue}")
    return params


def negative_taper_blocks(params: BlockParams, k_max: int) -> list[int]:
    """Indices k_min-1..k_max whose taper factor is negative.

    A negative factor pushes that edge below 1; the formula is still
    evaluated as written and the block simply starts at 2.
    """
    lo = max(params.k_min - 1, 2)
    return [k for k in range(lo, k_max + 1) if params.taper_factor(k) < 0]


def bh_generate(k_max: int, params: BlockParams, basis: Basis) -> SequencePrefix:
    """A B_h prefix: the tapered law over a basis of scale h^2."""
    return generate_blocks(k_max, params, basis)


def prune_repeated_sums(values, h: int) -> tuple[list[int], list[int]]:
    """Greedy core: while two element-disjoint l-multisets (2 <= l <= h)
    share a sum, drop the largest value involved, which leaves a B_h set.
    Returns (survivors ascending, removed in order)."""
    current = sorted(values)
    removed = []
    while True:
        for l in range(2, h + 1):
            reports = find_collisions(current, l)
            if reports:
                break
        else:
            return current, removed
        worst = max(reports[0].left_values() + reports[0].right_values())
        current.remove(worst)
        removed.append(worst)


@dataclass
class BhPruneResult:
    pruned: SequencePrefix
    removed: list[SidonElement]


def bh_prune(prefix: SequencePrefix) -> BhPruneResult:
    """Drop elements until the prefix is B_h, for the order h of the
    prefix's basis."""
    _, removed_values = prune_repeated_sums(prefix.values(), prefix.basis.h)
    removed_set = set(removed_values)
    removed = [e for e in prefix.elements if e.value in removed_set]
    kept = [e for e in prefix.elements if e.value not in removed_set]
    return BhPruneResult(pruned=replace(prefix, elements=kept), removed=removed)


def montecarlo_bad_ratio(h: int, k_max: int, trials: int, seed: int) -> dict:
    """Removed fraction per block over `trials` random bases.

    Ratios divide removed elements by the block's prime count; empty blocks
    report 0. Identical (h, k_max, trials, seed) reproduce the report
    byte-for-byte once serialized canonically.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    params = bh_params(h)
    master = random.Random(seed)
    trial_seeds = [master.randrange(1 << 63) for _ in range(trials)]
    ks = list(range(params.k_min, k_max + 1))
    trial_rows = []
    sums = {k: 0.0 for k in ks}
    maxes = {k: 0.0 for k in ks}
    for t, tseed in enumerate(trial_seeds):
        basis = build_basis("random", h * h, k_max, seed=tseed)
        prefix = bh_generate(k_max, params, basis)
        removed_by_block = Counter(e.k for e in bh_prune(prefix).removed)
        ratios = []
        for k in ks:
            size = prefix.block_sizes.get(k, 0)
            bad = removed_by_block[k]
            ratio = bad / size if size else 0.0
            ratios.append({"k": k, "block_size": size, "removed": bad, "ratio": ratio})
            sums[k] += ratio
            maxes[k] = max(maxes[k], ratio)
        trial_rows.append({
            "trial": t,
            "basis_seed": tseed,
            "q": [basis.q(j) for j in range(1, k_max + 1)],
            "ratios": ratios,
        })
    return {
        "h": h,
        "k_max": k_max,
        "trials": trials,
        "seed": seed,
        "negative_taper_blocks": negative_taper_blocks(params, k_max),
        "per_trial": trial_rows,
        "per_k": [{"k": k, "mean_ratio": sums[k] / trials,
                   "max_ratio": maxes[k]} for k in ks],
    }
