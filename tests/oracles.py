"""Slow reference implementations the fast code is tested against.

Everything here favors obviousness over speed: trial division, full power
tables, exhaustive enumeration. Nothing imports from dlogsidon except the
basis container type needed to build synthetic bases.
"""

from collections import defaultdict
from itertools import combinations, combinations_with_replacement
from math import isqrt


def is_prime_trial(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def primes_upto_trial(n):
    return [p for p in range(2, n + 1) if is_prime_trial(p)]


def prime_count_sieve(n, segment=1 << 22):
    """pi(n) by a sieve of Eratosthenes over 2..n, one segment at a time."""
    if n < 2:
        return 0
    root = isqrt(n)
    base = [p for p in range(2, root + 1) if is_prime_trial(p)]
    count = 0
    for lo in range(2, n + 1, segment):
        hi = min(lo + segment - 1, n)
        flags = bytearray(b"\x01") * (hi - lo + 1)
        for p in base:
            if p * p > hi:
                break
            start = max(p * p, (lo + p - 1) // p * p)
            flags[start - lo :: p] = bytes(len(range(start, hi + 1, p)))
        count += flags.count(1)
    return count


def factorize_trial(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def power_table(q, g):
    """exponent table of the cyclic group generated by g mod q: value -> e."""
    table = {}
    x = 1
    for e in range(q - 1):
        if x in table:
            break
        table[x] = e
        x = x * g % q
    return table


def primitive_root_naive(q):
    for g in range(1, q):
        if len(power_table(q, g)) == q - 1:
            return g
    raise ValueError(f"no primitive root mod {q}")


def lift_naive(d, lo, hi, step):
    """Smallest value in [lo, hi] congruent to d mod step, by linear scan."""
    for x in range(lo, hi + 1):
        if (x - d) % step == 0:
            return x
    return None


def mobius_naive(n):
    fac = factorize_trial(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def gf2_mul_naive(a, b):
    """Carry-less product, one monomial of b at a time."""
    acc = 0
    shift = 0
    while b:
        if b & 1:
            acc ^= a << shift
        b >>= 1
        shift += 1
    return acc


def gf2_mod_naive(a, m):
    md = m.bit_length() - 1
    while a.bit_length() - 1 >= md and a:
        a ^= m << (a.bit_length() - 1 - md)
    return a


def gf2_irreducible_naive(f):
    """Trial division by every polynomial of degree 1..deg(f)//2."""
    d = f.bit_length() - 1
    if d < 1:
        return False
    if d == 1:
        return True
    for g in range(2, 1 << (d // 2 + 1)):
        if g.bit_length() - 1 < 1:
            continue
        if gf2_mod_naive(f, g) == 0:
            return False
    return True


def gf2_irreducibles_naive(d):
    return [f for f in range(1 << d, 1 << (d + 1)) if gf2_irreducible_naive(f)]


def gf2_power_table(q, g):
    """value -> exponent for the unit group of GF(2)[X]/(q)."""
    n = (1 << (q.bit_length() - 1)) - 1
    table = {}
    x = 1
    for e in range(n):
        if x in table:
            break
        table[x] = e
        x = gf2_mod_naive(gf2_mul_naive(x, g), q)
    return table


def collision_groups_naive(vals, l, modulus=None):
    """sum -> list of index l-subsets, keeping only repeated sums."""
    groups = defaultdict(list)
    for t in combinations(range(len(vals)), l):
        s = sum(vals[i] for i in t)
        if modulus is not None:
            s %= modulus
        groups[s].append(t)
    return {s: ts for s, ts in groups.items() if len(ts) > 1}


def disjoint_report_keys(vals, l, modulus=None):
    """(l, sum, left values desc, right values desc) for every disjoint pair
    of same-sum subsets, sorted. Mirrors what the auditor must emit."""
    keys = []
    for s, ts in collision_groups_naive(vals, l, modulus).items():
        for ta, tb in combinations(ts, 2):
            if set(ta) & set(tb):
                continue
            left = tuple(sorted((vals[i] for i in ta), reverse=True))
            right = tuple(sorted((vals[i] for i in tb), reverse=True))
            if left < right:
                left, right = right, left
            keys.append((l, s, left, right))
    return sorted(keys)


def no_repeated_sums(vals, h):
    """True when no two disjoint equal-size subsets (size 2..h) share a sum."""
    return all(not disjoint_report_keys(vals, l) for l in range(2, h + 1))


def is_sidon_list(vals):
    """No repeated pairwise sum among distinct unordered pairs (with repeats)."""
    seen = {}
    for i in range(len(vals)):
        for j in range(i, len(vals)):
            s = vals[i] + vals[j]
            if s in seen and seen[s] != {vals[i], vals[j]}:
                return False
            seen[s] = {vals[i], vals[j]}
    return True


def cyclic_sidon(vals, mod):
    """Sums a + b (a <= b, repeats allowed) pairwise distinct mod mod."""
    seen = {}
    for i in range(len(vals)):
        for j in range(i, len(vals)):
            s = (vals[i] + vals[j]) % mod
            if s in seen and seen[s] != {vals[i], vals[j]}:
                return False
            seen[s] = {vals[i], vals[j]}
    return True


def is_bh_list(vals, h):
    """Every multiset of h values has a distinct sum."""
    seen = {}
    for t in combinations_with_replacement(sorted(vals), h):
        s = sum(t)
        if s in seen and seen[s] != t:
            return False
        seen[s] = t
    return True


def bad_primes_naive(p_list, plans):
    """Primes dividing some admissible nonzero s, by full enumeration.

    plans: list of (q1_product, q2_product, s1_max, s2_max, p2_list) tuples.
    Returns the set of bad primes.
    """
    bad = set()
    for q1p, q2p, s1_max, s2_max, p2s in plans:
        svals = set()
        for s1 in range(-s1_max, s1_max + 1):
            if s1 == 0:
                continue
            for s2 in range(-s2_max, s2_max + 1):
                if s2 == 0:
                    continue
                for p2 in p2s:
                    s = s1 * q1p + s2 * p2 * q2p
                    if s != 0:
                        svals.add(s)
        for p in p_list:
            if any(s % p == 0 for s in svals):
                bad.add(p)
    return bad
