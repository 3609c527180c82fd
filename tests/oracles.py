"""Slow reference implementations the fast code is tested against.

Everything here favors obviousness over speed: trial division, full power
tables, exhaustive enumeration. Nothing here imports from dlogsidon except
block_walk, which compares log2 of a norm with the law's exponents under
the package's guarded cmp_log2, gf2_irreducibles_rabin, which runs the
package's Rabin test (itself checked against trial division) on every
polynomial of a degree, element_walk,
which takes the package's discrete logs, window lift and element record,
per_irreducible_blocks, which lists the package's blocks for it, and
prune_restarting, which runs the package's collision search.
log_table_loop and bsgs_logs take their ring as an argument.
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


def _sieve_segments(lo, hi, segment):
    """(start, flags) per segment of the integers lo..hi, lo >= 2: a
    bytearray sieve of Eratosthenes, base primes by trial division."""
    base = [p for p in range(2, isqrt(hi) + 1) if is_prime_trial(p)]
    for start in range(lo, hi + 1, segment):
        end = min(start + segment - 1, hi)
        flags = bytearray(b"\x01") * (end - start + 1)
        for p in base:
            if p * p > end:
                break
            first = max(p * p, (start + p - 1) // p * p)
            flags[first - start :: p] = bytes(len(range(first, end + 1, p)))
        yield start, flags


def primes_between_sieve(lo, hi, segment=1 << 22):
    """Primes p with lo < p <= hi, by the bytearray sieve."""
    return [n for start, flags in _sieve_segments(max(lo + 1, 2), hi, segment)
            for n, flag in zip(range(start, start + len(flags)), flags) if flag]


def prime_count_sieve(n, segment=1 << 22):
    """pi(n) by the bytearray sieve over 2..n."""
    return sum(flags.count(1) for _, flags in _sieve_segments(2, n, segment))


def prime_count_lucy(n):
    """pi(n) by the Lucy_Hedgehog recursion on Python lists.

    small[v] = S(v) for v <= r = isqrt(n), large[i] = S(n // i), where S(v)
    counts the integers in [2, v] left after sieving by the primes below p.
    Each list comprehension reads only values from before p's update.
    """
    if n < 2:
        return 0
    r = isqrt(n)
    small = [v - 1 for v in range(r + 1)]
    large = [0] + [n // i - 1 for i in range(1, r + 1)]
    for p in range(2, r + 1):
        if small[p] == small[p - 1]:
            continue
        below = small[p - 1]
        p2 = p * p
        top = min(r, n // p2)
        mid = min(top, r // p)
        large[1 : top + 1] = (
            [large[i] - large[i * p] + below for i in range(1, mid + 1)]
            + [large[i] - small[n // (i * p)] + below for i in range(mid + 1, top + 1)])
        small[p2 : r + 1] = [small[v] - small[v // p] + below for v in range(p2, r + 1)]
    return large[1]


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


def log_table_loop(ring, g, q):
    """The log table of (g, q) in the ring as a list, one product at a time:
    t[g^x] = x for x in [0, N(q) - 2] and t[0] = -1; ValueError when the
    powers of g miss a nonzero residue."""
    order = ring.norm(q) - 1
    table = [-1] * (order + 1)
    x = 1
    for e in range(order):
        table[x] = e
        x = ring.mul(x, g, q)
    # g^order = 1 for any unit g, and table[1] keeps the largest exponent
    # below order that maps to 1: 0 exactly when g has full order.
    if x != 1 or table[1] != 0:
        raise ValueError(f"powers of {g} mod {q} miss residues; is g a generator?")
    return table


def bsgs_logs(ring, g, q):
    """The log function of base g mod q by one baby-step giant-step search
    over the whole unit group, as the package ran every log before it
    factored the group order: m = ring.baby_steps(q) baby steps {g^j: j},
    giant steps by g^-m, at most m of them. The function raises
    ValueError when the powers of g miss a."""
    order = ring.norm(q) - 1
    m = ring.baby_steps(q)
    powers, x = [], 1
    for _ in range(m):
        powers.append(x)
        x = ring.mul(x, g, q)
    if x == 0:  # g = 0 mod q has no inverse power to step by
        raise ValueError(f"{g} is 0 mod {q}, not a generator")
    baby = dict(zip(powers, range(m)))
    giant = ring.pow(x, order - 1, q)

    def log(a):
        y = ring.reduce(a, q)
        for i in range(m):
            if y in baby:
                return (i * m + baby[y]) % order
            y = ring.mul(y, giant, q)
        raise ValueError(f"no discrete log of {a} base {g} mod {q}")

    return log


def block_walk(n, params):
    """The block of an integer norm n by logarithms: the unique k >= k_min
    with E(k-1) < log2(n) <= E(k), each side decided by cmp_log2 under its
    2^-64 guard. It never forms the integer edges floor(2^E(k)) that
    generation and blocks.block_of_prime read. The guard is absolute, so it
    tells neighbouring integers apart only below about 2^64; past that it
    raises PrecisionAmbiguity for norms within about n * 2^-64 of an edge."""
    from dlogsidon._precision import cmp_log2

    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if cmp_log2(n, params.exponent(params.k_min - 1)) <= 0:
        raise ValueError(f"{n} at or below the lower edge of block {params.k_min}")
    k = params.k_min
    while cmp_log2(n, params.exponent(k)) > 0:
        k += 1
    return k


def element_walk(p, k, basis):
    """Element of an irreducible p of block k, in one walk over j = 1..k:
    the residue of p mod q_j (ExcludedPrime when it is 0), its log by dlog,
    lifted into the window of the basis order h, and the running value and
    weight W_j. The last weight is W_(k+1) = scale * W_k N_k, and the value is
    checked to land between the block rails W_k N_k < a < W_(k+1). It shares
    no column, value sum or rails check with encoder.encode_rows."""
    from dlogsidon.arith import lift_to_window
    from dlogsidon.encoder import SidonElement
    from dlogsidon.errors import ConsistencyError, ExcludedPrime

    ring, h, scale = basis.ring, basis.h, basis.scale
    digits, value, weight = [], 0, 1
    for j, (q, g, n) in enumerate(basis.moduli(k), start=1):
        r = ring.reduce(p, q)
        if r == 0:
            raise ExcludedPrime(p, k, j)
        x = lift_to_window(ring.dlog(g, r, q), n, h)
        digits.append(x)
        value += x * weight
        weight *= scale * n
    if not weight // scale < value < weight:
        raise ConsistencyError(f"element of {p} escaped (W_k N_k, W_k+1): {value}")
    return SidonElement(p=p, k=k, digits=tuple(digits), value=value)


def per_irreducible_blocks(k_max, params, basis):
    """(elements, exclusions) of blocks k_min..k_max, one irreducible at a
    time through element_walk (logs by ring.dlog): elements sorted by (block, value),
    and (p, k, basis_index) exclusions sorted by block, then by p within a
    block."""
    from dlogsidon.blocks import block_edges
    from dlogsidon.errors import ExcludedPrime

    elements, exclusions = [], []
    for k in range(params.k_min, k_max + 1):
        for p in basis.ring.irreducibles(*block_edges(k, params)):
            try:
                elements.append(element_walk(p, k, basis))
            except ExcludedPrime as e:
                exclusions.append((e.p, e.k, e.index))
    elements.sort(key=lambda e: (e.k, e.value))
    return elements, exclusions


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


def gf2_divmod(a, b):
    """(quotient, remainder) of a by b, the quotient built one term per
    cleared leading term."""
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = b.bit_length() - 1
    quo = 0
    shift = a.bit_length() - 1 - db
    while shift >= 0:
        quo ^= 1 << shift
        a ^= b << shift
        shift = a.bit_length() - 1 - db
    return quo, a


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


def gf2_irreducibles_rabin(d):
    """The irreducibles of degree d by Rabin's test on every polynomial of
    the degree, one at a time."""
    from dlogsidon.gf2x import is_irreducible
    return [f for f in range(1 << d, 1 << (d + 1)) if is_irreducible(f)]


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
    """sum -> list of index l-multisets, keeping only repeated sums."""
    groups = defaultdict(list)
    for t in combinations_with_replacement(range(len(vals)), l):
        s = sum(vals[i] for i in t)
        if modulus is not None:
            s %= modulus
        groups[s].append(t)
    return {s: ts for s, ts in groups.items() if len(ts) > 1}


def disjoint_report_keys(vals, l, modulus=None):
    """(l, sum, left values desc, right values desc) for every
    element-disjoint pair of same-sum multisets, sorted. Mirrors what the
    auditor must emit."""
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


def double_equals_pair_sum(vals):
    """True when some 2a = b + c with a, b, c in vals and a not in {b, c}."""
    values = set(vals)
    return any((b + c) % 2 == 0 and (b + c) // 2 in values
               for b, c in combinations(values, 2))


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


def is_bh_list(vals, h, modulus=None):
    """Every multiset of h values has a distinct sum (mod `modulus`)."""
    seen = {}
    for t in combinations_with_replacement(sorted(vals), h):
        s = sum(t) if modulus is None else sum(t) % modulus
        if s in seen and seen[s] != t:
            return False
        seen[s] = t
    return True


def prune_restarting(values, h):
    """Greedy B_h pruning that audits again from l = 2 after every removal:
    while two element-disjoint l-multisets (2 <= l <= h) share a sum, drop
    the largest value of the first report of the lowest such l. Returns
    (survivors ascending, removed in order)."""
    from dlogsidon.auditor import find_collisions

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
