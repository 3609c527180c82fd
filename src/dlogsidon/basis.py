"""Radix basis over a ring: an irreducible q_j and a generator g_j per index.

The j-th radix is scale * N_j, where N_j is the norm of q_j: q_j itself
over Z, 2^deg(q_j) over GF(2)[X]. Random and deterministic bases extend
on demand, so callers never size the basis up front; a basis of given
entries is frozen at its length. No basis of any kind holds more than
MAX_INDEX entries.

The ring (arith.INTEGERS, the default, or gf2x.GF2) holds all that differs
between the two constructions, and its basis_entry(j) gives the
deterministic entries. Over Z, q_j is a prime from (2^(2j-1), 2^(2j+1)]:
the deterministic basis takes the least one by a primality scan, random
bases draw from a per-interval pool, an int64 array from arith.prime_array
that is sieved once per process. Random.choice indexes the array as it
would a tuple, so a seed draws the same q_j either way. Given entries need
only be distinct primes with generators; the dyadic windows are checked
where documents come in, in Basis.from_json_doc, so synthetic bases of any
primes serve the tests.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import isqrt

import numpy as np

from .arith import INTEGERS, dyadic_interval, is_prime, prime_array
from .errors import BasisGap

# Largest index materialized on demand; a random j = 13 entry needs a sieve
# of (2^25, 2^27], 1.0e8 integers (5.0e7 odd flags) and 5.5M primes, just
# inside the sieve limit, about 0.3 s. Entry 14's window is past that limit.
MAX_INDEX = 13


@lru_cache(maxsize=None)
def _window_pool(j: int) -> np.ndarray:
    """Every prime of dyadic_interval(j), ascending, as a read-only int64
    array; shared by all random bases."""
    pool = prime_array(dyadic_interval(j))
    pool.flags.writeable = False
    return pool


class Basis:
    """Append-only list of (q_j, g_j, N_j) entries with cached radix weights.

    scale = h^2 fixes the window order h of every digit cut over this basis.

    Given (q_j, g_j) entries make a fixed basis that never extends; a seed
    makes a random one (a uniform prime per window); neither gives the
    ring's deterministic basis_entry(j) basis. Fixed and random bases are
    Z only. Readers always see a consistent prefix: entries are appended
    one at a time and never mutated.
    """

    def __init__(self, scale: int, entries=None, *, seed: int | None = None, ring=INTEGERS):
        root = isqrt(scale)
        if root < 2 or root * root != scale:
            raise ValueError(f"scale must be a perfect square of an integer >= 2, got {scale}")
        if (entries is not None) + (seed is not None) + (ring is not INTEGERS) > 1:
            raise ValueError("a basis takes given entries, a seed or a ring other than Z, "
                             "at most one of them")
        if entries is not None and len(entries) > MAX_INDEX:
            raise BasisGap(f"entry {MAX_INDEX + 1} beyond the materialization bound {MAX_INDEX}")
        self.ring = ring
        self.scale = scale
        self.h = root
        self._rng = None if seed is None else random.Random(seed)
        self._fixed = entries is not None
        self._entries: list[tuple[int, int, int]] = []
        self._weights: list[int] = [1]  # _weights[j-1] = W_j = prod_{i<j} scale*N_i
        for j, (q, g) in enumerate(entries or (), start=1):
            self._check_entry(j, q, g)
            self._append(q, g)

    def _check_entry(self, j, q, g):
        if not is_prime(q):
            raise ValueError(f"basis entry q_{j} = {q} is not prime")
        if not self.ring.is_generator(g, q):
            raise ValueError(f"g_{j} = {g} is not a primitive root mod {q}")
        if any(q == q_i for q_i, _, _ in self._entries):
            raise ValueError(f"duplicate basis prime {q}")

    def _append(self, q, g):
        n = self.ring.norm(q)
        self._entries.append((q, g, n))
        self._weights.append(self._weights[-1] * self.scale * n)

    def _extend(self):
        j = len(self._entries) + 1
        if self._fixed:
            raise BasisGap(f"fixed basis has {len(self._entries)} entries, no entry {j}")
        if j > MAX_INDEX:
            raise BasisGap(f"entry {j} beyond the materialization bound {MAX_INDEX}")
        if self._rng is None:
            self._append(*self.ring.basis_entry(j))
        else:
            q = int(self._rng.choice(_window_pool(j)))
            self._append(q, self.ring.generator(q))

    def ensure(self, count: int) -> None:
        while len(self._entries) < count:
            self._extend()

    def __len__(self) -> int:
        return len(self._entries)

    def _row(self, j: int) -> tuple[int, int, int]:
        """(q_j, g_j, N_j), 1-based, extending on demand."""
        if j < 1:
            raise ValueError(f"basis index must be >= 1, got {j}")
        self.ensure(j)
        return self._entries[j - 1]

    def q(self, j: int) -> int:
        return self._row(j)[0]

    def norm(self, j: int) -> int:
        """N_j, the size of the residue ring mod q_j (q_j itself over Z)."""
        return self._row(j)[2]

    def moduli(self, k: int) -> list[tuple[int, int, int]]:
        """(q_j, g_j, N_j) for j = 1..k, extending on demand."""
        if k > len(self._entries):
            self.ensure(k)
        return self._entries[:k]

    def radix(self, j: int) -> int:
        return self.scale * self.norm(j)

    def weight(self, j: int) -> int:
        """W_j = prod_{i<j} scale * N_i, so W_1 = 1."""
        if j < 1:
            raise ValueError(f"weight index must be >= 1, got {j}")
        if j > len(self._weights):
            self.ensure(j - 1)
        return self._weights[j - 1]

    def prime_product(self, j_lo: int, j_hi: int) -> int:
        """prod of q_j for j_lo <= j <= j_hi (1 when empty)."""
        out = 1
        for j in range(j_lo, j_hi + 1):
            out *= self.q(j)
        return out

    def to_json_doc(self) -> dict:
        return {
            "scale": self.scale,
            "entries": [{"j": j, "q": q, "g": g}
                        for j, (q, g, _) in enumerate(self._entries, start=1)],
        }

    @classmethod
    def from_json_doc(cls, doc: dict) -> "Basis":
        """The fixed basis of a to_json_doc document; a missing or ill-typed
        field, or a q_j outside dyadic_interval(j), raises ValueError naming
        it."""
        def field(obj, key, kind, path):
            value = obj.get(key) if isinstance(obj, dict) else None
            if type(value) is not kind:
                what = "an integer" if kind is int else "a list"
                raise ValueError(f"basis document: {path} is missing or not {what}")
            return value

        scale = field(doc, "scale", int, "scale")
        rows = sorted(tuple(field(row, key, int, f"entries[{i}].{key}")
                            for key in ("j", "q", "g"))
                      for i, row in enumerate(field(doc, "entries", list, "entries")))
        if [j for j, _, _ in rows] != list(range(1, len(rows) + 1)):
            raise ValueError("basis entries must cover j = 1..n without gaps")
        for j, q, _ in rows:
            if q not in dyadic_interval(j):
                raise ValueError(f"q_{j} = {q} outside {dyadic_interval(j)}")
        return cls(scale, [(q, g) for _, q, g in rows])


def build_basis(scale: int, count: int, seed: int | None = None) -> Basis:
    """Basis with `count` entries materialized up front: a random one for a
    seed, else the deterministic one."""
    b = Basis(scale, seed=seed)
    b.ensure(count)
    return b
