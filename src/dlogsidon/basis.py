"""Radix basis: a prime and a primitive root per dyadic interval.

The j-th entry is a prime q_j from (2^(2j-1), 2^(2j+1)] together with a
primitive root g_j, and the j-th radix is scale * q_j. Entries extend on
demand, so callers never size the basis up front. A basis parsed back from
JSON is frozen at its stored length.
"""

from __future__ import annotations

import random
from math import isqrt

from .arith import PrimeInterval, is_prime, is_primitive_root, primes_in_interval, smallest_primitive_root
from .errors import BasisGap

# Largest index materialized on demand; the j = 12 interval already needs a
# sieve to 2^25. Anything past this is out of desk range.
MAX_INDEX = 12


def dyadic_interval(j: int) -> PrimeInterval:
    """The prime pool (2^(2j-1), 2^(2j+1)] for entry j >= 1."""
    if j < 1:
        raise ValueError(f"basis index must be >= 1, got {j}")
    return PrimeInterval(1 << (2 * j - 1), 1 << (2 * j + 1))


class Basis:
    """Append-only list of (q_j, g_j) pairs with cached radix weights.

    mode is one of "deterministic" (least prime per interval), "random"
    (uniform prime per interval, explicit seed) or "fixed" (entries supplied,
    never extended). Readers always see a consistent prefix: entries are
    appended one at a time and never mutated.
    """

    def __init__(self, scale: int, entries=(), *, mode: str = "deterministic",
                 seed: int | None = None, require_dyadic: bool = True,
                 max_index: int = MAX_INDEX):
        root = isqrt(scale)
        if root < 2 or root * root != scale:
            raise ValueError(f"scale must be a perfect square of an integer >= 2, got {scale}")
        if mode not in ("deterministic", "random", "fixed"):
            raise ValueError(f"unknown basis mode {mode!r}")
        if mode == "random" and seed is None:
            raise ValueError("random basis needs an explicit seed")
        self.scale = scale
        self.mode = mode
        self.seed = seed
        self.max_index = max_index
        self._rng = random.Random(seed) if mode == "random" else None
        self._entries: list[tuple[int, int]] = []
        self._weights: list[int] = [1]  # _weights[j-1] = W_j = prod_{i<j} scale*q_i
        for j, (q, g) in enumerate(entries, start=1):
            self._check_entry(j, q, g, require_dyadic)
            self._append(q, g)

    def _check_entry(self, j, q, g, require_dyadic):
        if not is_prime(q):
            raise ValueError(f"basis entry q_{j} = {q} is not prime")
        if require_dyadic and q not in dyadic_interval(j):
            raise ValueError(f"q_{j} = {q} outside {dyadic_interval(j)}")
        if not is_primitive_root(g, q):
            raise ValueError(f"g_{j} = {g} is not a primitive root mod {q}")
        if any(q == q_i for q_i, _ in self._entries):
            raise ValueError(f"duplicate basis prime {q}")

    def _append(self, q, g):
        self._entries.append((q, g))
        self._weights.append(self._weights[-1] * self.scale * q)

    def _extend(self):
        j = len(self._entries) + 1
        if self.mode == "fixed":
            raise BasisGap(f"fixed basis has {len(self._entries)} entries, no entry {j}")
        if j > self.max_index:
            raise BasisGap(f"entry {j} beyond the materialization bound {self.max_index}")
        pool = primes_in_interval(dyadic_interval(j))
        if not pool:
            raise BasisGap(f"no prime in {dyadic_interval(j)}")
        q = pool[0] if self.mode == "deterministic" else self._rng.choice(pool)
        self._append(q, smallest_primitive_root(q))

    def ensure(self, count: int) -> None:
        while len(self._entries) < count:
            self._extend()

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, j: int) -> tuple[int, int]:
        """(q_j, g_j), 1-based, extending on demand."""
        if j < 1:
            raise ValueError(f"basis index must be >= 1, got {j}")
        if j > len(self._entries):
            self.ensure(j)
        return self._entries[j - 1]

    def q(self, j: int) -> int:
        return self.entry(j)[0]

    def g(self, j: int) -> int:
        return self.entry(j)[1]

    def radix(self, j: int) -> int:
        return self.scale * self.entry(j)[0]

    def weight(self, j: int) -> int:
        """W_j = prod_{i<j} scale * q_i, so W_1 = 1."""
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
                        for j, (q, g) in enumerate(self._entries, start=1)],
        }

    @classmethod
    def from_json_doc(cls, doc: dict) -> "Basis":
        rows = sorted(doc["entries"], key=lambda row: row["j"])
        if [row["j"] for row in rows] != list(range(1, len(rows) + 1)):
            raise ValueError("basis entries must cover j = 1..n without gaps")
        return cls(doc["scale"], [(row["q"], row["g"]) for row in rows], mode="fixed")


def build_basis(mode: str, scale: int, count: int, seed: int | None = None) -> Basis:
    """Basis with `count` entries materialized up front."""
    b = Basis(scale, mode=mode, seed=seed)
    b.ensure(count)
    return b
