"""Spans around calls into each dlogsidon module, and the layer metrics
derived from them.

The child process calls `install`, which rebinds every name that refers to a
listed function (in every loaded dlogsidon module, so cross-module imports
such as `from .arith import discrete_log` are caught too) to a wrapper that
records (name, start, end, parent). Nothing under src/ is edited. Spans stay
in memory in flat arrays and are written once when the run ends; the parent
reads them back and derives self times: a span's duration minus the part of
it that its child spans cover.

Hot primitives are deliberately not wrapped, because a wrapper would cost
more than the call it measures: Basis accessors (entry, q, weight, radix),
BlockParams.exponent, Constant.eval, arith.lift_to_window, arith.is_prime,
arith.factorize and the GF(2) multiply/reduce helpers. Their time lands in
the self time of the wrapped caller. Basis._extend is the one private
function wrapped: it is where a basis entry is built, and its public callers
are those per-digit accessors.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# Module (as imported under dlogsidon) -> wrapped functions. A span is named
# "<module without leading underscore>.<qualname>".
TARGETS = {
    "_precision": ("cmp_log2", "cmp_int", "pow2_floor", "int_floor", "pow2_ratio_floor"),
    "arith": ("primes_upto", "primes_in_interval", "prime_count", "discrete_log",
              "smallest_primitive_root", "is_primitive_root"),
    "basis": ("build_basis", "Basis._extend", "Basis.from_json_doc"),
    "blocks": ("block_of_prime", "primes_in_block", "sidon_params", "tapered_params",
               "BlockParams.upper_edge", "BlockParams.taper_factor"),
    "encoder": ("element_for_prime", "digits_for_block", "encode_value", "digits_of_prime",
                "decode_value"),
    "generator": ("generate_blocks", "count_upto", "finite_dlog_sidon_set",
                  "expected_finite_size"),
    "pruner": ("pruned_generate", "bad_primes", "eligible_k2s", "s_bounds"),
    "bh": ("bh_params", "bh_generate", "bh_prune", "prune_repeated_sums",
           "montecarlo_bad_ratio", "negative_taper_blocks"),
    "auditor": ("find_collisions", "find_collisions_bruteforce", "growth_bracket_check",
                "check_collision_structure"),
    "gf2x": ("is_irreducible", "irreducibles_of_degree", "irreducible_count", "gf2_generator",
             "gf2_discrete_log", "gf2_finite_sidon", "gf2_generate_blocks", "block_of_degree",
             "degrees_in_block"),
    "cli": ("main",),
}

SIEVES = ("arith.primes_upto", "arith.primes_in_interval", "arith.prime_count")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# Counters that need a call's arguments or result. Each hook gets
# (counters, wrapped function, args, kwargs, result, span seconds).
def _count_sieve_upto(c, fn, a, kw, r, dt):
    c["arith.integers_sieved"] += max(_arg(a, kw, 0, "n") - 1, 0)


def _count_sieve_interval(c, fn, a, kw, r, dt):
    iv = _arg(a, kw, 0, "iv")
    c["arith.integers_sieved"] += iv.hi - iv.lo


def _count_prime_count(c, fn, a, kw, r, dt):
    # Only a cache miss sieves anything.
    misses = fn.cache_info().misses
    if misses != c["_prime_count_misses"]:
        c["_prime_count_misses"] = misses
        c["arith.integers_sieved"] += max(_arg(a, kw, 0, "n") - 1, 0)


def _count_collisions(c, fn, a, kw, r, dt):
    l = _arg(a, kw, 1, "l")
    c["auditor.sums"] += math.comb(len(_arg(a, kw, 0, "elements")), l)
    c["auditor.reports"] += len(r)
    c["auditor.pair_s" if l == 2 else "auditor.lfold_s"] += dt


HOOKS = {
    "arith.primes_upto": _count_sieve_upto,
    "arith.primes_in_interval": _count_sieve_interval,
    "arith.prime_count": _count_prime_count,
    "auditor.find_collisions": _count_collisions,
    "auditor.find_collisions_bruteforce": _count_collisions,
    "generator.generate_blocks": lambda c, fn, a, kw, r, dt: c.update(
        {"generator.elements": len(r.elements), "generator.excluded": len(r.excluded)}),
    "pruner.s_bounds": lambda c, fn, a, kw, r, dt: c.update(
        {"pruner.pairs_empty": int(r.is_empty())}),
    "pruner.bad_primes": lambda c, fn, a, kw, r, dt: c.update({"pruner.bad_primes": len(r)}),
    "bh.prune_repeated_sums": lambda c, fn, a, kw, r, dt: c.update({"bh.removed": len(r[1])}),
    "bh.montecarlo_bad_ratio": lambda c, fn, a, kw, r, dt: c.update(
        {"bh.trials": _arg(a, kw, 2, "trials")}),
    # Irreducibles used: every block polynomial plus each basis modulus ...
    "gf2x.gf2_generate_blocks": lambda c, fn, a, kw, r, dt: c.update(
        {"gf2x.irreducibles_used": sum(r.block_sizes.values()) + len(r.basis)}),
    # ... and every low-degree irreducible (one distinct residue each) plus the modulus.
    "gf2x.gf2_finite_sidon": lambda c, fn, a, kw, r, dt: c.update(
        {"gf2x.irreducibles_used": len(r) + 1}),
}


class Recorder:
    """Spans in flat arrays; span ids are indices, assigned on entry, so a
    parent id is always smaller than its children's."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: Counter = Counter()

    def wrap(self, span_name: str, fn):
        idx = len(self.names)
        self.names.append(span_name)
        hook = HOOKS.get(span_name)
        name, parent, start, end, stack, counters = (
            self.name, self.parent, self.start, self.end, self.stack, self.counters)

        def wrapper(*args, **kwargs):
            sid = len(start)
            name.append(idx)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counters, fn, args, kwargs, result, end[sid] - start[sid])
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span_name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def write(self, path: str) -> None:
        counters = {k: v for k, v in self.counters.items() if not k.startswith("_")}
        with open(path + ".json", "w") as fh:
            json.dump({"names": self.names, "count": len(self.start), "counters": counters}, fh)
        with open(path + ".bin", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def install(recorder: Recorder) -> None:
    """Rebind every listed function, in every loaded dlogsidon module, to a
    recording wrapper. Call after importing dlogsidon.cli."""
    loaded = [m for key, m in sys.modules.items()
              if key == "dlogsidon" or key.startswith("dlogsidon.")]
    for short, quals in TARGETS.items():
        module = importlib.import_module(f"dlogsidon.{short}")
        for qual in quals:
            span_name = f"{short.lstrip('_')}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(recorder.wrap(span_name, raw.__func__)))
                else:
                    setattr(cls, attr, recorder.wrap(span_name, raw))
                continue
            orig = getattr(module, qual)
            wrapped = recorder.wrap(span_name, orig)
            for m in loaded:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)


def read(path: str):
    """(names, name ids, parents, starts, ends, counters) as written by Recorder.write."""
    with open(path + ".json") as fh:
        head = json.load(fh)
    n = head["count"]
    arrays = [array("i"), array("i"), array("d"), array("d")]
    with open(path + ".bin", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return (head["names"], *arrays, Counter(head["counters"]))


def layer_metrics(names, name_ids, parents, starts, ends, counters) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run."""
    n = len(starts)
    label = [names[i] for i in name_ids]
    module = [s.split(".", 1)[0] for s in label]
    dur = [ends[i] - starts[i] for i in range(n)]
    covered = [0.0] * n
    for i in range(n):
        if parents[i] >= 0:
            covered[parents[i]] += dur[i]

    self_s: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter(label)
    in_sieve = [False] * n      # some ancestor is a sieve span
    in_arith = [False] * n      # some ancestor is an arith span
    in_brackets = [False] * n   # some ancestor is growth_bracket_check
    sieve_s = arith_under_brackets = 0.0
    bh_audits = 0
    for i in range(n):
        p = parents[i]
        if p >= 0:
            in_sieve[i] = in_sieve[p] or label[p] in SIEVES
            in_arith[i] = in_arith[p] or module[p] == "arith"
            in_brackets[i] = in_brackets[p] or label[p] == "auditor.growth_bracket_check"
            if label[i] == "auditor.find_collisions" and module[p] == "bh":
                bh_audits += 1
        self_s[module[i]] += dur[i] - covered[i]
        total[label[i]] += dur[i]
        if label[i] in SIEVES and not in_sieve[i]:
            sieve_s += dur[i]
        if module[i] == "arith" and not in_arith[i] and in_brackets[i]:
            arith_under_brackets += dur[i]

    elements = counters["generator.elements"]
    audit_s = counters["auditor.pair_s"] + counters["auditor.lfold_s"]
    compares = calls["precision.cmp_log2"] + calls["precision.cmp_int"]
    tests = calls["gf2x.is_irreducible"]
    out = {f"{m}.self_s": self_s[m] for m in
           ("precision", "blocks", "arith", "encoder", "generator", "auditor", "bh", "basis",
            "pruner", "gf2x", "cli")}
    out.update({
        "precision.compare_calls": compares,
        "precision.compares_per_element": compares / elements if elements else 0.0,
        "blocks.block_of_prime_calls": calls["blocks.block_of_prime"],
        "arith.dlog_calls": calls["arith.discrete_log"],
        "arith.dlog_s": total["arith.discrete_log"],
        "arith.sieve_s": sieve_s,
        "arith.integers_sieved": counters["arith.integers_sieved"],
        "generator.elements": elements,
        "generator.excluded": counters["generator.excluded"],
        "generator.elements_per_s": (elements / total["generator.generate_blocks"]
                                     if elements else 0.0),
        "auditor.pair_s": counters["auditor.pair_s"],
        "auditor.lfold_s": counters["auditor.lfold_s"],
        "auditor.sums": counters["auditor.sums"],
        "auditor.sums_per_s": counters["auditor.sums"] / audit_s if audit_s else 0.0,
        "auditor.reports": counters["auditor.reports"],
        "auditor.brackets_s": total["auditor.growth_bracket_check"] - arith_under_brackets,
        "bh.audit_calls": bh_audits,
        "bh.removed": counters["bh.removed"],
        "bh.trials": counters["bh.trials"],
        "basis.entries_built": calls["basis.Basis._extend"],
        "pruner.pairs_checked": calls["pruner.s_bounds"],
        "pruner.pairs_empty": counters["pruner.pairs_empty"],
        "pruner.bad_primes": counters["pruner.bad_primes"],
        "gf2x.irreducibility_tests": tests,
        "gf2x.useful_ratio": counters["gf2x.irreducibles_used"] / tests if tests else 0.0,
        "gf2x.dlog_calls": calls["gf2x.gf2_discrete_log"],
        "gf2x.dlog_s": total["gf2x.gf2_discrete_log"],
    })
    return out
