"""The four fixed CLI pipelines and the checks their outputs must pass.

A pipeline is a list of `dlogsidon` command lines run in order in one fresh
interpreter. Arguments may hold placeholders that are filled in per run:
`{dir}` (the run's artifact directory), `{seed}` (the benchmark seed) and
`{weight:N}` (W_N of the basis in `{dir}/basis.json`, resolved in the child
just before the step runs, because the basis is only known once its own step
has written it).

Every check here holds for any seed; hash comparisons live in run.py.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Step:
    """One CLI call. `role` is "build" (counted in build_s), "audit" (in
    audit_s) or "other"; `reads` and `writes` name artifacts in the run
    directory."""

    argv: tuple[str, ...]
    role: str = "other"
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[Step, ...]
    uses_seed: bool = True


def _sidon(kmax: int) -> tuple[Step, ...]:
    return (
        Step(("basis", "--count", str(kmax + 1), "--basis", "random", "--seed", "{seed}",
              "--out", "{dir}/basis.json"), writes=("basis.json",)),
        Step(("generate", "--c", "sqrt5", "--kmax", str(kmax), "--basis-file", "{dir}/basis.json",
              "--out", "{dir}/elements.jsonl", "--summary", "{dir}/summary.json"),
             role="build", reads=("basis.json",), writes=("elements.jsonl", "summary.json")),
        Step(("audit", "--input", "{dir}/elements.jsonl", "--l", "2", "--out", "{dir}/audit.jsonl"),
             role="audit", reads=("elements.jsonl",), writes=("audit.jsonl",)),
        Step(("count", "--x", f"{{weight:{kmax + 1}}}", "--kmax", str(kmax),
              "--basis-file", "{dir}/basis.json", "--brackets", "--out", "{dir}/count.json"),
             reads=("basis.json",), writes=("count.json",)),
    )


def _prune(kmax: int) -> tuple[Step, ...]:
    return (
        Step(("prune", "--c", "sqrt2", "--kmax", str(kmax), "--basis", "random", "--seed", "{seed}",
              "--bad-out", "{dir}/bad.jsonl", "--out", "{dir}/elements.jsonl",
              "--summary", "{dir}/summary.json"),
             role="build", writes=("elements.jsonl", "bad.jsonl", "summary.json")),
        Step(("audit", "--input", "{dir}/elements.jsonl", "--l", "2", "--out", "{dir}/audit.jsonl"),
             role="audit", reads=("elements.jsonl",), writes=("audit.jsonl",)),
    )


def _bh(kmax: int, mc_kmax: int, trials: int) -> tuple[Step, ...]:
    return (
        Step(("bh", "generate", "--h", "3", "--kmax", str(kmax), "--basis", "random",
              "--seed", "{seed}", "--out", "{dir}/elements.jsonl", "--summary", "{dir}/summary.json"),
             role="build", writes=("elements.jsonl", "summary.json")),
        Step(("audit", "--input", "{dir}/elements.jsonl", "--l", "3", "--out", "{dir}/audit.jsonl"),
             role="audit", reads=("elements.jsonl",), writes=("audit.jsonl",)),
        Step(("bh", "montecarlo", "--h", "3", "--kmax", str(mc_kmax), "--trials", str(trials),
              "--seed", "{seed}", "--out", "{dir}/montecarlo.json"), writes=("montecarlo.json",)),
    )


def _gf2(kmax: int, n: int) -> tuple[Step, ...]:
    return (
        Step(("gf2", "generate", "--kmax", str(kmax), "--out", "{dir}/elements.jsonl",
              "--summary", "{dir}/summary.json"),
             role="build", writes=("elements.jsonl", "summary.json")),
        Step(("audit", "--input", "{dir}/elements.jsonl", "--l", "2", "--out", "{dir}/audit.jsonl"),
             role="audit", reads=("elements.jsonl",), writes=("audit.jsonl",)),
        # Also a construction (the finite Sidon set in Z_(2^n - 1)), and where
        # most of the gf2x enumeration happens; it keeps build_s on this
        # workload from being a 0.4 s step that host jitter swamps.
        Step(("gf2", "finite", "--n", str(n), "--out", "{dir}/finite.json"),
             role="build", writes=("finite.json",)),
    )


# Sizes were chosen so that one pipeline takes a few seconds on a 2-core box
# and each workload loads a different layer; BENCHMARK.json says why each was
# chosen and bench/README.md maps layers to workloads.
WORKLOADS = {
    w.name: w for w in (
        Workload("sidon-k7", _sidon(7)),
        Workload("prune-k7", _prune(7)),
        Workload("bh3-k11", _bh(11, 9, 20)),
        Workload("gf2-k6", _gf2(6, 17), uses_seed=False),
    )
}

# Same code path at k <= 4, for the benchmark's own tests.
SMOKE = {
    w.name: w for w in (
        Workload("sidon-k7", _sidon(4)),
        Workload("prune-k7", _prune(4)),
        Workload("bh3-k11", _bh(4, 4, 3)),
        Workload("gf2-k6", _gf2(4, 8), uses_seed=False),
    )
}


def fill(arg: str, run_dir: str, seed: int) -> str:
    """Fill the parent-side placeholders; `{weight:N}` is left for the child."""
    return arg.replace("{dir}", run_dir).replace("{seed}", str(seed))


def _lines(path: str) -> list[str]:
    with open(path) as fh:
        return [line for line in fh.read().splitlines() if line.strip()]


def _doc(path: str):
    with open(path) as fh:
        return json.load(fh)


def check_outputs(run_dir: str) -> list[str]:
    """Seed-independent checks on whichever artifacts the pipeline wrote.

    Returns a list of problems; an empty list means every check passed.
    """
    problems = []

    def path(name):
        return os.path.join(run_dir, name)

    def exists(name):
        return os.path.exists(path(name))

    if exists("audit.jsonl") and os.path.getsize(path("audit.jsonl")) != 0:
        problems.append("audit report is not empty")
    if exists("summary.json") and exists("elements.jsonl"):
        summary = _doc(path("summary.json"))
        n = len(_lines(path("elements.jsonl")))
        primes = sum(b["block_size"] for b in summary["blocks"])
        if "kept" in summary:  # prune: the summary carries no exclusion list
            bad = len(_lines(path("bad.jsonl")))
            excluded = primes - bad - n
            if summary["kept"] != n or summary["bad_total"] != bad:
                problems.append("prune summary disagrees with its artifacts")
            # Each basis prime q_j (j <= kmax) can equal at most one block prime.
            if not 0 <= excluded <= summary["k_max"]:
                problems.append(f"prune lost {excluded} primes beyond bad and excluded ones")
        else:
            if "excluded" in summary:
                excluded = len(summary["excluded"])
            else:  # bh: per-block exclusion counts only
                excluded = sum(b["excluded"] for b in summary["blocks"])
            removed = len(summary.get("removed", ()))
            if n != primes - excluded - removed:
                problems.append(f"{n} elements but {primes} block primes, {excluded} "
                                f"excluded and {removed} removed")
    if exists("count.json"):
        rows = _doc(path("count.json"))["brackets"]
        if not rows or not all(r["count_ok"] and r["elements_ok"] for r in rows):
            problems.append("a growth bracket row failed")
    if exists("montecarlo.json"):
        doc = _doc(path("montecarlo.json"))
        ratios = [r["ratio"] for t in doc["per_trial"] for r in t["ratios"]]
        ratios += [x for r in doc["per_k"] for x in (r["mean_ratio"], r["max_ratio"])]
        if not all(0 <= x <= 1 for x in ratios):
            problems.append("a Monte-Carlo ratio lies outside [0, 1]")
    if exists("finite.json") and _doc(path("finite.json"))["sidon"] is not True:
        problems.append("gf2 finite set is not Sidon")
    return problems
