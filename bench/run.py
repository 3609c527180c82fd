"""Desk-scale benchmark of the dlogsidon CLI.

Usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py --workload all ...    every workload, one after another
  python3 bench/run.py --smoke ...           the same pipelines at k <= 4
  python3 bench/run.py --record              rewrite bench/reference.json

Closed loop, one client: pipeline runs go one at a time, each in a fresh
interpreter (so no lru_cache survives from one run to the next), for as long
as the next run should end within --seconds. With --trace 0 the last stdout
line reports the end-to-end metrics of BENCHMARK.json: step times as means
over the runs, whose inputs come from seeds derived from --seed, so that
they average over several random bases, and setup time and peak memory as
medians; with --trace 1 it reports the per-layer
metrics from traced runs of --seed itself, interleaved with untraced runs
that give the tracing overhead. Every run's outputs are checked; a run with
a non-zero exit, an exception or a failed check counts as failed.
See bench/README.md for the workloads, metrics and what each layer moves.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import spans
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(BENCH, "reference.json")
DEFAULT_SEED = 1
SETUP_SPAWNS = 5
# A pipeline run takes at most about 13 s on a 2-core box; the cap keeps
# even three hung runs of a traced invocation inside 180 s.
CHILD_TIMEOUT_S = 50

# Untraced runs of one invocation cycle through this many input seeds,
# seed * RUN_SEEDS + i, more than a 30 s invocation has runs: on sidon-k7
# the audit of one random basis's prefix takes up to 1.6 times as long as
# another's, so with a single basis per invocation the reported times would
# depend on which seed was drawn more than on the program.
RUN_SEEDS = 6

# End-to-end step times, reported as the mean over the runs of an invocation:
# each run has other inputs, and with the two to five runs that fit in 30 s
# a median would report one basis's time and drop the others'.
MEAN_OF = ("wall_s", "build_s", "audit_s")

# Counts that must repeat exactly across traced runs of one seed.
STABLE_COUNTS = ("precision.compare_calls", "arith.dlog_calls", "arith.integers_sieved",
                 "auditor.sums", "gf2x.irreducibility_tests", "bh.audit_calls")


class SetupFailed(Exception):
    """The program could not even be imported; no result is printed."""


def _spawn(spec: dict, work: str) -> tuple[dict | None, list[str]]:
    """Run child.py on `spec`; return its result document and any problems."""
    os.makedirs(work, exist_ok=True)
    spec_path = os.path.join(work, "spec.json")
    spec = dict(spec, src=os.path.join(ROOT, "src"), result=os.path.join(work, "result.json"))
    if os.path.exists(spec["result"]):
        os.remove(spec["result"])
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "child.py"), spec_path],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, cwd=work)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, [f"child timed out after {CHILD_TIMEOUT_S} s"]
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0 or not os.path.exists(spec["result"]):
        tail = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
        return None, [f"child exited {proc.returncode}: {tail[0]}"]
    with open(spec["result"]) as fh:
        result = json.load(fh)
    result["setup_s"] = result["imported"] - t0
    return result, []


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _size(run_dir: str, name: str) -> int:
    path = os.path.join(run_dir, name)
    return os.path.getsize(path) if os.path.exists(path) else 0


def check_artifacts(workload: workloads.Workload, run_dir: str) -> tuple[dict, list[str]]:
    """SHA-256 of every artifact the pipeline writes, and the problems that
    the seed-independent output checks find."""
    hashes, problems = {}, []
    for step in workload.steps:
        for name in step.writes:
            path = os.path.join(run_dir, name)
            if os.path.exists(path):
                hashes[name] = _sha256(path)
            else:
                problems.append(f"missing artifact {name}")
    try:
        problems.extend(workloads.check_outputs(run_dir))
    except (OSError, ValueError, KeyError, TypeError) as e:
        problems.append(f"unreadable artifact: {e!r}")
    return hashes, problems


def run_seed(workload: workloads.Workload, seed: int, index: int, trace: bool) -> int | None:
    """The seed of the inputs of run `index` of an invocation with `seed`;
    None for a workload whose inputs do not depend on the seed."""
    if not workload.uses_seed:
        return None
    return seed if trace else seed * RUN_SEEDS + index % RUN_SEEDS


def run_pipeline(workload: workloads.Workload, seed: int | None, work: str, trace: bool) -> dict:
    """One pipeline run in a fresh child; returns its measurements and problems."""
    run_dir = os.path.join(work, "artifacts")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    spans_path = os.path.join(work, "spans")
    steps = workload.steps
    spec = {"dir": run_dir, "trace": trace, "spans": spans_path,
            "steps": [[workloads.fill(a, run_dir, seed) for a in s.argv] for s in steps]}
    result, problems = _spawn(spec, work)
    run = {"trace": trace, "seed": seed, "problems": problems, "hashes": {}}
    if result is None:
        return run
    done = result["steps"]
    for step, outcome in zip(steps, done):
        if outcome["rc"] != 0 or outcome["error"]:
            problems.append(f"{' '.join(step.argv[:2])} exited {outcome['rc']}: "
                            f"{(outcome['error'] or '').strip()[-300:]}")
    if len(done) < len(steps):
        problems.append(f"pipeline stopped after {len(done)} of {len(steps)} steps")
    else:
        hashes, found = check_artifacts(workload, run_dir)
        run["hashes"] = hashes
        problems.extend(found)
    run.update({
        "setup_s": result["setup_s"],
        "wall_s": sum(o["seconds"] for o in done),
        "build_s": sum(o["seconds"] for s, o in zip(steps, done) if s.role == "build"),
        "audit_s": sum(o["seconds"] for s, o in zip(steps, done) if s.role == "audit"),
        "peak_rss_mb": result["maxrss_kb"] / 1024,
        "cpu_s": result["cpu_s"],
        "bytes_written": sum(_size(run_dir, n) for s in steps for n in s.writes),
        "bytes_read": sum(_size(run_dir, n) for s in steps for n in s.reads),
    })
    if trace and not problems:
        run["layers"] = spans.layer_metrics(*spans.read(spans_path))
    return run


def _seed_key(seed: int | None) -> str:
    return "any" if seed is None else str(seed)


def judge_runs(runs: list[dict], reference: dict) -> None:
    """Add problems for artifacts whose hashes differ from the reference
    recorded for the run's seed or, for a seed with no reference, from the
    first complete run of the same seed; and for exact counts that differ
    between traced runs."""
    first: dict[str, dict] = {}
    counts = None
    for run in runs:
        key = _seed_key(run["seed"])
        if run["hashes"]:
            first.setdefault(key, run["hashes"])
        expected = reference.get(key)
        for name, digest in sorted(run["hashes"].items()):
            if expected is not None and expected.get(name) != digest:
                run["problems"].append(f"{name} differs from the reference hash")
            elif digest != first[key].get(name):
                run["problems"].append(f"{name} differs from the first run's")
        if "layers" in run:
            mine = {k: run["layers"][k] for k in STABLE_COUNTS}
            if counts is None:
                counts = mine
            elif mine != counts:
                diff = sorted(k for k in STABLE_COUNTS if mine[k] != counts[k])
                run["problems"].append(f"exact counts changed between traced runs: {diff}")


def reference_hashes(workload: workloads.Workload, smoke: bool) -> dict:
    """The recorded artifact hashes of a workload: {seed or "any": {name: sha256}}."""
    with open(REFERENCE) as fh:
        return json.load(fh)["smoke" if smoke else "full"].get(workload.name, {})


def measure(workload: workloads.Workload, seed: int, seconds: float, trace: bool,
            reference: dict, work: str = WORK) -> dict:
    """All runs of one workload for `seconds`: {"runs", "setup_samples"}."""
    work = os.path.join(work, workload.name)

    def import_only() -> float:
        result, problems = _spawn({"dir": work, "trace": False, "steps": []}, work)
        if result is None:
            raise SetupFailed(f"cannot import dlogsidon from {os.path.join(ROOT, 'src')}: "
                              + "; ".join(problems))
        return result["setup_s"]

    import_only()  # warm-up: byte-compiles the package once, as an installed CLI has
    setups = [] if trace else [import_only() for _ in range(SETUP_SPAWNS)]
    # Traced mode: one untraced run, two traced ones (for the exact-count
    # check), then alternate. After the planned runs, a run starts only if
    # it should end within `seconds`, judged by the slowest run of its kind.
    plan = [False] if not trace else [False, True, True]
    runs: list[dict] = []
    took: dict[bool, list[float]] = {False: [], True: []}
    t_start = time.monotonic()
    while True:
        if len(runs) < len(plan):
            traced = plan[len(runs)]
        else:
            traced = trace and not runs[-1]["trace"]
            if time.monotonic() - t_start + max(took[traced], default=0) > seconds:
                break
        t0 = time.monotonic()
        runs.append(run_pipeline(workload, run_seed(workload, seed, len(runs), trace),
                                 work, traced))
        took[traced].append(time.monotonic() - t0)
    judge_runs(runs, reference)
    setups += [r["setup_s"] for r in runs if "setup_s" in r]
    return {"runs": runs, "setup_samples": setups}


def failed_runs(runs: list[dict]) -> list[dict]:
    """Runs that exited non-zero, raised, or failed an output check."""
    return [r for r in runs if r["problems"]]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def metrics_of(measured: dict, trace: bool, spec: dict) -> tuple[dict, dict]:
    """The BENCHMARK.json metrics of one workload as {name: {value, unit}},
    and how each value was taken ("mean of 3", "median of 8")."""
    runs = [r for r in measured["runs"] if not r["problems"]]
    plain = [r for r in runs if not r["trace"]]
    traced = [r for r in runs if r["trace"]]
    if not trace:
        listed = spec["end_to_end"]
        values = {m["name"]: [r[m["name"]] for r in plain] for m in listed}
        values["setup_s"] = measured["setup_samples"]
    else:
        listed = spec["per_layer"]
        values = {k: [r["layers"][k] for r in traced] for k in (traced[0]["layers"] if traced else ())}
        values["cli.bytes_written"] = [r["bytes_written"] for r in traced]
        values["cli.bytes_read"] = [r["bytes_read"] for r in traced]
        values["process.cpu_s"] = [r["cpu_s"] for r in plain]
        base = _median(r["wall_s"] for r in plain)
        overhead = _median(r["wall_s"] for r in traced) / base - 1 if base and traced else 0.0
        values["trace.overhead_frac"] = [overhead]
    metrics, samples = {}, {}
    for m in listed:
        name, got = m["name"], list(values.get(m["name"], ()))
        mean = not trace and name in MEAN_OF
        value = (statistics.fmean(got) if got else 0.0) if mean else _median(got)
        metrics[name] = {"value": value, "unit": m["unit"]}
        samples[name] = f"{'mean' if mean else 'median'} of {len(got)}"
    return metrics, samples


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "unknown"


def machine_info(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "mpmath": _version("mpmath"),
        "seed": seed,
        "loadavg_1m": os.getloadavg()[0],
        "platform": platform.platform(),
    }


def record() -> None:
    """Write to reference.json the artifact hashes of every workload for every
    input seed that an invocation with the default seed uses."""
    doc = {}
    for key, table in (("full", workloads.WORKLOADS), ("smoke", workloads.SMOKE)):
        doc[key] = {}
        for name, wl in table.items():
            doc[key][name] = {}
            seeds = {run_seed(wl, DEFAULT_SEED, i, trace)
                     for i in range(RUN_SEEDS) for trace in (False, True)}
            for seed in sorted(seeds, key=_seed_key):
                run = run_pipeline(wl, seed, os.path.join(WORK, "record", key, name), False)
                if run["problems"]:
                    raise SystemExit(f"{key} {name} seed {seed}: {run['problems']}")
                doc[key][name][_seed_key(seed)] = run["hashes"]
                print(f"recorded {key} {name} seed {_seed_key(seed)}: "
                      f"{len(run['hashes'])} artifacts", flush=True)
    with open(REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="one of " + ", ".join(workloads.WORKLOADS) + ", or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="the same pipelines at k <= 4")
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json from one run of each pipeline")
    args = parser.parse_args(argv)
    if args.record:
        record()
        return 0
    table = workloads.SMOKE if args.smoke else workloads.WORKLOADS
    names = list(table) if args.workload == "all" else [args.workload]
    if any(n not in table for n in names):
        parser.error(f"unknown workload {args.workload!r}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    info = machine_info(args.seed)
    print("# machine " + " ".join(f"{k}={v}" for k, v in info.items()), flush=True)
    trace = bool(args.trace)
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    report = {"machine": info, "workloads": {}}
    for name in names:
        try:
            measured = measure(table[name], args.seed, seconds, trace,
                               reference_hashes(table[name], args.smoke))
        except SetupFailed as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        runs = measured["runs"]
        bad = failed_runs(runs)
        attempted += len(runs)
        failed += len(bad)
        mine, samples = metrics_of(measured, trace, spec)
        print(f"# {name}: {len(runs)} runs, {len(bad)} failed "
              f"(failed_frac {len(bad) / len(runs):.3f})")
        for r in bad:
            print(f"#   failed run: {'; '.join(r['problems'])}")
        for metric, v in mine.items():
            print(f"{name:9} {metric:32} {v['value']:14.6g} {v['unit']:6} "
                  f"({samples[metric]})")
        report["workloads"][name] = {"runs": runs, "setup_samples": measured["setup_samples"],
                                     "metrics": mine}
        prefix = "" if len(names) == 1 else name + "."
        metrics.update({prefix + k: v for k, v in mine.items()})
    os.makedirs(WORK, exist_ok=True)
    out = os.path.join(WORK, f"results-{args.workload}-seed{args.seed}-trace{args.trace}"
                             f"{'-smoke' if args.smoke else ''}.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"# results written to {os.path.relpath(out, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
