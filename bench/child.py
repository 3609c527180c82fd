"""One pipeline run in a fresh interpreter.

Usage: python3 child.py SPEC.json

SPEC holds "src" (the directory to import dlogsidon from), "dir" (the run's
artifact directory), "steps" (lists of CLI arguments), "trace" (record spans
into the path "spans") and "result" (where to write the outcome). The parent
times setup from spawning this process until the monotonic stamp taken right
after `dlogsidon.cli` is imported. Every step is one call to
`dlogsidon.cli.main`; a step that fails ends the pipeline.
"""

import json
import os
import resource
import sys
import time
import traceback


def _weight(basis_path: str, j: int) -> int:
    """W_j = prod_{i<j} scale * q_i of a basis document."""
    with open(basis_path) as fh:
        doc = json.load(fh)
    w = 1
    for entry in sorted(doc["entries"], key=lambda e: e["j"])[: j - 1]:
        w *= doc["scale"] * entry["q"]
    return w


def _resolve(arg: str, run_dir: str) -> str:
    if arg.startswith("{weight:"):
        return str(_weight(f"{run_dir}/basis.json", int(arg[len("{weight:"):-1])))
    return arg


def main(spec_path: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import dlogsidon.cli

    imported = time.monotonic()
    if not os.path.abspath(dlogsidon.cli.__file__).startswith(os.path.abspath(spec["src"]) + os.sep):
        sys.exit(f"dlogsidon was imported from {dlogsidon.cli.__file__}, not {spec['src']}")
    recorder = None
    if spec["trace"]:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    steps = []
    for argv in spec["steps"]:
        argv = [_resolve(a, spec["dir"]) for a in argv]
        error = None
        t0 = time.perf_counter()
        try:
            rc = dlogsidon.cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            rc = e.code if isinstance(e.code, int) else 2
        except Exception:
            rc, error = 1, traceback.format_exc(limit=4)
        steps.append({"rc": rc, "seconds": time.perf_counter() - t0, "error": error})
        if rc != 0 or error:
            break
    usage = resource.getrusage(resource.RUSAGE_SELF)
    if recorder is not None:
        recorder.write(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump({"imported": imported, "steps": steps, "maxrss_kb": usage.ru_maxrss,
                   "cpu_s": usage.ru_utime + usage.ru_stime}, fh)


if __name__ == "__main__":
    main(sys.argv[1])
