"""Run one benchmark workload and print its result as the last line.

    python3 bench/run.py --workload train-auxi-ushape --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

``all`` runs every workload, each in its own process and one after another,
and sums their counts. Run from the root of a source checkout: the program is imported from
``src/`` of that checkout, never from an installed copy. With ``--trace 0``
the result holds the end-to-end metrics; with ``--trace 1`` the per-layer
metrics. Datasets and checkpoints live under ``.bench_work/`` while the run
lasts; the result, its provenance and (traced) the spans stay in
``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
END_TO_END_UNITS = {"setup_s": "s", "train_samples_per_s": "samples/s",
                    "valid_candidates_per_min": "candidates/min",
                    "val_reward": "ratio", "peak_rss_mb": "MB"}


def git_rev(root: str) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def blas_info(np) -> dict:
    """OpenBLAS version from numpy's build record and its live thread count."""
    info = {"blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
            "blas_threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def run_all(args, names) -> int:
    """Each workload in a process of its own; one line per workload, then the
    summed counts and every metric under ``<workload>/<metric>``."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(proc.stderr, file=sys.stderr)
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} " + " ".join(
                  f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items()))
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "auxnas", "__init__.py")):
        print(f"error: no program source at {SRC}/auxnas; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("AUXNAS_THREADS", None)  # the program's own parallelism stays off
    sys.path.insert(0, SRC)
    import numpy as np
    import workloads

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import auxnas
    if os.path.dirname(os.path.abspath(auxnas.__file__)) != os.path.join(SRC, "auxnas"):
        print(f"error: auxnas imported from {auxnas.__file__}, not {SRC}", file=sys.stderr)
        return 2

    stem = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    base = os.path.join(ROOT, ".bench_work")
    work = os.path.join(base, stem)
    os.makedirs(os.path.join(base, "results"), exist_ok=True)
    os.makedirs(work)
    try:
        summary = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        from tracing import PER_LAYER_UNITS as units
    else:
        units = END_TO_END_UNITS
        if summary["metrics"]:
            summary["metrics"]["peak_rss_mb"] = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_rev": git_rev(ROOT),
        "python": platform.python_version(), "numpy": np.__version__, **blas_info(np),
        "auxnas_threads": os.environ.get("AUXNAS_THREADS", "unset"),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "seeds": summary["seeds"], "rounds": summary["rounds"],
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    if summary["error"]:
        print(summary["error"], file=sys.stderr)
    result = {
        "correct": summary["error"] is None,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": summary["metrics"][k], "unit": u}
                    for k, u in units.items() if k in summary["metrics"]},
    }
    with open(os.path.join(base, "results", stem + ".json"), "w") as fh:
        json.dump({"provenance": provenance, "error": summary["error"], **result,
                   "setup": summary["setup"], "timings": summary["timings"]}, fh, indent=1)
    if summary["spans"]:
        with open(os.path.join(base, "results", stem + ".spans.json"), "w") as fh:
            json.dump({"fields": ["name", "layer", "start_ns", "end_ns", "parent", "phase",
                                  "bucket", "extra"], "spans": summary["spans"]}, fh)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
