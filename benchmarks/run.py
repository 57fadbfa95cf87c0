"""Benchmark of patchpos training, one workload per invocation.

    python3 benchmarks/run.py --workload pretrain-paper --seed 0 --seconds 50 --trace 0

Workloads: pretrain-paper, finetune-seg (see workloads.py and
BENCHMARK.json for why each exists). The inputs are generated from --seed in
a child process, so neither their generation time nor their memory counts.
BLAS runs on one thread, pinned here before numpy loads.

Prints a run manifest, one line per metric and check, and as its last line
one JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics, and the spans go to
.bench_build/traces/<workload>-seed<seed>.json (summarize.py reads them).
Exits non-zero when a check fails or the library cannot be loaded.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pretrain-paper", "finetune-seg")
IMPORT_CHILDREN = 4    # fresh interpreters that time the import next to this one


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
        return lines[1]
    return "unknown"       # e.g. an exported tree, which is not a repository


def child_import_s() -> float:
    """Seconds to import patchpos, numpy and scipy with it, in a fresh
    interpreter with this one's environment."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import patchpos; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, os.path.join(ROOT, "src")],
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout)


def manifest(args, run, import_s: float) -> dict:
    import numpy
    import scipy
    from workloads import config_dict, config_hash
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config_hash": config_hash(run.cfg),
        "config": config_dict(run.cfg), "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": git_commit(), "import_s": import_s,
    }
    if run.cfg is not run.geometry:
        out["pretrain_config_hash"] = config_hash(run.geometry)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.prepare:
        from workloads import prepare
        prepare(args.workload, args.seed, args.prepare)
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    work = os.path.join(ROOT, ".bench_build", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                        "--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--prepare", work], check=True, timeout=300)
        # importing the library is part of set-up; one import is noisy, so
        # set-up counts the median of this one and the children's
        imports = [child_import_s() for _ in range(IMPORT_CHILDREN)]
        t0 = time.perf_counter()
        import patchpos  # noqa: F401
        imports.append(time.perf_counter() - t0)
        import_s = statistics.median(imports)
        import workloads
        run = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = manifest(args, run, import_s)
    print("manifest " + json.dumps(info, sort_keys=True))
    values: dict[str, float] = {}
    if run.untraced and (not args.trace or run.traced):
        values = run.per_layer() if args.trace else run.end_to_end(import_s)
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        path = os.path.join(traces, f"{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"manifest": info, "per_layer": values, **run.tracer.dump()}, f)
        print(f"trace {path}")
    for key, n in run.sample_counts().items():
        print(f"samples {key} = {n}")
    for name, ok in run.checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    metrics = {}
    for m in wanted:
        if m["name"] in values or (args.trace and values):
            # a layer that is not on this workload's path reads 0
            metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            print(f"metric {m['name']} = {metrics[m['name']]['value']:.6g} {m['unit']}")
    failed = run.failed + sum(not ok for ok in run.checks.values())
    correct = failed == 0 and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": run.attempted + len(run.checks),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
