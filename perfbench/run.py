"""Benchmark of nlbox's bounds and tables.

    python3 perfbench/run.py --workload ns-polytope --seed 1 --seconds 20 --trace 0

Runs one workload in a fresh single-threaded worker process, from the root
of a checkout, and prints one JSON line with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (pass_s, cpu_s, setup_s, peak_rss_mib); with
``--trace 1`` they are the per-layer ones.  ``--workload all`` runs the four
workloads in turn and prints every metric by name with its unit before the
combined JSON line.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import selectors
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ns-polytope", "ic-bound", "quantum-tables", "box-eval")
DEADLINE_S = 170.0
# one thread for every BLAS/OpenMP pool numpy or scipy may start
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(1)


def _read_line(proc, sel, deadline) -> str:
    """Next stdout line of the worker, or '' once it has closed its stdout."""
    left = deadline - time.perf_counter()
    if left <= 0 or not sel.select(timeout=left):
        _fail("worker did not finish in time")
    return proc.stdout.readline()


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh worker; returns the result object."""
    env = dict(os.environ, **THREAD_ENV, PYTHONHASHSEED="0",
               PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds),
           str(trace)]
    deadline = time.perf_counter() + DEADLINE_S
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        sel = selectors.DefaultSelector()
        sel.register(proc.stdout, selectors.EVENT_READ)
        if _read_line(proc, sel, deadline).strip() != "ready":
            _fail("worker stopped before nlbox was set up")
        setup_s = time.perf_counter() - start
        lines = []
        while line := _read_line(proc, sel, deadline):
            lines.append(line)
        rc = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0 or not lines:
        _fail(f"worker exited with code {rc}")
    result = json.loads(lines[-1])
    if not trace:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    print(f"{workload}: {result['passes']} passes timed", file=sys.stderr)
    return {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "nlbox" / "__init__.py").is_file():
        _fail(f"no nlbox sources under {ROOT / 'src'}")
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
        return
    # every workload in turn, one line per metric, then a combined JSON line
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        res = run_workload(name, args.seed, args.seconds, args.trace)
        print(f"{name}: attempted {res['attempted']} failed {res['failed']} "
              f"correct {res['correct']}")
        for metric, m in res["metrics"].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
            total["metrics"][f"{name}.{metric}"] = m
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
    print(json.dumps(total))


if __name__ == "__main__":
    main()
