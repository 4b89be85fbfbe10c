"""One workload in a fresh single-threaded process.

Started by run.py as ``worker.py <workload> <seed> <seconds> <trace>`` with
the checkout's ``src`` on PYTHONPATH.  It writes ``ready`` once nlbox is
imported and its first solve has finished its lazy set-up, then runs the
passes and writes one JSON result line.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import nlbox  # noqa: E402  (set-up is timed from process start)

# the first solve of a fresh process finishes nlbox's lazy set-up
nlbox.ns_max_success("hardy", restarts=1, seed=0)
print("ready", flush=True)

import numpy as np  # noqa: E402  (already imported by nlbox)

import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# The shared machine's speed drifts by tens of percent over tens of seconds,
# for pure Python and small-array numpy code alike.  A fixed loop of both,
# timed around every pass, measures that speed; times are reported scaled to
# the loop's nominal time, i.e. in seconds of the reference machine.
REFERENCE_NOMINAL_S = 0.034
_M = 0.5 * (np.eye(2, dtype=complex) + 0.3 * np.array([[0, 1], [1, 0]], dtype=complex))


def _reference_work():
    total = 0
    for i in range(60000):
        total += i * i % 7
    acc = 0.0
    for _ in range(400):
        acc += np.real(np.trace(np.kron(_M, _M) @ np.kron(_M, _M)))
    return total, acc


def machine_slowness() -> float:
    """Time of the reference loop now, over its nominal time."""
    start = time.perf_counter()
    _reference_work()
    return (time.perf_counter() - start) / REFERENCE_NOMINAL_S


def _cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class PassRunner:
    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.slowness = machine_slowness()

    def run(self, tracer=None):
        """One pass over the operation list.

        Returns (wall s, cpu s, outputs, slowness), slowness being the mean of
        the reference loop's slowness just before and just after the pass.
        Only the operations are timed; their outputs are checked afterwards.
        """
        ops = self.wl.ops
        outputs = [None] * len(ops)
        errors = [None] * len(ops)
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            try:
                if tracer is not None and op.span:
                    with tracer.span(op.span):
                        outputs[i] = op.run()
                else:
                    outputs[i] = op.run()
            except Exception as exc:  # an operation that fails is counted, not fatal
                errors[i] = f"{op.name}: {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
        before, self.slowness = self.slowness, machine_slowness()
        for err, fails in zip(errors, self.wl.check(outputs)):
            self.attempted += 1
            if err or fails:
                self.failed += 1
                self.messages.extend([err] if err else fails)
        return wall, cpu, outputs, 0.5 * (before + self.slowness)


def fingerprint(outputs) -> str:
    """Digest of a pass's outputs with every float at full precision."""
    def plain(o):
        if isinstance(o, (np.ndarray, np.generic)):
            return o.tolist()
        if dataclasses.is_dataclass(o):
            return dataclasses.asdict(o)
        raise TypeError(f"cannot serialise {type(o).__name__}")
    return hashlib.sha256(json.dumps(outputs, default=plain).encode()).hexdigest()


def main(argv):
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    if Path(nlbox.__file__).resolve().parent != ROOT / "src" / "nlbox":
        raise SystemExit(f"nlbox was imported from {nlbox.__file__}, not from the checkout")
    workload = WORKLOADS[name](seed, ROOT)
    runner = PassRunner(workload)
    runner.run()  # warm-up pass, checked but not timed into the metrics

    # per pass: (reference-scaled wall, scaled cpu, raw wall); traced: + layers
    plain, traced, layers, counts, digests = [], [], [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        raw = [p[2] for p in plain + traced]
        need_more = not plain or (trace and not traced)
        if not need_more and elapsed + statistics.median(raw) > seconds:
            break
        if trace and len(traced) < len(plain):
            tr = tracing.Tracer()
            tr.install()
            try:
                wall, cpu, outputs, slow = runner.run(tr)
            finally:
                tr.uninstall()
            traced.append((wall / slow, cpu / slow, wall))
            digests.append(fingerprint(outputs))
            metrics = tracing.layer_metrics(tr)
            layers.append({k: (v / slow if unit in ("s", "us") else v, unit)
                           for k, (v, unit) in metrics.items()})
            counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
            dump = tr.dump()
        else:
            wall, cpu, _, slow = runner.run()
            plain.append((wall / slow, cpu / slow, wall))

    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "passes": len(plain) + len(traced)}
    median = lambda rows, i: statistics.median(r[i] for r in rows)
    if trace:
        # counts and results of one seed must repeat exactly between traced passes
        repeat = all(c == counts[0] for c in counts) and len(set(digests)) == 1
        result["correct"] = result["correct"] and repeat
        metrics = {k: {"value": statistics.median(m[k][0] for m in layers), "unit": unit}
                   for k, (_, unit) in layers[0].items()}
        metrics["trace.pass_s"] = {"value": median(traced, 0), "unit": "s"}
        metrics["trace.overhead_s"] = {"value": median(traced, 0) - median(plain, 0),
                                       "unit": "s"}
        metrics["trace.raw_pass_s"] = {"value": median(plain, 2), "unit": "s"}
        metrics["trace.slowness"] = {"value": median(plain, 2) / median(plain, 0),
                                     "unit": "ratio"}
        out_dir = ROOT / ".bench_trace"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"{name}-seed{seed}.json", "w") as fh:
            json.dump({"workload": name, "seed": seed, "passes_traced": len(traced),
                       "counts_repeat": repeat, "results": digests[0],
                       "counts": counts[0], **dump}, fh)
    else:
        metrics = {
            "pass_s": {"value": median(plain, 0), "unit": "s"},
            "cpu_s": {"value": median(plain, 1), "unit": "s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                             "unit": "MiB"},
        }
    result["metrics"] = metrics
    for msg in runner.messages[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
