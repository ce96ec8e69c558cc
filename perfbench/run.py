"""folindex benchmark: one workload, one seed, every metric with its unit.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ./src.
With --trace 0 the last line of output is the end-to-end result; with
--trace 1 it is the per-layer result of a traced run.  See README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lattice", "oracle", "resolve", "cli-cold")
SETUPS = 5            # set-up is measured in this many fresh workers
DEADLINE_S = 170      # the whole run, set-ups and children included
FAILED_MS = 1e12      # latency recorded for an item that failed

sys.path.insert(0, str(HERE))
from calibrate import COLD_REF_S, Scale, cold_sample   # noqa: E402
from spans import PER_FUNCTION, PER_MODULE   # noqa: E402


class WorkerFailed(Exception):
    pass


class Bench:
    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def _remaining(self):
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 0:
            raise WorkerFailed("the run is past its deadline")
        return left

    def worker(self, mode, trace=0):
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.args.workload, "--seed", self.args.seed,
               "--mode", mode, "--seconds", str(self.args.seconds),
               "--trace", str(trace)]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, text=True,
                                  capture_output=True,
                                  timeout=self._remaining())
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"{mode} worker passed the deadline")
        if proc.returncode != 0:
            raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n"
                               f"{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_s"] = result["ready"] - spawned
        return result

    def child_seconds(self, code):
        """Wall time of a fresh `python -c code`, and its output."""
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              env=self.env, capture_output=True, text=True,
                              timeout=self._remaining())
        if proc.returncode != 0:
            raise WorkerFailed(f"probe exited {proc.returncode}: "
                               f"{proc.stderr[-1000:]}")
        return time.perf_counter() - start, proc.stdout.strip()


def _tail(latencies):
    """Latency at the highest percentile with at least ten items beyond it
    (the maximum when a run has fewer than eleven items), and that
    percentile."""
    ordered = sorted(latencies)
    index = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def _ms(seconds):
    return FAILED_MS if math.isinf(seconds) else seconds * 1000


def timings(times, failed):
    """items_per_s, item_p50_ms, item_tail_ms and the tail's percentile."""
    latencies = [math.inf if bad else t for t, bad in zip(times, failed)]
    tail, percentile = _tail(latencies)
    return ((len(times) - sum(failed)) / sum(times),
            _ms(statistics.median(latencies)), _ms(tail), percentile)


def setups(bench):
    """Set-up times of fresh workers, each scaled by the cold samples
    taken right before and right after it."""
    scale = Scale(cold_sample, COLD_REF_S)
    scale.mark()
    wall, scaled = [], []
    for _ in range(SETUPS):
        wall.append(bench.worker("setup")["setup_s"])
        scale.mark()
        scaled.append(wall[-1] * scale.factor())
    return wall, scaled


def end_to_end(bench):
    setup_wall, setup_scaled = setups(bench)
    run = bench.worker("run")
    attempted = len(run["latencies"])
    failed = sum(run["failed"])
    if attempted == 0:
        raise WorkerFailed("the run completed no item")
    per_s, p50, tail, percentile = timings(run["scaled"], run["failed"])
    metrics = {
        "items_per_s": per_s,
        "item_p50_ms": p50,
        "item_tail_ms": tail,
        "ok_ratio": (attempted - failed) / attempted,
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": run["rss_kb"] / 1024,
    }
    wall_per_s, wall_p50, wall_tail, _ = timings(run["latencies"],
                                                 run["failed"])
    samples = sorted(run["samples"])
    print(f"workload {bench.args.workload} seed {bench.args.seed}: "
          f"{attempted} items in {sum(run['scaled']):.2f} s of scaled item "
          f"time ({sum(run['latencies']):.2f} s of wall), "
          f"{failed} failed (fail_ratio {failed / attempted:.4f}); "
          f"tail is p{percentile:.2f} of {attempted} items; {run['env']}"
          + ("; corpus used up before --seconds" if run["exhausted"] else ""))
    print(f"  unscaled wall figures: {wall_per_s:.3f} items/s, "
          f"p50 {wall_p50:.1f} ms, tail {wall_tail:.1f} ms, set-up median "
          f"{statistics.median(setup_wall):.3f} s of {[round(s, 3) for s in setup_wall]}")
    print(f"  {len(samples)} {bench.args.workload} calibration samples: "
          f"min {samples[0] * 1000:.3f} ms, median "
          f"{statistics.median(samples) * 1000:.3f} ms, max {samples[-1] * 1000:.3f} ms")
    by_label = {}
    for label, t in zip(run["labels"], run["scaled"]):
        by_label.setdefault(label, []).append(t * 1000)
    for label, times in by_label.items():
        print(f"  {label}: {len(times)} items, scaled median {statistics.median(times):.1f} ms, "
              f"min {min(times):.1f} ms, max {max(times):.1f} ms")
    for message in run["errors"]:
        print(f"  failed: {message}")
    return attempted, failed, metrics


def per_layer(bench):
    plain = bench.worker("fixed", trace=0)
    traced = bench.worker("fixed", trace=1)
    calls, self_ms = traced["calls"], traced["self_ms"]
    counters = traced["counters"]
    metrics = {}
    for name in PER_FUNCTION:
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.self_ms"] = self_ms.get(name, 0.0)
    for module in PER_MODULE:
        metrics[f"{module}.self_ms"] = sum(v for k, v in self_ms.items()
                                           if k.startswith(module + "."))
    metrics["indices.calls"] = sum(v for k, v in calls.items()
                                   if k.startswith("indices."))
    metrics["sympy.resultant.calls"] = calls.get("sympy.resultant", 0)
    metrics["sympy.resultant.self_ms"] = self_ms.get("sympy.resultant", 0.0)
    answers = counters.get("oracle.vote_answers", 0)
    metrics["oracle.resultants_per_answer"] = (
        counters.get("oracle.vote_resultants", 0) / answers if answers else 0.0)
    metrics["oracle.failures"] = traced["oracle_failures"]
    metrics["divisors.yielded"] = counters.get("divisors.yielded", 0)
    metrics["verify.programs"] = counters.get("verify.programs", 0)
    metrics["resolve.components"] = counters.get("resolve.components", 0)
    metrics["algfield.max_degree"] = traced["max_degree"]

    start_s = [bench.child_seconds("pass")[0] for _ in range(3)]
    import_s = [float(bench.child_seconds(
        "import time; t = time.perf_counter(); import folindex; "
        "print(time.perf_counter() - t)")[1]) for _ in range(3)]
    loaded = bench.child_seconds(
        "import contextlib, io, sys, folindex.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    folindex.cli.main(['invariants', '--scene', "
        "'scenes/radial.json', '--format', 'json'])\n"
        "print(int('sympy' in sys.modules))")[1]
    metrics["python.start_ms"] = statistics.median(start_s) * 1000
    metrics["import.folindex_ms"] = statistics.median(import_s) * 1000
    metrics["import.sympy_loaded"] = int(loaded)
    metrics["trace.overhead_ratio"] = traced["wall"] / plain["wall"]
    metrics["trace.wall_ms"] = traced["wall"] * 1000
    metrics["bench.self_ms"] = (traced["wall"] * 1000 - traced["root_ms"])
    attempted = len(traced["latencies"])
    failed = sum(traced["failed"]) + sum(plain["failed"])
    print(f"traced workload {bench.args.workload} seed {bench.args.seed}: "
          f"{attempted} items, {failed} failed; wall {plain['wall']:.3f} s "
          f"untraced, {traced['wall']:.3f} s traced")
    for message in plain["errors"] + traced["errors"]:
        print(f"  failed: {message}")
    return attempted, failed, metrics


UNITS = {
    "items_per_s": "1/s", "ok_ratio": "ratio", "setup_s": "s",
    "peak_rss_mb": "MB", "oracle.resultants_per_answer": "ratio",
    "algfield.max_degree": "degree", "import.sympy_loaded": "flag",
    "trace.overhead_ratio": "ratio",
}


def unit_of(name):
    if name.endswith("_ms"):
        return "ms"
    return UNITS.get(name, "count")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "folindex" / "__init__.py").is_file():
        sys.exit(f"no folindex sources under {ROOT / 'src'}; run the "
                 "benchmark from the root of a folindex checkout")
    bench = Bench(args)
    print(f"python {sys.version.split()[0]}, nproc {os.cpu_count()}")
    try:
        attempted, failed, metrics = (per_layer if args.trace
                                      else end_to_end)(bench)
    except WorkerFailed as exc:
        sys.exit(f"benchmark failed: {exc}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()}}))


if __name__ == "__main__":
    main()
