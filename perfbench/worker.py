"""One benchmark worker: a fresh interpreter that runs one workload.

Modes:
  setup  import folindex and build the corpus, then stop;
  run    set up, warm up on items from another seed, then run items in a
         closed loop (one client, next item after the previous one ends)
         until the summed scaled latency of the items after the
         workload's opening units reaches --seconds (or their wall time
         MAX_WALL times that); a calibration sample is taken before the
         first item and after every item (see calibrate.py);
  fixed  set up, warm up, then run the first `fixed_units` units of the
         corpus, with spans when --trace 1.

The worker prints one JSON object on its last line of output.  `ready` is
time.monotonic() when set-up ended; the parent subtracts its own monotonic
clock at spawn, which is the same system clock, to get the set-up time.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# A run stops at --seconds of scaled item time, or at this many times
# --seconds of wall time on a host far slower than the reference.
MAX_WALL = 1.5
sys.path.insert(0, str(ROOT / "src"))


def run_unit(workload, desc, latencies, failed, errors, labels,
             tracer=None, item=0, scale=None, scaled=None):
    """Run one unit's calls, timing each; check them; record the outcome.

    With a `scale`, a calibration sample follows every call and the call's
    scaled latency goes to `scaled`."""
    unit = workload.prepare(desc)
    outputs, first = [], len(latencies)
    ok = True
    for label, call in unit.calls:
        labels.append(label)
        if tracer is not None:
            tracer.item = item
        start = time.perf_counter()
        try:
            outputs.append(call())
        except Exception as exc:   # an item that raises is a failed item
            ok = False
            errors.append(f"{desc!r}: {type(exc).__name__}: {exc}"[:400])
        latencies.append(time.perf_counter() - start)
        if scale is not None:
            scale.mark()
            scaled.append(latencies[-1] * scale.factor())
        if not ok:
            break
    if ok:
        message = unit.check(outputs)
        if message is not None:
            ok = False
            errors.append(message[:400])
    failed.extend([not ok] * (len(latencies) - first))
    return ok


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--mode", choices=("setup", "run", "fixed"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import folindex
    if not Path(folindex.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"folindex was imported from {folindex.__file__}, "
                 f"not from {ROOT / 'src'}")
    from calibrate import (COLD_REF_S, WARM_REF_S, Scale, cold_sample,
                           warm_sample)
    from workloads import OUT, WORKLOADS
    CALIBRATIONS = {"warm": (warm_sample, WARM_REF_S),
                    "cold": (cold_sample, COLD_REF_S)}

    workload = WORKLOADS[args.workload]()
    workload.in_process = args.mode == "fixed"
    units = workload.corpus(args.seed)
    ready = time.monotonic()
    result = {"ready": ready}
    if args.mode == "setup":
        workload.cleanup()
        print(json.dumps(result))
        return

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    scratch = ([], [], [], [])
    for desc in workload.warmup(args.seed):
        run_unit(workload, desc, *scratch)
    if tracer is not None:
        tracer.reset()

    latencies, failed, errors, labels = [], [], [], []
    start = time.perf_counter()
    if args.mode == "run":
        scale = Scale(*CALIBRATIONS[workload.calibration])
        scale.mark()
        scaled, exhausted = [], True
        counted, counted_from = 0, start   # scaled item time after the lead
        for index, desc in enumerate(units):
            if index == workload.lead:
                counted, counted_from = len(scaled), time.perf_counter()
            if workload.may_stop(index) and (
                    sum(scaled[counted:]) >= args.seconds or
                    time.perf_counter() - counted_from >=
                    MAX_WALL * args.seconds):
                exhausted = False
                break
            run_unit(workload, desc, latencies, failed, errors, labels,
                     scale=scale, scaled=scaled)
        result.update(exhausted=exhausted, scaled=scaled,
                      samples=scale.samples)
        import sympy
        from sympy.external.gmpy import GROUND_TYPES
        result["env"] = (f"python {sys.version.split()[0]}, sympy "
                         f"{sympy.__version__}, ground types {GROUND_TYPES}")
    else:
        for index, desc in enumerate(units[:workload.fixed_units]):
            run_unit(workload, desc, latencies, failed, errors, labels,
                     tracer, index)
    result["wall"] = time.perf_counter() - start
    workload.cleanup()

    result.update(latencies=latencies, failed=failed, errors=errors[:5],
                  labels=labels,
                  rss_kb=max(resource.getrusage(who).ru_maxrss for who in
                             (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))
    if tracer is not None:
        tracer.uninstall()
        calls, self_ms, root_ms, failures = tracer.summary()
        result.update(calls=calls, self_ms=self_ms, root_ms=root_ms,
                      oracle_failures=failures, counters=tracer.counters,
                      max_degree=tracer.max_degree)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
