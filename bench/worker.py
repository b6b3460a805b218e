"""One round of a workload, in a fresh interpreter.

    worker.py MODULE WORKLOAD SEED MODE

run.py starts one worker per round, so that no memo of the package, from
the process-global sigma cache to the per-Context caches, carries over
from one round to the next.  MODULE is the package module the workload
imports (gha or gha.cli); MODE is round, setup or profile.

Only time and sys are loaded before MODULE, so the package's own imports,
stdlib ones included, count in set-up.  The worker prints one JSON line:

* t_ready: time.monotonic() once gha is imported and every Context built;
* bench_s: time spent between the two, importing the benchmark's modules
  and generating inputs, which run.py takes out of setup_s;
* setup_cal, a calibration (speed.py) taken right after set-up;
* wall_s, the timed phase scaled by speed.Sampler: the operations and
  the collections between them; latencies (scaled, operations only; None
  for a failed operation), raw_wall_s (unscaled) and rss_kb;
* the check's problems and whether the oracle rejected the mutant;
* with mode profile, the per-layer metrics of layers.Tracer.

With mode setup it stops after set-up.
"""

import sys
import time


def main() -> int:
    module, workload, seed, mode = sys.argv[1:]
    __import__(module)
    t_imported = time.monotonic()

    import contextlib
    import gc
    import json
    import random
    import resource

    import speed
    from workloads import WORKLOADS

    work = WORKLOADS[workload]
    seed = int(seed)
    inputs = work.generate(seed)
    bench_s = time.monotonic() - t_imported
    state = work.setup(inputs)
    result = {"t_ready": time.monotonic(), "bench_s": bench_s,
              "setup_cal": speed.calibrate(speed.SPAN_REPS)}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    ops = work.operations(state, inputs)
    tracer = None
    if mode == "profile":
        from layers import Tracer

        tracer = Tracer()
    outputs, spans, gc_spans, failures, failed = [], [], [], [], set()
    # the profiled round calibrates only before and after, so that the
    # calibration loop stays out of the profile
    sampler = contextlib.nullcontext() if tracer else speed.Sampler()
    before = speed.calibrate(speed.SPAN_REPS) if tracer else None
    with sampler:
        if tracer:
            tracer.start()
        for idx, (label, thunk) in enumerate(ops):
            # each request starts with no garbage left by the one before;
            # otherwise collector pauses land in whichever request crosses
            # a threshold, and short requests varied up to 6x.  The
            # collection counts in wall_s, not in the request's latency.
            g = time.perf_counter()
            gc.collect()
            a = time.perf_counter()
            try:
                out = thunk()
            except Exception as exc:  # a failed operation is counted, not fatal
                out = None
                failures.append(f"{label}: {type(exc).__name__}: {str(exc)[:120]}")
                failed.add(idx)
            spans.append((a, time.perf_counter()))
            gc_spans.append((g, a))
            outputs.append(out)
        if tracer:
            tracer.stop()
    raw = [b - a for a, b in spans]
    raw_gc = [b - a for a, b in gc_spans]
    if tracer:
        scale = speed.factor(before, speed.calibrate(speed.SPAN_REPS))
        scaled = [d * scale for d in raw]
        scaled_gc = [d * scale for d in raw_gc]
    else:
        scaled = [sampler.scaled(a, b) for a, b in spans]
        scaled_gc = [sampler.scaled(a, b) for a, b in gc_spans]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latencies = [None if i in failed else d for i, d in enumerate(scaled)]

    rng = random.Random(seed * 1_000_003 + 17)
    try:
        problems = work.check(inputs, outputs, failed, rng)
    except Exception as exc:  # a fault of the check itself: nothing is verified
        problems = [f"check stopped: {type(exc).__name__}: {exc}"]
    try:
        mutant_rejected = work.rejects_mutant(inputs, outputs, rng)
    except Exception as exc:
        mutant_rejected = False
        problems.append(f"self-check stopped: {type(exc).__name__}: {exc}")
    result.update({
        "wall_s": sum(scaled) + sum(scaled_gc),
        "raw_wall_s": sum(raw) + sum(raw_gc),
        "latencies": latencies,
        "rss_kb": rss_kb,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "problems": problems,
        "mutant_rejected": mutant_rejected,
    })
    if tracer:
        result["layers"] = tracer.metrics(scale)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
