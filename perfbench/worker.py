"""One round of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --round R --trace 0|1 --launched T

Times are elapsed time (``time.perf_counter``), scaled to a reference
machine speed.  On a shared host the speed of a core drifts by tens of
percent within seconds, so the worker runs a fixed pure-Python
calibration kernel, which never calls the library, after every ~50 ms
of queries.  Each query's time is multiplied by ``CAL_REF_S`` over the
mean kernel time of the two calibrations around it.  The library's code
cannot change the kernel, so the scaling cancels only the machine's
drift.

Set-up time counts from ``--launched``, the wall-clock time at which the
parent started this process, so it includes interpreter start-up, the
import of ``demazure`` and the build of the workload's root systems.
The batch is generated after set-up and before the timed phase, without
calling the library, so every memo except the root-system builder is
cold when the first query starts.  The result is one JSON line on
stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SPANS = OUT / "spans"

# Kernel time at the reference speed: about the fastest this kernel ran
# on a 2-vCPU x86-64 container with CPython 3.11.
CAL_REF_S = 0.0030
CAL_EVERY_S = 0.05


def _kernel() -> int:
    # Dicts keyed by integer tuples with integer arithmetic: the shape
    # of the library's character loops.
    total = 0
    for _ in range(3):
        d: dict = {}
        for a in range(60):
            for b in range(60):
                d[(a, b)] = d.get((a - 1, b), 0) + a * b
        for k, v in d.items():
            total += v ^ k[0]
    return total


def calibrate() -> float:
    """Seconds of one kernel pass, with the collector held off."""
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()


def scale(raw: list[float], marks: list[tuple[int, float]]) -> list[float]:
    """Scale query times by the calibrations taken before and after each.

    ``marks`` holds ``(index, kernel seconds)`` for a calibration taken
    just before query ``index``; the last mark has index ``len(raw)``.
    """
    out = []
    for (lo, before), (hi, after) in zip(marks, marks[1:]):
        factor = 2 * CAL_REF_S / (before + after)
        out.extend(t * factor for t in raw[lo:hi])
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched", type=float, required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import demazure

    if args.workload == "cli_mix":
        import demazure.cli  # noqa: F401
    import workloads  # beside this script, so already on sys.path

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    systems = {name: demazure.root_system(name) for name in workloads.TYPES[args.workload]}
    setup_wall_s = time.time() - args.launched
    setup_s = setup_wall_s * CAL_REF_S / sorted(calibrate() for _ in range(3))[1]

    batch = workloads.make_batch(args.workload, args.seed, args.round)
    cache_dir = None
    runner = None
    if args.workload == "cli_mix":
        OUT.mkdir(exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=OUT)
        runner = workloads.CliRunner(cache_dir)

    raw: list[float] = []
    ok: list[bool] = []
    errors: Counter = Counter()
    wrong = 0
    clock = time.perf_counter
    marks = [(0, calibrate())]
    since = 0.0
    try:
        cpu, wall = time.process_time(), clock()
        for qid, query in enumerate(batch):
            if tracer is not None:
                tracer.query = qid
            start = clock()
            try:
                passed = workloads.run_query(query, systems, runner, qid)
            except Exception as exc:  # a failed query is data, not a crash
                passed = None
                errors[type(exc).__name__] += 1
            raw.append(clock() - start)
            ok.append(bool(passed))
            if passed is False:
                wrong += 1
            since += raw[-1]
            if since >= CAL_EVERY_S or qid == len(batch) - 1:
                marks.append((qid + 1, calibrate()))
                since = 0.0
        cpu_s, wall_s = time.process_time() - cpu, clock() - wall
    finally:
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)

    latencies = scale(raw, marks)
    result = {
        "setup_s": setup_s,
        "timed_s": sum(latencies),
        "raw_s": sum(raw),
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "latency_ms": [t * 1e3 for t in latencies],
        "ok": ok,
        "wrong": wrong,
        "errors": dict(errors),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.query = -1
        layers = tracer.layer_metrics()
        memo = demazure.characters._demazure_items.cache_info()
        layers["characters.memo_hits"] = memo.hits
        layers["characters.memo_misses"] = memo.misses
        levi = demazure.branching._levi_char_items.cache_info()
        layers["branching.levi_memo_hits"] = levi.hits
        layers["branching.levi_memo_misses"] = levi.misses
        if runner is not None:
            requests = sum(1 for q in batch if q[1][0] in ("char", "dim"))
            hits = sum(err.count("cache hit:") for err in runner.stderr)
            layers["cli.disk_cache_hits"] = hits
            layers["cli.disk_cache_misses"] = requests - hits
        result["layers"] = layers
        SPANS.mkdir(parents=True, exist_ok=True)
        tracer.dump(SPANS / f"{args.workload}-round{args.round}.tsv.gz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
