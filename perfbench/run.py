#!/usr/bin/env python3
"""Benchmark for the demazure library: seeded query workloads, timed end to end.

    python3 perfbench/run.py --workload characters --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs as rounds.  A round is one fresh interpreter
(``worker.py``) that imports ``demazure``, builds the workload's root
systems, generates one batch of queries from ``(workload, seed, round)``
and times every query together with its independent check, in elapsed
time scaled to a reference speed (see ``worker.py``).  The number of
rounds follows from ``--seconds`` and the workload alone, never from how
fast the code runs, so two builds compared on one seed run the same
batches.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` each round runs twice, untraced
and traced on the same batch, and the object holds the per-layer
metrics (per traced round) and the tracing overhead.  Lines before it
are a readable table.  The exit code is 0 when every round ran,
whatever the queries returned; failed queries are counted, not fatal.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SPANS = ROOT / ".perfbench_out" / "spans"

WORKLOADS = ("characters", "hecke", "levi", "cli_mix")

# Seeds 1 to 15, 101 to 120 and 201 to 230 were run while the benchmark
# was written.
# Seed 20031017 never was: it is held out for confirming a performance
# claim made on other seeds.
DEV_SEED = 1

ROUND_TIMEOUT_S = 150

# Wall seconds of one untraced round, set-up included, at seed, on a
# shared 2-vCPU x86-64 container with CPython 3.11 whose elapsed times
# ran 0.9 to 1.75 times the reference.  A run has about
# --seconds / SECONDS_PER_ROUND rounds, rounded to whole menu cycles.
SECONDS_PER_ROUND = {"characters": 2.2, "hecke": 1.7, "levi": 1.85, "cli_mix": 1.6}
# Rounds that use the costliest growth-table menu whole (A3 takes one of
# its six weights per round), so that every run covers it evenly.
MENU_CYCLE = {"characters": 6, "hecke": 1, "levi": 1, "cli_mix": 1}

UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "roots.self_s": "s",
    "roots.calls": "count",
    "roots.root_coordinates_calls": "count",
    "roots.build_s": "s",
    "weyl.self_s": "s",
    "weyl.calls": "count",
    "weyl.left_descents_calls": "count",
    "weyl.fold_letters": "count",
    "weyl.reduced_word_letters": "count",
    "characters.self_s": "s",
    "characters.calls": "count",
    "characters.operator_calls": "count",
    "characters.operator_terms_in": "count",
    "characters.operator_terms_out": "count",
    "characters.string_steps": "count",
    "characters.string_yield": "ratio",
    "characters.peak_support": "count",
    "characters.freudenthal_s": "s",
    "characters.weyl_dim_calls": "count",
    "characters.memo_hits": "count",
    "characters.memo_misses": "count",
    "characters.memo_hit_ratio": "ratio",
    "growth.self_s": "s",
    "growth.calls": "count",
    "growth.dims_computed": "count",
    "branching.self_s": "s",
    "branching.calls": "count",
    "branching.constituents": "count",
    "branching.levi_memo_hits": "count",
    "branching.levi_memo_misses": "count",
    "sl3t.self_s": "s",
    "sl3t.calls": "count",
    "sl3t.biweights": "count",
    "cli.self_s": "s",
    "cli.calls": "count",
    "cli.disk_cache_hits": "count",
    "cli.disk_cache_misses": "count",
    "trace.overhead_frac": "ratio",
}

# Per-layer ratios, taken over sums across rounds: numerator, denominator terms.
RATIOS = {
    "characters.string_yield": ("characters.operator_terms_out", ("characters.string_steps",)),
    "characters.memo_hit_ratio": (
        "characters.memo_hits", ("characters.memo_hits", "characters.memo_misses")
    ),
}


def rounds_for(workload: str, seconds: float) -> int:
    cycles = round(seconds / SECONDS_PER_ROUND[workload] / MENU_CYCLE[workload])
    return MENU_CYCLE[workload] * max(1, cycles)


def _worker(workload: str, seed: int, round_no: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(WORKER),
        "--workload", workload, "--seed", str(seed), "--round", str(round_no),
        "--trace", str(trace), "--launched", repr(time.time()),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=ROUND_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} round {round_no} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _latencies(rounds: list[dict]) -> list[float]:
    # A failed query counts as slower than any query could be: it is
    # charged the whole timed phase of its round.
    out = []
    for r in rounds:
        worst = r["timed_s"] * 1e3
        out.extend(ms if ok else worst for ms, ok in zip(r["latency_ms"], r["ok"]))
    return out


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    lat = _latencies(rounds)
    completed = sum(sum(r["ok"]) for r in rounds)
    deciles = statistics.quantiles(lat, n=10)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "queries_per_s": completed / sum(r["timed_s"] for r in rounds),
        "query_p50_ms": statistics.median(lat),
        "query_p90_ms": deciles[8],
        "ok_frac": completed / len(lat),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    sums = {name: 0.0 for name in LAYER_UNITS}
    for r in traced:
        for name, value in r["layers"].items():
            sums[name] += value
    out = {name: value / len(traced) for name, value in sums.items()}
    for name, (num, den) in RATIOS.items():
        total = sum(sums[d] for d in den)
        out[name] = sums[num] / total if total else 0.0
    plain_s = sum(r["timed_s"] for r in plain)
    out["trace.overhead_frac"] = sum(r["timed_s"] for r in traced) / plain_s - 1
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    plain: list[dict] = []
    traced: list[dict] = []
    if trace:
        for old in SPANS.glob(f"{workload}-round*.tsv.gz"):
            old.unlink()
    rounds = rounds_for(workload, seconds)
    for round_no in range(rounds):
        plain.append(_worker(workload, seed, round_no, 0))
        if trace:
            traced.append(_worker(workload, seed, round_no, 1))

    everything = plain + traced
    attempted = sum(len(r["ok"]) for r in everything)
    failed = sum(r["ok"].count(False) for r in everything)
    errors: dict[str, int] = {}
    for r in everything:
        for name, n in r["errors"].items():
            errors[name] = errors.get(name, 0) + n
    if trace:
        values, units = per_layer(plain, traced), LAYER_UNITS
    else:
        values, units = end_to_end(plain), UNITS

    cpu_share = sum(r["cpu_s"] for r in plain) / sum(r["wall_s"] for r in plain)
    speed = sum(r["raw_s"] for r in plain) / sum(r["timed_s"] for r in plain)
    print(f"# workload {workload}, seed {seed}, {rounds} rounds, "
          f"{sum(len(r['ok']) for r in plain)} timed queries untraced, "
          f"CPU/wall {cpu_share:.3f}, elapsed/reference {speed:.3f}; "
          f"failed {failed} of {attempted}, errors {errors}")
    for name, value in values.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    return {
        "correct": sum(r["wrong"] for r in everything) == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=DEV_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "demazure" / "__init__.py").is_file():
        print(f"error: no demazure sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
