"""germlab's end-to-end benchmark: seeded request streams in a closed loop.

    python3 perfbench/run.py --workload table --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload

One client, one request in flight.  Each request is checked against the
answer it must produce; wrong answers and exceptions count as failures.

--trace 0 measures the end-to-end metrics: set-up runs in five fresh
processes and reports their median, then one fresh process replays the
workload's stream for --seconds.  --trace 1 replays a fixed prefix of the
stream three times, each in a fresh process: untraced (the reference for the
tracing overhead), then traced under two PYTHONHASHSEED values whose exact
counts must agree.  It reports the per-layer metrics and writes the spans
to .perfbench_out/.  Metric names and units come from BENCHMARK.json.

The last line of standard output is the result as one JSON object; the full
result, stamped with what changes the numbers, is also written to
.perfbench_out/<workload>-seed<seed>-trace<t>.json for compare.py.  The exit
code is 0 exactly when every answer was right.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
HASH_SEEDS = ("1", "2")
# Every worker of one workload's run is stopped this long after --seconds
# (170 s for the default 30 s, within the 180 s a run may take).
GRACE_S = 140


class BenchError(RuntimeError):
    pass


def _worker(args: list[str], deadline: float, hash_seed: str | None = None) -> dict:
    """Run worker.py to completion (killed at `deadline`) and parse its result."""
    env = dict(os.environ)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          capture_output=True, text=True, env=env,
                          timeout=max(deadline - time.monotonic(), 1))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict, dict]:
    """End-to-end metrics of one workload: (metrics, totals, stamp)."""
    base = ["--workload", workload, "--seed", str(seed)]
    setups = [_worker(base + ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    run = _worker(base + ["--seconds", str(seconds)], deadline)
    setups.append(run["setup_s"])
    if run["beyond_p90"] < 10:
        print(f"warning: {workload}: only {run['beyond_p90']} samples beyond p90",
              file=sys.stderr)
    metrics = {
        "throughput_rps": run["throughput_rps"],
        "latency_p50_ms": run["latency_p50_ms"],
        "latency_p90_ms": run["latency_p90_ms"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
        "success_rate": 1 - run["failed"] / run["attempted"],
    }
    return metrics, run, run["stamp"]


def measure_traced(workload: str, seed: int, deadline: float) -> tuple[dict, dict, dict]:
    """Per-layer metrics of one workload: (metrics, totals, stamp).

    Raises BenchError when the exact counts of the two traced passes differ.
    """
    base = ["--workload", workload, "--seed", str(seed),
            "--requests", str(workloads.TRACE_LENGTH[workload])]
    plain = _worker(base, deadline)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
    traced = [_worker(base + ["--trace"] + (["--spans", str(spans)] if i == 0 else []),
                      deadline, hash_seed=h)
              for i, h in enumerate(HASH_SEEDS)]
    first, second = (t["counts"] for t in traced)
    if first != second:
        diff = {k: (first.get(k), second.get(k))
                for k in sorted(set(first) | set(second)) if first.get(k) != second.get(k)}
        raise BenchError(f"{workload}: exact counts differ between traced passes "
                         f"under PYTHONHASHSEED={' and '.join(HASH_SEEDS)}: {diff}")
    metrics = dict(traced[0]["layers"])
    metrics["trace.requests"] = traced[0]["requests"]
    metrics["trace.untraced_rps"] = plain["throughput_rps"]
    metrics["trace.traced_rps"] = traced[0]["throughput_rps"]
    metrics["trace.overhead_share"] = plain["throughput_rps"] / traced[0]["throughput_rps"] - 1
    totals = {"attempted": sum(r["attempted"] for r in [plain] + traced),
              "failed": sum(r["failed"] for r in [plain] + traced)}
    return metrics, totals, traced[0]["stamp"]


def declared_metrics(trace: bool) -> list[dict]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)["per_layer" if trace else "end_to_end"]


def result_line(measured: dict, totals: dict, trace: bool) -> dict:
    """The result object: every declared metric, by name, with its unit.

    A per-layer metric of a layer the workload never called reads 0; an
    end-to-end metric must have been measured.
    """
    metrics = {}
    for m in declared_metrics(trace):
        if not trace and m["name"] not in measured:
            raise BenchError(f"end-to-end metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": measured.get(m["name"], 0), "unit": m["unit"]}
    return {"correct": totals["failed"] == 0, "attempted": totals["attempted"],
            "failed": totals["failed"], "metrics": metrics}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + seconds + GRACE_S
    if trace:
        measured, totals, stamp = measure_traced(workload, seed, deadline)
    else:
        measured, totals, stamp = measure(workload, seed, seconds, deadline)
    result = result_line(measured, totals, trace)
    stamp = dict(stamp, workload=workload, trace=int(trace),
                 seconds=None if trace else seconds)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload}-seed{seed}-trace{int(trace)}.json", "w") as fh:
        json.dump({"stamp": stamp, "result": result}, fh, indent=1)
    print(f"# {workload}: stamp {json.dumps(stamp, sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"{workload:9} {name:48} {m['value']:>14.6g} {m['unit']}")
    print(f"{workload:9} {'error_rate':48} {result['failed'] / result['attempted']:>14.6g} "
          f"ratio ({result['failed']} of {result['attempted']})")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "germlab").is_dir():
        print(f"no germlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_one(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
