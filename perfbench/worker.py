"""One measurement process: set up a workload, replay its stream, report JSON.

Started by run.py, one fresh process per workload and pass, so that the
standard-basis memo and the peak RSS of one pass never leak into another.

    python3 perfbench/worker.py --workload table --seed 1 --seconds 30
    python3 perfbench/worker.py --workload table --seed 1 --requests 40 --trace
    python3 perfbench/worker.py --workload table --seed 1 --setup-only

Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_program():
    """Import germlab from this checkout's sources, never from site-packages."""
    sys.path.insert(0, str(SRC))
    import germlab

    if not Path(germlab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"germlab imported from {germlab.__file__}, not {SRC}")
    # every module a request touches, so that imports count as set-up
    import germlab.analyzer  # noqa: F401
    import germlab.catalog  # noqa: F401
    import germlab.germfile  # noqa: F401
    import germlab.homology  # noqa: F401
    import germlab.simplicial  # noqa: F401
    import germlab.smith  # noqa: F401
    return germlab


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def replay(workload: str, requests, seconds: float | None = None, tracer=None,
           rss_after: int | None = None):
    """Closed loop, one request in flight, until the list or the time runs out.

    Returns (latencies in s, failed labels, elapsed s, peak RSS in MB).  The
    peak RSS is read after request number `rss_after` (or at the end, if the
    run stops earlier), so that it covers a fixed amount of work.  An
    exception or an answer other than the request's expectation counts as a
    failure.
    """
    rss_mb = None
    latencies: list[float] = []
    failed: list[str] = []
    start = perf_counter()
    deadline = None if seconds is None else start + seconds
    for i, req in enumerate(requests):
        if deadline is not None and perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.request = i
        t = perf_counter()
        try:
            ok = workloads.execute(workload, req) == req.expected
        except Exception:  # a failed request is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            ok = False
        latencies.append(perf_counter() - t)
        if not ok:
            failed.append(req.label)
            print(f"wrong answer: {workload} {req.label}", file=sys.stderr)
        if i + 1 == rss_after:
            rss_mb = _peak_rss_mb()
    elapsed = perf_counter() - start
    return latencies, failed, elapsed, _peak_rss_mb() if rss_mb is None else rss_mb


def summarize(latencies: list[float], failed: list[str], elapsed: float) -> dict:
    p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else latencies[0]
    return {
        "requests": len(latencies),
        "attempted": len(latencies),
        "failed": len(failed),
        "elapsed_s": elapsed,
        "throughput_rps": len(latencies) / elapsed,
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * p90,
        "beyond_p90": sum(1 for x in latencies if x > p90),
    }


def main(argv=None) -> int:
    t0 = perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--requests", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the traced spans here (JSON lines)")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    germlab = _import_program()
    n = args.requests or workloads.STREAM_LENGTH[args.workload]
    specs, requests = workloads.make_stream(args.workload, args.seed, n)
    warmup = workloads.warmup_requests(args.workload)
    out = {
        "setup_s": perf_counter() - t0,
        "stamp": {
            "kernel_backend": germlab.kernel_backend,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "seed": args.seed,
            "requests_digest": workloads.digest(specs),
        },
    }
    if args.setup_only:
        print(json.dumps(out))
        return 0

    _, warm_failed, _, _ = replay(args.workload, warmup)
    tracer = None
    if args.trace:  # installed after the warm-up: spans cover measured requests only
        tracer = Tracer()
        tracer.install()
    lat, failed, elapsed, rss_mb = replay(
        args.workload, requests, None if args.requests else args.seconds, tracer,
        rss_after=workloads.TRACE_LENGTH[args.workload])
    out.update(summarize(lat, warm_failed + failed, elapsed))
    out["attempted"] += len(warmup)
    out["peak_rss_mb"] = rss_mb
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["counts"] = tracer.exact_counts()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
