"""Compare two sets of benchmark results, seed by seed.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the files run.py writes to .perfbench_out/
(<workload>-seed<seed>-trace<t>.json), made with the same seeds on the
parent and on the change.  Files are paired by name; a pair whose stamps
differ (kernel backend, Python version, nproc, seed, request digest, run
length) is refused, because its numbers are not comparable.

For every workload and end-to-end metric it prints both sides' median and
quartiles, the pairs the change won, and a verdict: "worse" when the
change's median is worse than the parent's by more than the metric's bound
in BENCHMARK.json, "better" when the change won at least nine tenths of the
pairs and the medians differ by more than the parent's quartile spread,
"unresolved" when the parent's own spread exceeds the bound, else "same".
Per-layer metrics of traced runs are listed side by side.

Exit code: 0, 1 if some metric is worse, 2 if the runs cannot be paired.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[str, dict]:
    return {p.name: json.loads(p.read_text()) for p in sorted(directory.glob("*-trace[01].json"))}


def pair(base: dict, change: dict) -> tuple[list, list[str]]:
    """Paired (base, change) results and the reasons pairs were refused."""
    pairs, refused = [], []
    for name in sorted(set(base) | set(change)):
        if name not in base or name not in change:
            refused.append(f"{name}: present on one side only")
            continue
        a, b = base[name]["stamp"], change[name]["stamp"]
        diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        if diff:
            refused.append(f"{name}: stamps differ in {', '.join(diff)}")
            continue
        pairs.append((base[name], change[name]))
    return pairs, refused


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], better: str, bound: float) -> tuple[str, int]:
    sign = 1 if better == "higher" else -1
    wins = sum(1 for a, b in zip(base, change) if sign * (b - a) > 0)
    q1, med_a, q3 = quartiles(base)
    med_b = statistics.median(change)
    if sign * (med_a - med_b) > bound * abs(med_a):
        return "worse", wins
    if wins >= 0.9 * len(base) and sign * (med_b - med_a) > q3 - q1:
        return "better", wins
    if med_a and (q3 - q1) / abs(med_a) > bound and not (
            min(sign * b for b in change) > max(sign * a for a in base)):
        return "unresolved", wins
    return "same", wins


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    pairs, refused = pair(load(Path(argv[0])), load(Path(argv[1])))
    if refused or not pairs:
        print("refusing to compare:", *(refused or ["no result files"]), sep="\n  ",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    series: dict[tuple, tuple[list, list]] = defaultdict(lambda: ([], []))
    for a, b in pairs:
        key = (a["stamp"]["workload"], a["stamp"]["trace"])
        for name in a["result"]["metrics"]:
            series[key + (name,)][0].append(a["result"]["metrics"][name]["value"])
            series[key + (name,)][1].append(b["result"]["metrics"][name]["value"])
    worse = 0
    print(f"{'workload':9} {'metric':44} {'base q1/med/q3':>32} {'change q1/med/q3':>32}"
          f" {'wins':>6}  verdict")
    for (workload, trace, name), (base, change) in sorted(series.items()):
        m = declared[name]
        a = "/".join(f"{x:.4g}" for x in quartiles(base))
        b = "/".join(f"{x:.4g}" for x in quartiles(change))
        if trace:
            print(f"{workload:9} {name:44} {a:>32} {b:>32} {'':>6}  per-layer")
            continue
        v, wins = verdict(base, change, m["better"], m["bound"])
        worse += v == "worse"
        print(f"{workload:9} {name:44} {a:>32} {b:>32} {wins:>3}/{len(base):<2}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
