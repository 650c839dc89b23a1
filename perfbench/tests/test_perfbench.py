"""Tests of the benchmark itself: oracles, seeding, exact counts, pairing.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import workloads  # noqa: E402
from worker import replay  # noqa: E402


def _traced(workload: str, n: int, hash_seed: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "1",
         "--requests", str(n), "--trace"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONHASHSEED=hash_seed))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrong_expectation_counts_as_failure(workload):
    _, requests = workloads.make_stream(workload, 1, 2)
    wrong = replace(requests[1], expected=requests[1].expected[:-1] + ("wrong",))
    latencies, failed, _, _ = replay(workload, [requests[0], wrong])
    assert len(latencies) == 2
    assert failed == [wrong.label]


def test_exception_counts_as_failure():
    _, requests = workloads.make_stream("witness", 1, 1)
    broken = replace(requests[0], args=(None,) + requests[0].args[1:])
    _, failed, _, _ = replay("witness", [broken, requests[0]])
    assert failed == [broken.label]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_streams_are_seeded(workload):
    specs, _ = workloads.make_stream(workload, 3, 20)
    again, _ = workloads.make_stream(workload, 3, 20)
    other, _ = workloads.make_stream(workload, 4, 20)
    prefix, _ = workloads.make_stream(workload, 3, 5)
    assert workloads.digest(specs) == workloads.digest(again)
    assert workloads.digest(specs) != workloads.digest(other)
    assert prefix == specs[:5]


def test_table_germs_are_distinct():
    specs, _ = workloads.make_stream("table", 2, workloads.STREAM_LENGTH["table"])
    assert len(set(specs)) == len(specs)


def test_pipeline_cells_match_subdivision():
    from germlab.simplicial import validate_or_subdivide

    specs, requests = workloads.make_stream("homology", 5, 25)
    for (n, facets, k, _, _, p), req in zip(specs, requests):
        cells = workloads.pipeline_cells(workloads._faces(facets),
                                         workloads._shape(k, n // k, p)[2])
        Y = validate_or_subdivide(req.args[0])
        assert cells == sum(len(s) for s in Y.simplices().values())
        assert workloads.CELLS_MIN <= cells <= workloads.CELLS_MAX


@pytest.fixture(scope="module")
def traced():
    return {w: [_traced(w, 3, h) for h in ("1", "2")] for w in workloads.WORKLOADS}


def test_exact_counts_repeat_under_hash_seeds(traced):
    for workload, (first, second) in traced.items():
        assert first["counts"] == second["counts"], workload
        assert first["failed"] == 0, workload


def test_bypass_predictions(traced):
    table, witness, homology = (traced[w][0]["layers"] for w in workloads.WORKLOADS)
    assert not any(k.startswith("kernel.") and k.endswith(".calls") for k in homology)
    assert not any(k.startswith(("linalg.", "realtopo.")) for k in table)
    assert not any(k.startswith("linalg.") for k in witness)
    assert "kernel.std_basis.global.calls" not in table
    assert table["kernel.std_basis.local.calls"] > 0
    assert witness["kernel.std_basis.global.calls"] > 0
    assert homology["linalg.rank_q.calls"] > 0


def test_every_declared_layer_metric_is_measured(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seen = set().union(*(t[0]["layers"] for t in traced.values()))
    missing = [m["name"] for m in spec["per_layer"]
               if not m["name"].startswith("trace.") and m["name"] not in seen]
    assert not missing


def _result(tmp: Path, digest: str) -> Path:
    tmp.mkdir()
    stamp = {"kernel_backend": "python", "python": "3", "nproc": 2, "seed": 1,
             "requests_digest": digest, "workload": "witness", "trace": 0, "seconds": 30}
    metrics = {"throughput_rps": {"value": 10.0, "unit": "1/s"}}
    (tmp / "witness-seed1-trace0.json").write_text(json.dumps(
        {"stamp": stamp, "result": {"metrics": metrics}}))
    return tmp


def test_compare_refuses_differing_stamps(tmp_path, capsys):
    a = _result(tmp_path / "a", "0123")
    b = _result(tmp_path / "b", "4567")
    assert compare.main([str(a), str(b)]) == 2
    assert "requests_digest" in capsys.readouterr().err
    c = _result(tmp_path / "c", "0123")
    assert compare.main([str(a), str(c)]) == 0


def test_compare_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0]
    assert compare.verdict(base, [7.0] * 5, "higher", 0.2)[0] == "worse"
    assert compare.verdict(base, [12.0] * 5, "higher", 0.2)[0] == "better"
    assert compare.verdict(base, [10.05] * 5, "higher", 0.2)[0] == "same"
