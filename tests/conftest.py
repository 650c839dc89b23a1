"""Collects acceptance-criterion outcomes and prints one line per criterion.

Also puts src/ on the PYTHONPATH of the subprocesses the CLI tests start
(`python -m germlab.cli`), as pyproject.toml's `pythonpath` does for this
process, so a bare `pytest` from a checkout runs them too.
"""

import os
from pathlib import Path

CRITERIA = {
    "01": "double/triple point Milnor columns of the simple classification table",
    "02": "triple/quadruple point spaces empty where the table shows dashes",
    "03": "image Milnor numbers match the listed column",
    "04": "candidate verdicts: exactly A1, P1, Q2 pass; nonsimple rows all fail",
    "05": "Q2 witness confirmed with the documented intermediate values",
    "06": "orbit-of-segments complex has AH_0 = Z (torsion-free)",
    "07": "property suite on 200+ random good complexes (five theorem oracles)",
    "08": "partition sign identities (k <= 8) and divided-difference identity (500 samples)",
    "09": "Milnor engine oracles: Brieskorn-Pham closed form and chain agreement",
    "10": "homotopy-level statements excluded by design; homology substitutes present",
}

_results: dict[str, list] = {}


def pytest_configure(config):
    src = str(Path(__file__).resolve().parent.parent / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if name.startswith("test_criterion_"):
        key = name[len("test_criterion_"):][:2]
        _results.setdefault(key, []).append(report.outcome)


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for key in sorted(CRITERIA):
        outcomes = _results.get(key)
        if not outcomes:
            continue
        status = "PASS" if all(o == "passed" for o in outcomes) else "FAIL"
        terminalreporter.write_line(f"criterion {key} {status} - {CRITERIA[key]}")
