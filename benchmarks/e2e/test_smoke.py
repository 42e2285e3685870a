"""Schema test of the benchmark itself (``pytest benchmarks/e2e -q``; tier-1
collects ``tests/`` only, so this never runs there).

One ``run.py --smoke`` pass, then: every metric BENCHMARK.json names is
emitted for every workload with its unit (the four suite-only metrics with
a value or an explicit null), names are well-formed, and the contract's
limits hold.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "ledger.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    return json.loads(out.read_text(encoding="utf-8"))


def test_spec_is_within_the_contract_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for key in ("end_to_end", "per_layer") for m in SPEC[key])
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(0 <= m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    ).items()
    assert SPEC["paths"] == ["benchmarks/e2e"]


def test_every_metric_is_emitted_for_every_workload(ledger):
    # The suite also runs the two workloads BENCHMARK.json leaves out (README).
    assert {w["name"] for w in SPEC["workloads"]} | {"kernel_sddmm", "serve_openloop"} == set(ledger["workloads"])
    for name, cell in ledger["workloads"].items():
        assert cell["failed"] == 0, name
        for metric in SPEC["end_to_end"]:
            entry = cell["end_to_end"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert all(isinstance(v, float) and v > 0 for v in entry["values"]), (name, metric)
        for extra in ("floor_ratio", "failed_frac", "slo_rate_rps", "wire_bytes_per_req"):
            assert extra in cell["end_to_end"], (name, extra)  # value or explicit null
        assert set(cell["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
        for metric in SPEC["per_layer"]:
            entry = cell["per_layer"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], (int, float)), (name, metric)


def test_not_applicable_cells_are_explicit_nulls(ledger):
    for name, cell in ledger["workloads"].items():
        wire = cell["end_to_end"]["wire_bytes_per_req"]["median"]
        slo = cell["end_to_end"]["slo_rate_rps"]["median"]
        assert (wire is not None) == name.startswith("cluster_")
        assert (slo is not None) == (name == "serve_openloop")


def test_provenance_is_recorded(ledger):
    assert {"seed", "git_sha", "nproc", "blas_threads", "numpy", "scipy", "python"} <= set(ledger["provenance"])
    assert set(ledger["provenance"]["blas_threads"].values()) == {"1"}
