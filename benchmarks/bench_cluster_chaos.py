"""Cluster chaos benchmark — open-loop traffic under a seeded fault plan.

An open-loop SpMM request stream (fixed arrival clock, no backpressure)
drives a 3-host loopback cluster while a deterministic
:class:`~repro.testing.faults.FaultPlan` takes the fleet apart mid-run:

* one host has its head connection **dropped** at a task frame and its
  re-dials **refused** until the retry policy declares it DEAD — then the
  membership probe re-dials, warm-up pings and readmits it, and
* a second host's worker process is **killed outright** (the plan's
  ``kill_host`` action, applied by the driver at its scheduled request
  step) and never comes back.

Four CI gates ride on it:

* **exactness** — every response is bit-identical to the single-host
  one-shot oracle, through drops, refusals, failover and readmission;
* **zero failed requests** — chaos costs latency, never errors;
* **readmission** — the dropped host must complete DEAD → RECOVERING →
  HEALTHY during the run (``hosts_readmitted >= 1``);
* **bounded tail** — open-loop p99 stays under ``P99_BOUND_S`` (recovery
  is backoff-paced, not retry-storm-paced).

Results land in ``benchmarks/results/cluster_chaos.json`` for the CI
artifact upload.  Run standalone
(``python benchmarks/bench_cluster_chaos.py``) or through pytest.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread per process *before* NumPy loads: latency gates
# measure recovery pacing, not BLAS oversubscription noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json
import threading
import time
from pathlib import Path

import numpy as np

from repro.cluster import ClusterScheduler, RetryPolicy
from repro.cluster.head import rendezvous_rank
from repro.datasets.generators import power_law_matrix
from repro.formats.mebcrs import MEBCRSMatrix
from repro.precision.types import Precision, quantize
from repro.serve.scheduler import ShardScheduler
from repro.testing import FaultPlan, loopback_tls_files, tls_available

HOSTS = 3
HOST_IDS = [f"host-{i}" for i in range(HOSTS)]
NUM_NODES = 1200
AVG_ROW_LENGTH = 16
SPMM_WIDTH = 32
NUM_MATRICES = 3
#: Open-loop arrival clock and request count.
REQUESTS = 48
ARRIVAL_S = 0.05
#: Request step at which the plan's kill_host action is applied.
KILL_STEP = REQUESTS // 3
CHAOS_SEED = 13
#: Open-loop request count for the trusted-plane (corruption) phase.
TRUSTED_REQUESTS = 16
#: Shared secret for the trusted-plane phase's handshakes.
TRUSTED_TOKEN = "chaos-bench-token"
#: Tail gate: open-loop p99 under chaos (includes backoff-paced failover).
P99_BOUND_S = 10.0
#: Everything must settle (requests + readmission) within this budget.
DEADLINE_S = 120.0

RESULTS_JSON = Path(__file__).resolve().parent / "results" / "cluster_chaos.json"


def _workload():
    """Matrices spanning >= 2 distinct affinity hosts, plus oracle outputs."""
    rng = np.random.default_rng(CHAOS_SEED)
    b_q = quantize(
        rng.standard_normal((NUM_NODES, SPMM_WIDTH)), Precision.FP16
    ).astype(np.float32)
    oracle = ShardScheduler()
    matrices, seed = [], 0
    while len(matrices) < NUM_MATRICES and seed < 64:
        csr = power_law_matrix(NUM_NODES, avg_row_length=AVG_ROW_LENGTH, seed=seed)
        seed += 1
        key = csr.content_key()
        primary = rendezvous_rank(key, HOST_IDS)[0]
        # Keep the mix spread: at most ceil(N/2) matrices per primary host.
        if sum(1 for m in matrices if m["primary"] == primary) >= (NUM_MATRICES + 1) // 2:
            continue
        fmt = MEBCRSMatrix.from_csr(csr, precision="fp16")
        matrices.append(
            {
                "csr": csr,
                "fmt": fmt,
                "key": key,
                "primary": primary,
                "oracle": oracle.run_spmm(fmt, b_q, Precision.FP16, csr),
            }
        )
    primaries = {m["primary"] for m in matrices}
    assert len(primaries) >= 2, "could not spread the mix over >= 2 hosts"
    return matrices, b_q


def _victims(matrices) -> tuple[str, str]:
    """(readmit victim, kill victim): distinct hosts that both see traffic."""
    readmit = matrices[0]["primary"]
    kill = next(m["primary"] for m in matrices if m["primary"] != readmit)
    return readmit, kill


def _drive(
    sched: ClusterScheduler, plan: FaultPlan, matrices, b_q, requests: int = REQUESTS
) -> dict:
    """Open loop: one request per ARRIVAL_S tick; the driver applies the
    plan's scheduled kill_host actions at their request steps."""
    latencies = [None] * requests
    failures: list[str] = []
    mismatches = 0
    lock = threading.Lock()

    def one_request(i: int) -> None:
        m = matrices[i % len(matrices)]
        t0 = time.perf_counter()
        try:
            out = sched.run_spmm(
                m["fmt"],
                b_q,
                Precision.FP16,
                target_blocks=10_000,
                csr=m["csr"],
                content_key=m["key"],
            )
        except Exception as exc:  # gate: chaos must never surface errors
            with lock:
                failures.append(f"request {i}: {type(exc).__name__}: {exc}")
            return
        elapsed = time.perf_counter() - t0
        exact = np.array_equal(out, m["oracle"])
        with lock:
            latencies[i] = elapsed
            if not exact:
                nonlocal mismatches
                mismatches += 1

    threads = []
    t0 = time.perf_counter()
    for i in range(requests):
        for kind, host in plan.actions_at(i):
            if kind == "kill_host":
                state = next(h for h in sched.hosts if h.host_id == host)
                if state.process is not None:
                    state.process.terminate()
        t = threading.Thread(target=one_request, args=(i,))
        t.start()
        threads.append(t)
        # Open loop: the next arrival does not wait for this completion.
        time.sleep(max(0.0, (i + 1) * ARRIVAL_S - (time.perf_counter() - t0)))
    deadline = t0 + DEADLINE_S
    for t in threads:
        t.join(max(0.1, deadline - time.perf_counter()))
        if t.is_alive():
            failures.append("request thread still running at the deadline")
    wall = time.perf_counter() - t0
    done = [s for s in latencies if s is not None]
    done.sort()

    def pct(p: float) -> float:
        return done[min(len(done) - 1, int(p * len(done)))] if done else float("nan")

    return {
        "requests": requests,
        "completed": len(done),
        "failed": len(failures),
        "failures": failures[:8],
        "mismatches": mismatches,
        "wall_s": wall,
        "p50_ms": pct(0.50) * 1e3,
        "p99_ms": pct(0.99) * 1e3,
        "max_ms": (done[-1] * 1e3) if done else float("nan"),
    }


def run_cluster_chaos() -> dict:
    matrices, b_q = _workload()
    readmit_victim, kill_victim = _victims(matrices)
    plan = FaultPlan(seed=CHAOS_SEED)
    with ClusterScheduler(
        hosts=HOSTS,
        faults=plan,
        retry_policy=RetryPolicy(max_attempts=1, base_delay_s=0.02, seed=CHAOS_SEED),
        probe_interval_s=0.2,
    ) as sched:
        # Warm pass: routes, plans and remote translation caches, pre-chaos.
        for m in matrices:
            out = sched.run_spmm(
                m["fmt"], b_q, Precision.FP16, target_blocks=10_000,
                csr=m["csr"], content_key=m["key"],
            )
            assert np.array_equal(out, m["oracle"]), "warm pass must be exact"
        # Arm the chaos: a connection-level outage on one host (the worker
        # process survives, so readmission finds its cache warm) and a real
        # process kill on another, applied by the driver at KILL_STEP.
        plan.drop_connection(nth=1, type="task", scope=readmit_victim)
        plan.refuse_connect(2, scope=readmit_victim)
        plan.kill_host(step=KILL_STEP, host=kill_victim)
        drive = _drive(sched, plan, matrices, b_q)
        # The probe may still be mid-readmission when traffic ends.
        deadline = time.monotonic() + 30.0
        while (
            sched.stats_snapshot()["hosts_readmitted"] < 1
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        snap = sched.stats_snapshot()
    report = {
        "config": {
            "hosts": HOSTS,
            "num_nodes": NUM_NODES,
            "spmm_width": SPMM_WIDTH,
            "matrices": NUM_MATRICES,
            "requests": REQUESTS,
            "arrival_s": ARRIVAL_S,
            "kill_step": KILL_STEP,
            "seed": CHAOS_SEED,
            "cpus": os.cpu_count(),
        },
        "victims": {"readmit": readmit_victim, "kill": kill_victim},
        "drive": drive,
        "fired": plan.fired_kinds(),
        "cluster": {
            "host_deaths": snap["host_deaths"],
            "failovers": snap["failovers"],
            "reconnect_attempts": snap["reconnect_attempts"],
            "hosts_readmitted": snap["hosts_readmitted"],
            "probe_dials": snap["probe_dials"],
            "death_log": snap["death_log"],
            "host_states": {h: e["state"] for h, e in snap["hosts"].items()},
        },
    }
    report["trusted"] = run_trusted_chaos()
    RESULTS_JSON.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_JSON.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


def run_trusted_chaos() -> dict:
    """Phase 2 — the trusted data plane under seeded payload corruption.

    A fresh authenticated (and, when the local toolchain can mint a
    loopback certificate, TLS-wrapped) cluster serves the same open-loop
    mix while one seeded plan's ``corrupt_payload`` faults flip bits in
    both directions: a head-side task frame (caught by the worker's CRC
    check) and each worker's first result frame (caught by the head's).
    The plan's ``fired`` log is the head's, so it lists the task fault.  The
    gates: every response bit-identical to the oracle, zero failed
    requests, and ``integrity_failures >= 1`` — corruption costs a retry,
    never numerics and never an error.
    """
    matrices, b_q = _workload()
    plan = (
        FaultPlan(seed=CHAOS_SEED + 1)
        .corrupt_payload(nth=2, type="task")
        .corrupt_payload(nth=1, type="result")
    )
    tls = tls_available()
    tls_kwargs = {}
    if tls:
        cert, key = loopback_tls_files()
        tls_kwargs = {"tls_cert": cert, "tls_key": key}
    with ClusterScheduler(
        hosts=HOSTS,
        faults=plan,
        auth_token=TRUSTED_TOKEN,
        retry_policy=RetryPolicy(base_delay_s=0.02, seed=CHAOS_SEED),
        probe_interval_s=0.2,
        **tls_kwargs,
    ) as sched:
        drive = _drive(sched, plan, matrices, b_q, requests=TRUSTED_REQUESTS)
        snap = sched.stats_snapshot()
    return {
        "config": {"hosts": HOSTS, "requests": TRUSTED_REQUESTS, "tls": tls},
        "drive": drive,
        "fired": plan.fired_kinds(),
        "security": {
            "integrity_failures": snap["integrity_failures"],
            "auth_rejects": snap["auth_rejects"],
            "handshake_failures": snap["handshake_failures"],
            "reconnects": snap["reconnects"],
            "task_failures": snap["task_failures"],
        },
    }


def _emit(report: dict) -> None:
    drive, cluster = report["drive"], report["cluster"]
    trusted = report["trusted"]
    rows = [
        ["completed / requests", f"{drive['completed']}/{drive['requests']}"],
        ["failed requests", str(drive["failed"])],
        ["oracle mismatches", str(drive["mismatches"])],
        ["p50 / p99 (ms)", f"{drive['p50_ms']:.1f} / {drive['p99_ms']:.1f}"],
        ["host deaths / failovers", f"{cluster['host_deaths']} / {cluster['failovers']}"],
        ["hosts readmitted", str(cluster["hosts_readmitted"])],
        ["final host states", " ".join(f"{h}={s}" for h, s in cluster["host_states"].items())],
        ["faults fired", " ".join(report["fired"]) or "-"],
        [
            "trusted phase (auth%s)" % ("+TLS" if trusted["config"]["tls"] else ""),
            f"{trusted['drive']['completed']}/{trusted['drive']['requests']} ok, "
            f"{trusted['security']['integrity_failures']} integrity failures caught",
        ],
    ]
    try:
        from bench_common import emit_table

        emit_table(
            "cluster_chaos",
            ["Metric", "Value"],
            rows,
            title=f"repro.cluster chaos: {report['config']['requests']} open-loop "
            f"requests over {report['config']['hosts']} hosts under FaultPlan "
            f"seed {report['config']['seed']}",
        )
    except (ImportError, TypeError):  # standalone, or non-numeric cells
        for label, value in rows:
            print(f"{label:>26}: {value}")
    print(f"[cluster chaos JSON written to {RESULTS_JSON}]")


def _check(report: dict) -> None:
    drive, cluster = report["drive"], report["cluster"]
    assert drive["failed"] == 0, (
        f"chaos surfaced {drive['failed']} failed requests: {drive['failures']}"
    )
    assert drive["completed"] == drive["requests"]
    assert drive["mismatches"] == 0, (
        f"{drive['mismatches']} responses diverged from the single-host oracle"
    )
    assert cluster["hosts_readmitted"] >= 1, (
        "the dropped host never completed DEAD -> RECOVERING -> HEALTHY "
        f"(probe dials: {cluster['probe_dials']}, death log: {cluster['death_log']})"
    )
    readmit, kill = report["victims"]["readmit"], report["victims"]["kill"]
    assert cluster["host_states"][readmit] == "healthy", (
        f"readmitted host ended {cluster['host_states'][readmit]!r}, not healthy"
    )
    assert cluster["host_states"][kill] == "dead", (
        f"killed host ended {cluster['host_states'][kill]!r}, not dead"
    )
    assert cluster["host_deaths"] >= 2  # the outage and the kill
    assert "kill_host" in report["fired"] and "refuse_connect" in report["fired"]
    p99_s = drive["p99_ms"] / 1e3
    assert p99_s <= P99_BOUND_S, (
        f"open-loop p99 {p99_s:.2f}s exceeds {P99_BOUND_S}s under chaos — "
        "recovery is stalling the request path"
    )
    # Trusted-plane gates: corruption is caught and costs a retry, never
    # numerics and never an error.
    trusted = report["trusted"]
    tdrive, security = trusted["drive"], trusted["security"]
    assert tdrive["failed"] == 0, (
        f"trusted phase surfaced {tdrive['failed']} failed requests: "
        f"{tdrive['failures']}"
    )
    assert tdrive["completed"] == tdrive["requests"]
    assert tdrive["mismatches"] == 0, (
        f"{tdrive['mismatches']} trusted-phase responses diverged from the oracle"
    )
    assert security["integrity_failures"] >= 1, (
        "no corrupted frame was ever detected — the seeded corrupt_payload "
        f"faults never fired (fired: {trusted['fired']})"
    )
    assert security["task_failures"] == 0


try:  # the `benchmark` fixture only exists with the plugin installed
    import pytest_benchmark  # noqa: F401

    def test_cluster_chaos(benchmark):
        report = benchmark.pedantic(run_cluster_chaos, rounds=1, iterations=1)
        _emit(report)
        _check(report)

except ImportError:

    def test_cluster_chaos():
        report = run_cluster_chaos()
        _emit(report)
        _check(report)


if __name__ == "__main__":
    result = run_cluster_chaos()
    _emit(result)
    _check(result)
    print("OK: cluster chaos benchmark complete")
