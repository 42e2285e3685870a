"""End-to-end benchmark of the FlashSparse reproduction (see README.md).

One workload, as the benchmark driver runs it::

    python3 benchmarks/e2e/run.py --workload kernel_spmm --seed 7 --seconds 8 --trace 0

prints a human-readable summary and, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric of BENCHMARK.json (``--trace 0``) or every per-layer
metric (``--trace 1``).

Every workload, as a person runs it::

    python3 benchmarks/e2e/run.py --seed 20250211 --out ledger.json
    python3 benchmarks/e2e/run.py --compare before.json after.json
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

# One BLAS thread, set before NumPy loads and inherited by pool workers and
# worker hosts: the box has two cores and the load generator needs one.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
sys.path[:0] = [str(HERE), str(ROOT / "src")]
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)

#: glibc's allocator, pinned like the BLAS threads and for the same reason:
#: by default every array over 128 KiB is mapped afresh and unmapped on
#: free, so up to a third of a request is first-touch page faults, priced by
#: the hypervisor, not by the program (``kernel_sddmm``: 14 ms a call with
#: them, 9.5 ms without; and which of the two a run gets flips with the
#: order of frees, i.e. with the seed).  With these the heap keeps what was
#: freed and a warm request touches memory it already owns.  They are read
#: when the process starts, so ``run.py`` re-executes itself under them;
#: pool workers and worker hosts inherit them.  Arrays over 32 MiB are
#: still mapped afresh: glibc allows no higher threshold.
ALLOCATOR = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(2 << 30),
    "MALLOC_TOP_PAD_": str(256 << 20),
}
STARTED_AT = "E2E_BENCH_STARTED_AT"


def pin_allocator() -> None:
    """Re-execute this command under :data:`ALLOCATOR`, once; afterwards put
    ``PROCESS_START`` back to when the first process started."""
    global PROCESS_START
    if STARTED_AT not in os.environ:
        os.environ.update(ALLOCATOR)
        os.environ[STARTED_AT] = repr(time.time() - (time.perf_counter() - PROCESS_START))
        sys.stdout.flush()
        os.execv(sys.executable, [sys.executable] + sys.argv)
    # Popped, so that a run started from this process pins and times itself.
    PROCESS_START = time.perf_counter() - (time.time() - float(os.environ.pop(STARTED_AT)))


#: Set-ups per untraced run; ``setup_s`` is their median.  Only the last one
#: runs in the measuring process — the others each run in a fork of it, so
#: every one is this process's *first* set-up (lazy imports and allocator as
#: cold as the user's) and nothing a discarded set-up allocated is left in
#: ``peak_rss_mb``.
SETUP_REPEATS = 3

#: ``rel_err_fp64`` is the largest error among this many checks from the
#: start of the run — a count every run reaches, so the figure repeats
#: exactly for a seed however many requests the run got through.  (All
#: checks count in ``failed``.)
REL_ERR_CHECKS = 4


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_workload(args) -> int:
    spec = load_spec()

    import harness
    import layers
    from tracing import Tracer
    from workloads import WORKLOADS, timed

    from repro.formats.cache import format_cache_stats

    workload = WORKLOADS[args.workload]
    if workload.clients > (os.cpu_count() or 1):
        print(f"{workload.name} needs {workload.clients} client threads; nproc is {os.cpu_count()}", file=sys.stderr)
        return 2
    imports_s = time.perf_counter() - PROCESS_START
    harness.tag_shm_names()

    inputs, input_gen_s = timed(lambda: workload.make_inputs(args.seed))
    setups = [] if args.trace else [harness.set_up_in_fork(workload, inputs) for _ in range(SETUP_REPEATS - 1)]
    state, seconds = timed(lambda: workload.set_up(inputs))
    setups.append(seconds)
    loop = (
        (lambda s, tracer=None: harness.open_loop(workload, state, s, args.seed, tracer))
        if workload.rates
        else (lambda s, tracer=None: harness.closed_loop(workload, state, s, tracer))
    )
    tracer = None
    try:
        snap_before = layers.snapshot(state)
        if args.trace:
            cache_before = format_cache_stats()
            untraced = loop(args.seconds / 2)
            snap_after = layers.snapshot(state)
            tracer = Tracer()
            tracer.install()
            try:
                traced = loop(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            phases = [untraced, traced]
            metrics = layers.derive(
                workload, state, untraced, traced, tracer, snap_before, snap_after,
                cache_before, [m["name"] for m in spec["per_layer"]],
            )
            metrics["client.input_gen_s"] = input_gen_s
            extra = {"trace_points_missing": tracer.missing}
        else:
            phase = loop(args.seconds)
            phases = [phase]
            metrics, extra = _end_to_end(workload, state, phase, snap_before, layers.snapshot(state))
            metrics["setup_s"] = imports_s + harness.median(setups)
            extra["steps"] = phase.steps
    finally:
        workload.tear_down(state)
    leaked = harness.child_pids()
    harness.stop_children(leaked)
    leaked_shm = harness.shm_segments(os.getpid())
    if args.trace:
        metrics["client.leaked_procs"] = float(len(leaked))
        metrics["client.leaked_shm"] = float(len(leaked_shm))
    else:
        metrics["peak_rss_mb"] = phase.rss_mb or harness.peak_rss_mb()
    extra.update(leaked_procs=len(leaked), leaked_shm=sorted(leaked_shm))

    declared = spec["per_layer" if args.trace else "end_to_end"]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    record = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    for phase in phases:
        for why in [c.why for c in phase.checks if not c.ok] + phase.errors:
            print(f"FAILED on {workload.name}: {why}")
    print(f"{workload.name}  seed={args.seed}  seconds={args.seconds}  trace={args.trace}")
    print(f"  attempted={attempted}  failed={failed}  checked={sum(len(p.checks) for p in phases)}")
    for name, cell in record["metrics"].items():
        print(f"  {name:<42} {cell['value']:>16.6g} {cell['unit']}")
    if args.full:
        full = dict(
            record, workload=workload.name, trace=args.trace, extra=extra,
            samples=phases[0].completed, provenance=harness.provenance(args.seed, args.seconds),
        )
        print("FULL " + json.dumps(full))
    if tracer is not None and args.trace_out:
        tracer.dump(args.trace_out)
    print(json.dumps(record))
    return 0


def _end_to_end(workload, state, phase, snap_before, snap_after) -> tuple[dict, dict]:
    import harness
    import layers

    floor_ms = 1e3 * harness.median(phase.floors_s)
    metrics = {
        "latency_p50_ms": phase.p50_ms,
        "throughput_rps": harness.median(phase.slice_rps),
        "rel_err_fp64": max((c.rel_err for c in phase.checks[:REL_ERR_CHECKS]), default=0.0),
        "model_gflops": workload.model(state)["gflops"],
    }
    # Reported beside the gated metrics (README: why these four are not in
    # BENCHMARK.json's end_to_end list).
    extra = {
        "floor_ratio": phase.p50_ms / floor_ms if floor_ms else None,
        "failed_frac": phase.failed / max(1, phase.attempted),
        "slo_rate_rps": harness.slo_rate(phase.steps) if workload.rates else None,
        "wire_bytes_per_req": layers.wire_bytes_per_req(snap_before, snap_after),
    }
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run this one workload (the driver's form)")
    parser.add_argument("--seed", type=int, default=20250211)
    parser.add_argument("--seconds", type=float, help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full", action="store_true", help="also print the run's full record on a line starting FULL (the suite reads it)")
    parser.add_argument("--trace-out", help="write the traced run's spans (JSON) here")
    parser.add_argument("--out", help="suite: write the ledger (JSON) here")
    parser.add_argument("--smoke", action="store_true", help="suite: one round, half a second of load per run")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"), help="compare two ledgers under BENCHMARK.json's bounds")
    args = parser.parse_args(argv)
    if args.compare:
        import report

        return report.compare(load_spec(), *args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"program source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.workload is not None:
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
        return run_workload(args)
    import report

    return report.suite(load_spec(), args)


if __name__ == "__main__":
    pin_allocator()
    sys.exit(main())
