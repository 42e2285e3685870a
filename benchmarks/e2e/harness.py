"""Measurement plumbing shared by every workload: load loops, percentiles,
leak accounting and provenance.

Nothing here knows what a request *is* — a workload hands the loops three
callables (``prepare`` outside the timed span, ``call`` inside it, ``check``
outside it again) and gets back latencies and check records.
"""

from __future__ import annotations

import os
import platform
import secrets
import signal
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Raised requests whose exception is kept for the human reading the run.
MAX_ERRORS_KEPT = 5

#: How long before an arrival the open-loop generator wakes to time a floor.
FLOOR_LEAD_S = 0.005

#: Throughput is the median over this many equal slices of the run: one
#: slow burst then costs one slice, not the whole figure.
THROUGHPUT_SLICES = 8


@dataclass
class Check:
    """Outcome of checking one request outside its timed span."""

    ok: bool
    #: Relative Frobenius error of the answer against the fp64 oracle.
    rel_err: float
    #: Wall-clock of the one-shot in-process call the served answer must be
    #: bit-identical to (seconds; ``None`` when the request *is* that call).
    direct_s: float | None = None
    why: str = ""


@dataclass
class Phase:
    """What one measured phase (closed or open loop) observed."""

    latencies_s: list = field(default_factory=list)
    attempted: int = 0
    raised: int = 0
    refused: int = 0
    #: Open loop only: refused on a step past ``workload.overload_from``,
    #: where refusing is the server's designed answer.  Counted against that
    #: step's limit, not in ``failed``.
    shed: int = 0
    checks: list = field(default_factory=list)
    #: Wall-clock samples of the external floor for the same requests.
    floors_s: list = field(default_factory=list)
    #: Completions per second in each slice of the run.
    slice_rps: list = field(default_factory=list)
    #: ``ru_maxrss`` once ``workload.rss_after`` requests were done (MiB).
    rss_mb: float | None = None
    #: Open loop only: one dict per rate step.
    steps: list = field(default_factory=list)
    #: Last successful result (the planner's shard count is read off it).
    last_result: object = None
    #: What the first few raised requests raised, for the human reading the run.
    errors: list = field(default_factory=list)

    @property
    def wrong(self) -> int:
        return sum(1 for c in self.checks if not c.ok)

    @property
    def failed(self) -> int:
        return self.raised + self.refused + self.wrong

    @property
    def completed(self) -> int:
        return len(self.latencies_s)

    @property
    def p50_ms(self) -> float:
        """Median latency; an open loop reads it on its lowest step, where
        nothing queues."""
        return self.steps[0]["p50_ms"] if self.steps else 1e3 * median(self.latencies_s)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def _slice_rates(done_at, start: float) -> list[float]:
    """Completions per second over THROUGHPUT_SLICES consecutive groups of
    equally many completions (``done_at`` on the clock ``start`` is on)."""
    done_at = sorted(done_at)
    size = max(1, len(done_at) // THROUGHPUT_SLICES)
    rates, edge = [], start
    for lo in range(0, len(done_at) - size + 1, size):
        last = done_at[lo + size - 1]
        if last > edge:
            rates.append(size / (last - edge))
        edge = last
    return rates


def closed_loop(workload, state, seconds: float, tracer=None) -> Phase:
    """``workload.clients`` callers, each sending its next request only after
    the previous one resolved, until ``seconds`` of request time have passed.

    Floors are timed inline, right after the request they belong to, so
    machine drift hits both sides of ``floor_ratio`` alike.  A single caller
    also checks inline (nothing else is in flight, so the pause perturbs
    nobody) and the clock that ``seconds`` and throughput run on counts
    request time only.  Several callers defer their checks until every
    caller has stopped: a check is worth several requests and would steal
    the core another caller's timed request is running on.
    """
    phase = Phase()
    lock = threading.Lock()
    clients = workload.clients
    deferred: list = []
    done_at: list = []
    started = time.perf_counter()

    def caller(index: int) -> None:
        busy = 0.0  # request time so far: the single caller's clock
        i = index
        while (busy if clients == 1 else time.perf_counter() - started) < seconds:
            args = workload.prepare(state, i)
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = workload.call(state, args)
                else:
                    with tracer.request(i):
                        result = workload.call(state, args)
            except Exception as exc:  # the run goes on; the failure is counted
                with lock:
                    phase.attempted += 1
                    phase.raised += 1
                    if len(phase.errors) < MAX_ERRORS_KEPT:
                        phase.errors.append(repr(exc))
                i += clients
                busy += time.perf_counter() - t0
                continue
            t1 = time.perf_counter()
            busy += t1 - t0
            k = i // clients
            check = k % workload.check_every == 0
            floor = k % workload.floor_every == 0
            with lock:
                phase.attempted += 1
                phase.latencies_s.append(t1 - t0)
                phase.last_result = result
                done_at.append(busy if clients == 1 else t1 - started)
                if phase.attempted == workload.rss_after:
                    phase.rss_mb = peak_rss_mb()
                if clients > 1 and check:
                    deferred.append((args, result))
            if floor:
                phase.floors_s.append(workload.floor(state, args))
            if clients == 1 and check:
                phase.checks.append(workload.check(state, args, result))
            i += clients

    if clients == 1:
        caller(0)
    else:
        threads = [threading.Thread(target=caller, args=(c,)) for c in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.checks = [workload.check(state, args, result) for args, result in deferred]
    phase.slice_rps = _slice_rates(done_at, 0.0)
    return phase


def open_loop(workload, state, seconds: float, seed: int, tracer=None) -> Phase:
    """Seeded Poisson arrivals at ``workload.rates`` (requests/s), ``seconds``
    split across the steps by ``workload.step_weights``, submitted on
    schedule whether or not earlier requests have resolved.  Latency runs
    from each request's *due* time, so a stall is charged to every request
    it delays.

    Each step holds exactly ``rate x duration`` arrivals at uniform random
    instants — a Poisson process given its count — so the offered load does
    not change with the seed, only its timing does.

    Steps from ``workload.overload_from`` on are past today's capacity on
    purpose.  A refusal there is the admission policy doing its job: it
    counts against that step's limit (``shed``), not as a failed request.
    On the steps below, a refusal is a failure.
    """
    rng = np.random.default_rng([seed, 0x09E7])
    edges = np.cumsum((0,) + tuple(workload.step_weights)) * (seconds / sum(workload.step_weights))
    due, step_of = [], []
    for index, rate in enumerate(workload.rates):
        lo, hi = edges[index], edges[index + 1]
        count = max(1, round(rate * (hi - lo)))
        due += sorted(rng.uniform(lo, hi, size=count))
        step_of += [index] * count
    phase = Phase(attempted=len(due))
    n = len(due)
    done_at = [None] * n
    lateness = [0.0] * n
    outcome = [None] * n  # None: never admitted; True resolved; False raised/refused
    kept: dict[int, list] = {}  # request -> [args, result] for the checks
    pending = threading.Semaphore(0)
    start = time.perf_counter()

    def on_done(i):
        # Runs on the server's thread the moment the future resolves; the
        # future itself is not retained, so unchecked results are freed.
        def callback(future):
            now = time.perf_counter()
            done_at[i] = now - start
            if tracer is not None:
                tracer.close_request(i, now)
            outcome[i] = future.exception() is None
            if outcome[i]:
                phase.last_result = future.result()
                if i in kept:
                    kept[i].append(future.result())
            else:
                if len(phase.errors) < MAX_ERRORS_KEPT:
                    phase.errors.append(repr(future.exception()))
            pending.release()
        return callback

    admitted = 0
    in_flight_at_edge = [0]
    for i in range(n):
        args = workload.prepare(state, i)
        slack = due[i] - (time.perf_counter() - start)
        if i % workload.floor_every == 0 and slack > 2 * FLOOR_LEAD_S:
            # Wake a little early and, if the server is idle, time the floor
            # then: beside a request in flight the two would slow each other.
            # The samples are thus spread over the schedule; timed in one
            # burst after it they all see one state of the machine.
            time.sleep(slack - FLOOR_LEAD_S)
            if admitted == sum(1 for d in done_at[:i] if d is not None):
                phase.floors_s.append(workload.floor(state, args))
        slack = due[i] - (time.perf_counter() - start)
        if slack > 0:
            time.sleep(slack)
        if i and step_of[i] != step_of[i - 1]:
            in_flight_at_edge.append(admitted - sum(1 for d in done_at[:i] if d is not None))
        if i == workload.rss_after:
            phase.rss_mb = peak_rss_mb()
        if i % workload.check_every == 0:
            kept[i] = [args]
        lateness[i] = time.perf_counter() - start - due[i]
        try:
            if tracer is None:
                future = workload.submit(state, args)
            else:
                future = tracer.open_request(i, lambda: workload.submit(state, args))
        except workload.refusals:
            outcome[i] = False
            if step_of[i] >= workload.overload_from:
                phase.shed += 1
            else:
                phase.refused += 1
            continue
        admitted += 1
        future.add_done_callback(on_done(i))
        del future
    in_flight_at_edge.append(admitted - sum(1 for d in done_at if d is not None))
    for _ in range(admitted):
        if not pending.acquire(timeout=120):
            raise RuntimeError("open loop: a request never resolved")
    phase.raised = sum(1 for i in range(n) if outcome[i] is False) - phase.refused - phase.shed
    # The offered rate differs nearly threefold between steps, so slices
    # would not be comparable: one figure, first arrival to last completion,
    # which is the offered load until the server falls behind and the
    # schedule takes longer to drain.
    drained = max((d for d in done_at if d is not None), default=seconds) - due[0]
    phase.slice_rps = [sum(1 for ok in outcome if ok) / drained]
    phase.latencies_s = [done_at[i] - due[i] for i in range(n) if outcome[i]]
    phase.checks = [workload.check(state, *pair) for pair in kept.values() if len(pair) == 2]

    for index, rate in enumerate(workload.rates):
        members = [i for i in range(n) if step_of[i] == index]
        good = [done_at[i] - due[i] for i in members if outcome[i]]
        bad = sum(1 for i in members if not outcome[i])
        p90 = percentile(good, 90)
        growth = in_flight_at_edge[index + 1] - in_flight_at_edge[index]
        phase.steps.append(
            {
                "rate_rps": rate,
                "sent": len(members),
                "failed": bad,
                "p50_ms": 1e3 * percentile(good, 50),
                "p90_ms": 1e3 * p90,
                "backlog_growth": growth,
                "lateness_p90_ms": 1e3 * percentile([lateness[i] for i in members], 90),
                # A step holds when its tail meets the limit, at most 1 % of
                # what was sent failed or was refused, and the backlog it
                # leaves behind is no more than a limit's worth of arrivals
                # (so it is queueing, not growing).
                "meets_limit": bool(
                    p90 <= workload.limit_p90_s
                    and bad <= 0.01 * len(members)
                    and growth <= rate * workload.limit_p90_s
                ),
            }
        )
    return phase


def slo_rate(steps) -> float:
    """Highest rate such that it and every lower step meet the limit."""
    best = 0.0
    for step in steps:
        if not step["meets_limit"]:
            break
        best = float(step["rate_rps"])
    return best


# ---------------------------------------------------------------- hygiene
def child_pids() -> list[int]:
    """Live processes whose parent is this process — pool workers or worker
    hosts that outlived their server.  (The stdlib's shared-memory resource
    tracker is also a child; it is the interpreter's, and :func:`stop_children`
    shuts it down properly.)"""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = Path("/proc", entry, "stat").read_text().rsplit(")", 1)[-1].split()
            cmdline = Path("/proc", entry, "cmdline").read_bytes()
        except OSError:
            continue
        if int(fields[1]) == me and fields[0] != "Z" and b"resource_tracker" not in cmdline:
            found.append(int(entry))
    return found


def tag_shm_names() -> None:
    """Put this process's pid into the name of every shared-memory segment
    that it or a fork of it creates from here on, so that leak accounting
    can tell this run's segments from a neighbour's.  (``_make_filename``
    is the stdlib's one place that picks a name; it is private, hence the
    check.)"""
    from multiprocessing import shared_memory

    if not hasattr(shared_memory, "_make_filename"):
        raise RuntimeError("this Python's shared_memory has no _make_filename to tag")
    prefix = f"/psm_{os.getpid()}_"
    shared_memory._make_filename = lambda: prefix + secrets.token_hex(4)


def shm_segments(pid: int) -> set[str]:
    """Segments run ``pid`` created (under :func:`tag_shm_names`) that still
    exist."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith(f"psm_{pid}_")}
    except OSError:
        return set()


def stop_children(leaked) -> None:
    """Stop what is left and wait until each process has ended."""
    from multiprocessing import resource_tracker

    for pid in leaked:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except OSError:
            pass
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:  # closes its pipe and waits for it (CPython >= 3.9)
        stop()


def set_up_in_fork(workload, inputs) -> float:
    """Seconds ``workload.set_up`` takes in a fork of this process, which
    tears the set-up down again and exits.  Forked before this process has
    set anything up itself, the child pays for lazy imports, first
    allocations and process starts exactly as the measuring process will."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            start = time.perf_counter()
            state = workload.set_up(inputs)
            seconds = time.perf_counter() - start
            workload.tear_down(state)
            stop_children(child_pids())
            os.write(write_end, repr(seconds).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end) as pipe:
        reply = pipe.read()
    if os.waitpid(pid, 0)[1] != 0 or not reply:
        raise RuntimeError(f"{workload.name}: set-up failed in the fork")
    return float(reply)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -------------------------------------------------------------- provenance
def provenance(seed: int, seconds: float) -> dict:
    import scipy

    root = Path(__file__).resolve().parents[2]
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "seed": seed,
        "seconds": seconds,
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "allocator": {k: v for k, v in os.environ.items() if k.startswith("MALLOC_")},
        "blas": blas,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }
