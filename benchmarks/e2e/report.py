"""The whole suite in one command, and the comparison of two of its ledgers.

The suite is a thin orchestrator: every measurement is a child process
running ``run.py --workload ...`` exactly as the benchmark driver would, so
each workload gets a fresh translation cache, an honest ``setup_s`` and its
own ``peak_rss_mb``.  Untraced rounds are interleaved across workloads so
machine drift spreads evenly; one traced run per workload follows.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import shm_segments

RUN = Path(__file__).resolve().parent / "run.py"

#: Untraced rounds of the suite, interleaved across workloads.  Fixed: the
#: spread that ``--compare`` weighs a difference against depends on it.
ROUNDS = 3

#: Reported by the suite beside BENCHMARK.json's end-to-end metrics (README
#: says why they cannot be gated there): unit, better, bound.  The rates of
#: ``slo_rate_rps`` are labels of steps, so any step lost is a regression.
EXTRA_END_TO_END = {
    "floor_ratio": ("x", "lower", 0.25),
    "failed_frac": ("fraction", "lower", 0.0),
    "slo_rate_rps": ("1/s", "higher", 0.0),
    "wire_bytes_per_req": ("bytes", "lower", 0.01),
}

#: These repeat exactly for a seed.  BENCHMARK.json's bounds on them cover
#: the spread *between* seeds (the driver draws ten); two ledgers of one
#: seed are compared with bound 0.
EXACT_FOR_A_SEED = ("rel_err_fp64", "model_gflops")


def _child(workload: str, seed: int, seconds: float, trace: int, trace_out: str | None) -> dict:
    command = [
        sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--full",
    ]
    if trace_out:
        command += ["--trace-out", trace_out]
    # Its own session: whatever the run starts stays findable by session id
    # once the run itself is gone, and a neighbour's processes never match.
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, stderr = child.communicate(timeout=600)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    full = next((line[5:] for line in stdout.splitlines() if line.startswith("FULL ")), None)
    if child.returncode != 0 or full is None:
        sys.stderr.write(stdout + stderr)
        raise SystemExit(f"{workload}: run failed with exit code {child.returncode}")
    record = json.loads(full)
    # Hygiene after the child is gone: anything it started must be too.
    survivors = _session_members(child.pid)
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    record["extra"]["leaked_procs"] += len(survivors)
    record["extra"]["leaked_shm"] += sorted(shm_segments(child.pid))
    return record


def _session_members(session: int) -> list[int]:
    """Live processes of that session (pool workers and worker hosts are
    descendants of the run that led it)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = Path("/proc", entry, "stat").read_text().rsplit(")", 1)[-1].split()
        except OSError:
            continue
        if int(fields[3]) == session and fields[0] != "Z":
            found.append(int(entry))
    return found


def suite(spec: dict, args) -> int:
    from workloads import WORKLOADS

    # Every workload, the ones BENCHMARK.json leaves to the suite included.
    names = list(WORKLOADS)
    seconds, rounds = (0.5, 1) if args.smoke else (args.seconds, ROUNDS)
    started = time.time()
    runs = {name: [] for name in names}
    for round_index in range(rounds):
        for name in names:
            print(f"[round {round_index + 1}/{rounds}] {name} ...", flush=True)
            runs[name].append(_child(name, args.seed, seconds, 0, None))
    traced = {}
    for name in names:
        print(f"[traced] {name} ...", flush=True)
        trace_out = f"{args.trace_out}.{name}.json" if args.trace_out else None
        traced[name] = _child(name, args.seed, seconds, 1, trace_out)

    ledger = {"provenance": runs[names[0]][0]["provenance"], "rounds": rounds, "workloads": {}}
    ledger["provenance"]["elapsed_s"] = time.time() - started
    for name in names:
        cells = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs[name]]
            cells[metric["name"]] = {"unit": metric["unit"], "values": values, "median": statistics.median(values)}
        for metric, (unit, _, _) in EXTRA_END_TO_END.items():
            values = [r["extra"][metric] for r in runs[name]]
            known = [v for v in values if v is not None]
            cells[metric] = {"unit": unit, "values": values, "median": statistics.median(known) if known else None}
        every = runs[name] + [traced[name]]
        ledger["workloads"][name] = {
            "end_to_end": cells,
            "per_layer": traced[name]["metrics"],
            "attempted": sum(r["attempted"] for r in every),
            "failed": sum(r["failed"] for r in every),
            "samples": [r["samples"] for r in runs[name]],
            "steps": runs[name][-1]["extra"].get("steps", []),
            "leaked_procs": sum(r["extra"]["leaked_procs"] for r in every),
            "leaked_shm": sum(len(r["extra"]["leaked_shm"]) for r in every),
            "trace_points_missing": traced[name]["extra"]["trace_points_missing"],
        }
    _print_ledger(ledger)
    if args.out:
        Path(args.out).write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
    bad = [n for n, w in ledger["workloads"].items() if w["failed"]]
    if bad:
        print(f"FAILED requests on: {', '.join(bad)}")
    return 1 if bad else 0


def _fmt(value) -> str:
    return "null" if value is None else f"{value:.6g}"


def _print_ledger(ledger: dict) -> None:
    print("\nprovenance:", json.dumps(ledger["provenance"]))
    for name, cell in ledger["workloads"].items():
        print(f"\n== {name}: attempted={cell['attempted']} failed={cell['failed']} "
              f"samples/round={cell['samples']} leaked_procs={cell['leaked_procs']} leaked_shm={cell['leaked_shm']}")
        for metric, entry in cell["end_to_end"].items():
            values = " ".join(_fmt(v) for v in entry["values"])
            print(f"  {metric:<24} {_fmt(entry['median']):>12} {entry['unit']:<8} (rounds: {values})")
        for step in cell["steps"]:
            print("    step", json.dumps(step))
        for metric, entry in cell["per_layer"].items():
            print(f"    {metric:<42} {_fmt(entry['value']):>14} {entry['unit']}")
        if cell["trace_points_missing"]:
            print("    trace points missing at this commit:", ", ".join(cell["trace_points_missing"]))


# ------------------------------------------------------------------ compare
def _verdict(a: list, b: list, better: str, bound: float) -> tuple[str, float]:
    """``worse`` / ``better`` when B's median is past the bound on that side,
    ``unresolved`` when the parent's own rounds spread wider than the bound
    (unless every round agrees on the direction), else ``same``.  Returns
    (verdict, B/A)."""
    sign = 1.0 if better == "lower" else -1.0
    a_med, b_med = statistics.median(a), statistics.median(b)
    base = abs(a_med) or 1.0
    worse_by = sign * (b_med - a_med) / base
    spread = (max(a) - min(a)) / base
    all_worse = min(sign * v for v in b) > max(sign * v for v in a)
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    ratio = b_med / a_med if a_med else float("nan")
    if worse_by > bound:
        return ("worse" if spread <= bound or all_worse else "unresolved"), ratio
    if spread > bound and not all_better:
        return "unresolved", ratio
    return ("better" if -worse_by > bound and all_better else "same"), ratio


def compare(spec: dict, a_path: str, b_path: str) -> int:
    a = json.loads(Path(a_path).read_text(encoding="utf-8"))
    b = json.loads(Path(b_path).read_text(encoding="utf-8"))
    rules = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    rules.update(EXTRA_END_TO_END)
    if a["provenance"]["seed"] == b["provenance"]["seed"]:
        rules.update({m: (*rules[m][:2], 0.0) for m in EXACT_FOR_A_SEED})
    print(f"A = {a_path} ({a['provenance']['git_sha'][:12]}, seed {a['provenance']['seed']})")
    print(f"B = {b_path} ({b['provenance']['git_sha'][:12]}, seed {b['provenance']['seed']})")
    print(f"{'metric':<20} {'workload':<20} {'A median':>12} {'B median':>12} {'B/A':>8} {'bound':>6}  verdict")
    worse = 0
    for metric, (unit, better, bound) in rules.items():
        for workload in a["workloads"]:
            cell_a = a["workloads"][workload]["end_to_end"][metric]
            cell_b = b["workloads"].get(workload, {}).get("end_to_end", {}).get(metric)
            va = [v for v in cell_a["values"] if v is not None]
            vb = [v for v in (cell_b or {}).get("values", []) if v is not None]
            if not va and not vb:
                continue  # n/a on this workload
            if not va or not vb:
                verdict, ratio = "unresolved", float("nan")
            else:
                verdict, ratio = _verdict(va, vb, better, bound)
            worse += verdict == "worse"
            print(
                f"{metric:<20} {workload:<20} {_fmt(statistics.median(va) if va else None):>12} "
                f"{_fmt(statistics.median(vb) if vb else None):>12} {ratio:>8.3f} {bound:>6.2f}  {verdict} ({unit}, {better} is better)"
            )
    print(f"{worse} pair(s) worse")
    return 1 if worse else 0
