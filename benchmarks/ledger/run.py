"""Perf ledger: four workloads, every metric by name with its unit.

    python3 benchmarks/ledger/run.py                      # all four, timed and traced
    python3 benchmarks/ledger/run.py --workload fanout_wide --seed 3 --seconds 12 --trace 0

Every measurement is a fresh child process (``child.py``), one at a time,
single-threaded, ``PYTHONHASHSEED=0``, all on the seed given.  Per workload:

* timed repeats, nothing wrapped or profiled: the host metrics are their
  median and quartiles;
* a counting pass under ``cProfile`` (exact Python-level call counts);
* with ``--trace 1``, a span pass (``spans.py``) for per-layer self time.

The simulated results -- events, deliveries, latency percentiles -- are
exact: every repeat and both traced passes must give the same ones, bit
for bit, or the run fails.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
sys.path.insert(0, HERE)

from layers import END_TO_END, GATED, LAYERS, per_layer_catalogue  # noqa: E402

WORKLOAD_NAMES = ("fanout_wide", "rgame_ramp", "reliable_lossy", "traced_crash")
#: Timed repeats: at least this many, then more until --seconds of run
#: phase have been measured, never more than the cap.
MIN_REPEATS = 5
MAX_REPEATS = 9
LEDGER_SCHEMA = 1


class LedgerError(Exception):
    """A child failed or a correctness check did not hold."""


def run_child(workload: str, seed: int, profile: str, mode: str, out_dir: str) -> Dict[str, Any]:
    env = dict(os.environ, PYTHONHASHSEED="0")
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(seed), "--profile", profile,
        "--mode", mode, "--out-dir", out_dir,
    ]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise LedgerError(
            f"{workload} {mode} child exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values: Sequence[float]) -> Dict[str, Any]:
    """Median and quartiles, never a best-of-N."""
    ordered = list(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "median": statistics.median(ordered), "q1": q1, "q3": q3,
        "n": len(ordered), "values": ordered,
    }


def end_to_end_of(child: Dict[str, Any]) -> Dict[str, Optional[float]]:
    """One timed repeat's end-to-end metrics (the call count has its own pass)."""
    exact, host = child["exact"], child["host"]
    deliveries = exact["app_deliveries"]
    return {
        "setup_s": host["setup_cpu_s"],
        "host_cpu_us_per_delivery": host["run_cpu_s"] * 1e6 / deliveries,
        "peak_rss_mb": host["peak_rss_mb"],
        "kernel_events_per_delivery": exact["kernel_events"] / deliveries,
        "delivery_latency_p50_ms": exact["latency_p50_ms"],
        "delivery_latency_p99_ms": exact["latency_p99_ms"],
        "sla_met_ratio": exact["sla_met_ratio"],
        "delivery_ratio": exact["delivery_ratio"],
        "server_seconds": exact["server_seconds"],
        "sustainable_players": exact.get("sustainable_players"),
        "recovery_s": exact.get("recovery_s"),
    }


def per_layer_of(
    plain: Dict[str, Any], spans: Dict[str, Any], count: Dict[str, Any]
) -> Dict[str, Optional[float]]:
    """Per-layer metrics from the span pass, the counting pass and public counters."""
    deliveries = plain["exact"]["app_deliveries"]
    run_layers = spans["run_spans"]["layers"]
    call_layers = count["calls"]["layers"]
    metrics: Dict[str, Optional[float]] = {}
    for layer in LAYERS:
        entry = run_layers.get(layer, {"spans": 0, "self_ns": 0})
        metrics[f"{layer}.self_us_per_delivery"] = entry["self_ns"] / 1e3 / deliveries
        metrics[f"{layer}.spans_per_delivery"] = entry["spans"] / deliveries
        metrics[f"{layer}.py_calls_per_delivery"] = call_layers.get(layer, 0) / deliveries
    metrics.update(plain["counts"])

    functions: Dict[str, Dict[str, int]] = {}
    for phase in ("setup_spans", "run_spans"):
        for row in spans[phase]["functions"]:
            entry = functions.setdefault(row["name"], {"calls": 0, "total_ns": 0})
            entry["calls"] += row["calls"]
            entry["total_ns"] += row["total_ns"]
    missing = set(spans["missing_functions"])

    def calls(name: str) -> Optional[int]:
        return None if name in missing else functions.get(name, {}).get("calls", 0)

    def us_per_call(*names: str, per: Optional[str] = None) -> Optional[float]:
        if any(name in missing for name in names):
            return None
        total = sum(functions.get(name, {}).get("total_ns", 0) for name in names)
        n = calls(per if per is not None else names[0])
        return total / 1e3 / n if n else 0.0

    emits = calls("Tracer.emit")
    metrics["core.reliability.gap_requests"] = calls("BrokerReliability.replay_slice")
    metrics["core.balancer.us_per_report"] = us_per_call("LoadBalancer.receive")
    metrics["core.cluster.setup_us_per_client"] = us_per_call(
        "DynamothCluster.__init__", "DynamothCluster.create_client",
        per="DynamothCluster.create_client",
    )
    host = plain["host"]
    metrics["core.cluster.alloc_blocks_per_client"] = (
        host["setup_alloc_blocks"] / host["setup_clients"] if host["setup_clients"] else None
    )
    metrics["obs.trace.events_per_delivery"] = None if emits is None else emits / deliveries
    metrics["obs.trace.us_per_event"] = us_per_call("Tracer.emit")
    metrics["obs.sink.bytes_per_delivery"] = plain["trace_bytes"] / deliveries
    metrics["harness.span_overhead_ratio"] = spans["host"]["run_cpu_s"] / host["run_cpu_s"]
    metrics["harness.count_overhead_ratio"] = count["host"]["run_cpu_s"] / host["run_cpu_s"]
    return metrics


def same_exact(reference: Dict[str, Any], other: Dict[str, Any], what: str) -> List[str]:
    """Names of the exact results another run of the same seed failed to reproduce."""
    return [
        f"{what}: {key} {other['exact'].get(key)!r} != {value!r}"
        for key, value in reference["exact"].items()
        if other["exact"].get(key) != value
    ]


def timed_repeats(
    workload: str, seed: int, profile: str, seconds: float, out_dir: str
) -> List[Dict[str, Any]]:
    """Fresh-process repeats of one seed until ``seconds`` of run phase are measured."""
    children: List[Dict[str, Any]] = []
    measured = 0.0
    while len(children) < MIN_REPEATS or (measured < seconds and len(children) < MAX_REPEATS):
        child = run_child(workload, seed, profile, "plain", out_dir)
        children.append(child)
        measured += child["host"]["run_wall_s"]
    return children


def measure(
    workload: str, seed: int, profile: str, seconds: float, trace: Sequence[int], out_dir: str
) -> Dict[str, Any]:
    """Every pass of one workload, checked, as one ledger entry."""
    if 0 in trace:
        plains = timed_repeats(workload, seed, profile, seconds, out_dir)
    else:  # per-layer metrics need one untraced run to be held against
        plains = [run_child(workload, seed, profile, "plain", out_dir)]
    reference = plains[0]
    count = run_child(workload, seed, profile, "count", out_dir)
    spans = run_child(workload, seed, profile, "spans", out_dir) if 1 in trace else None

    problems: List[str] = []
    for i, child in enumerate(plains):
        if i:
            problems += same_exact(reference, child, f"repeat {i}")
        if child["tracing_imported"]:
            problems.append(f"timed repeat imported {child['tracing_imported']}")
        problems += [f"check failed: {name}" for name, ok in child["checks"].items() if not ok]
    problems += same_exact(reference, count, "counting pass")
    if spans is not None:
        problems += same_exact(reference, spans, "span pass")

    entry: Dict[str, Any] = {
        "seed": seed,
        "repeats": len(plains),
        "attempted": reference["exact"]["expected"],
        "failed": reference["failed"],
        "latency_samples": reference["exact"]["latency_samples"],
        "exact": reference["exact"],
        "problems": problems,
    }
    rows = [end_to_end_of(child) for child in plains]
    columns = {name: [row[name] for row in rows] for name in rows[0]}
    columns["py_calls_per_delivery"] = [
        count["calls"]["total"] / reference["exact"]["app_deliveries"]
    ]
    entry["end_to_end"] = {}
    for name, (unit, _better, _bound, only_on) in END_TO_END.items():
        if only_on not in (None, workload):
            continue
        if any(value is None for value in columns[name]):
            problems.append(f"end-to-end metric {name} is undefined")
        else:
            entry["end_to_end"][name] = dict(summarise(columns[name]), unit=unit)
    if spans is not None:
        values = per_layer_of(reference, spans, count)
        entry["per_layer"] = {
            name: {"value": values.get(name), "unit": unit}
            for name, (unit, _better) in per_layer_catalogue().items()
        }
        entry["span_functions"] = spans["run_spans"]["functions"]
        entry["span_root_ns"] = spans["run_spans"]["root_ns"]
        entry["missing_functions"] = spans["missing_functions"]
        entry["sampled_spans"] = spans["sampled_spans"]
        entry["py_calls_by_module"] = count["calls"]["modules"]
    return entry


def environment(seed: int, profile: str) -> Dict[str, Any]:
    try:
        commit: Optional[str] = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "git_commit": commit,
        "seed": seed,
        "profile": profile,
    }


def render(workload: str, entry: Dict[str, Any]) -> str:
    lines = [f"== {workload}  seed {entry['seed']}  attempted {entry['attempted']}  "
             f"failed {entry['failed']}  latency samples {entry['latency_samples']}"]
    for name, row in entry.get("end_to_end", {}).items():
        lines.append(
            f"  {name:<28} {row['median']:>14.6g} {row['unit']:<13} "
            f"[q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, n={row['n']}]"
        )
    for name, row in entry.get("per_layer", {}).items():
        value = "null" if row["value"] is None else f"{row['value']:.6g}"
        lines.append(f"  {name:<44} {value:>14} {row['unit']}")
    lines += [f"  PROBLEM: {problem}" for problem in entry["problems"]]
    return "\n".join(lines)


def contract_metrics(entry: Dict[str, Any], trace: int) -> Dict[str, Dict[str, Any]]:
    """The driver's line: ``BENCHMARK.json``'s ``end_to_end`` list with
    ``--trace 0``, its ``per_layer`` list with ``--trace 1``.  The line
    carries numbers only, so a value that is undefined shows as 0."""
    measured = entry["end_to_end"]

    def end_to_end(name: str) -> Dict[str, Any]:
        value = measured[name]["median"] if name in measured else 0.0
        return {"value": value, "unit": END_TO_END[name][0]}

    if trace == 0:
        return {name: end_to_end(name) for name in GATED}
    metrics = {
        name: {"value": 0.0 if row["value"] is None else row["value"], "unit": row["unit"]}
        for name, row in entry["per_layer"].items()
    }
    metrics.update({name: end_to_end(name) for name in END_TO_END if name not in GATED})
    return metrics


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="run-phase seconds to measure per workload before repeats stop")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics; 1: per-layer metrics; default both")
    parser.add_argument("--profile", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", default=os.path.join(HERE, "out"))
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"run.py: no repro package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)
    spans_path = os.path.join(args.out, "spans.jsonl")
    trace = (0, 1) if args.trace is None else (args.trace,)
    if 1 in trace:
        open(spans_path, "w", encoding="utf-8").close()

    names = (args.workload,) if args.workload else WORKLOAD_NAMES
    ledger: Dict[str, Any] = {
        "schema": LEDGER_SCHEMA,
        "environment": environment(args.seed, args.profile),
        "workloads": {},
    }
    started = time.perf_counter()
    try:
        for name in names:
            entry = measure(name, args.seed, args.profile, args.seconds, trace, args.out)
            ledger["workloads"][name] = entry
            print(render(name, entry), flush=True)
    except (LedgerError, subprocess.TimeoutExpired) as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    ledger["environment"]["wall_s"] = time.perf_counter() - started
    target = os.path.join(args.out, f"{args.workload or 'ledger'}.json")
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=1, sort_keys=True)
        handle.write("\n")

    entries = list(ledger["workloads"].values())
    correct = not any(entry["problems"] for entry in entries)
    metrics: Dict[str, Dict[str, Any]] = {}
    if args.workload and args.trace is not None:
        metrics = contract_metrics(entries[0], args.trace)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(entry["attempted"] for entry in entries),
        "failed": sum(entry["failed"] for entry in entries),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
