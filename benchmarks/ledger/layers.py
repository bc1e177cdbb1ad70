"""Layer names, the module -> layer table, and the metric catalogue.

A layer is the ``repro`` module that defines the code.  Spans are booked
by the defining module of the function or callback, Python call counts by
the source file of the callee; both go through :func:`layer_of`.
``BENCHMARK.json`` lists :data:`GATED` and :func:`declared_per_layer`; the
self-test holds them equal.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

#: Layers that report self time, spans and Python calls per delivery.
LAYERS: Tuple[str, ...] = (
    "sim.kernel",
    "net.transport",
    "net.link",
    "broker.server",
    "core.client",
    "core.reliability",
    "core.dispatcher",
    "core.balancer",
    "core.lla",
    "obs.trace",
    "obs.sink",
    "obs.sla",
    "workload",
)

#: First matching prefix wins.  ``other`` keeps the sums complete: repro
#: modules that belong to no named layer (plan, hashing, faults) and the
#: standard library's Python-level functions.
_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.", "sim.kernel"),
    ("repro.net.link", "net.link"),
    ("repro.net.", "net.transport"),
    ("repro.broker.", "broker.server"),
    ("repro.core.client", "core.client"),
    ("repro.core.reliability", "core.reliability"),
    ("repro.core.dispatcher", "core.dispatcher"),
    ("repro.core.balancer", "core.balancer"),
    ("repro.core.rebalance", "core.balancer"),
    ("repro.core.policy", "core.balancer"),
    ("repro.core.stragglers", "core.balancer"),
    ("repro.core.lla", "core.lla"),
    ("repro.core.cluster", "core.cluster"),
    ("repro.obs.sink", "obs.sink"),
    ("repro.obs.export", "obs.sink"),
    ("repro.obs.sla", "obs.sla"),
    ("repro.obs.", "obs.trace"),
    ("repro.workload.", "workload"),
    ("repro.experiments.", "workload"),
)

#: The benchmark's own generators and application callbacks.
_OWN_MODULES = ("workloads", "child", "__main__")


def layer_of(module: str) -> str:
    if module in _OWN_MODULES:
        return "workload"
    for prefix, layer in _PREFIXES:
        if module.startswith(prefix):
            return layer
    return "other"


def module_of_file(path: str) -> str:
    """``.../src/repro/net/link.py`` -> ``repro.net.link``; own files by stem."""
    normal = path.replace(os.sep, "/")
    marker = "/repro/"
    at = normal.rfind(marker)
    stem = normal[:-3] if normal.endswith(".py") else normal
    if at >= 0:
        return "repro." + stem[at + len(marker) :].replace("/", ".").removesuffix(".__init__")
    if os.path.dirname(os.path.abspath(path)) == os.path.dirname(os.path.abspath(__file__)):
        return os.path.basename(stem)
    return "stdlib." + os.path.basename(stem)


#: name -> (unit, better, bound, the one workload that defines it or None
#: for all four).  Simulated time is not host time: its units say so.  The
#: two ratios are stated as what was met and delivered, so that neither is
#: ever 0.  A metric is reported where it is defined and omitted elsewhere.
END_TO_END: Dict[str, Tuple[str, str, float, Optional[str]]] = {
    "setup_s": ("s", "lower", 0.25, None),
    "host_cpu_us_per_delivery": ("us", "lower", 0.25, None),
    "peak_rss_mb": ("MB", "lower", 0.15, None),
    "kernel_events_per_delivery": ("count", "lower", 0.08, None),
    "py_calls_per_delivery": ("count", "lower", 0.08, None),
    "delivery_latency_p50_ms": ("sim_ms", "lower", 0.08, None),
    "delivery_latency_p99_ms": ("sim_ms", "lower", 0.15, None),
    "sla_met_ratio": ("ratio", "higher", 0.08, None),
    "delivery_ratio": ("ratio", "higher", 0.03, None),
    "server_seconds": ("server.sim_s", "lower", 0.15, None),
    "sustainable_players": ("players", "higher", 0.15, "rgame_ramp"),
    "recovery_s": ("sim_s", "lower", 0.10, "traced_crash"),
}

#: ``BENCHMARK.json``'s ``end_to_end`` list: what the driver gates.  It reads
#: each of these from every workload and wants its spread over ten seeds
#: inside the bound, so the list leaves out the two metrics one workload
#: defines, and host CPU time, which this shared host moves by more than
#: the largest bound the contract allows (README, "Bounds and steadiness").
#: ``BENCHMARK.json`` names those three under ``per_layer`` instead.
GATED: Tuple[str, ...] = tuple(
    name for name, spec in END_TO_END.items()
    if spec[3] is None and name != "host_cpu_us_per_delivery"
)

#: Layer-specific counts: name -> (unit, better).
LAYER_COUNTS: Dict[str, Tuple[str, str]] = {
    "sim.kernel.pending_peak": ("count", "lower"),
    "sim.kernel.compactions": ("count", "lower"),
    "net.transport.sends_per_delivery": ("count", "lower"),
    "net.transport.drop_ratio": ("ratio", "lower"),
    "net.transport.pair_states": ("count", "lower"),
    "net.link.egress_wait_p99_ms": ("sim_ms", "lower"),
    "broker.server.fanout_mean": ("count", "higher"),
    "broker.server.fanout_cache_hit_ratio": ("ratio", "higher"),
    "broker.server.cpu_backlog_p99_ms": ("sim_ms", "lower"),
    "broker.server.cpu_busy_ratio": ("ratio", "lower"),
    "broker.server.killed_connections": ("count", "lower"),
    "core.client.duplicates_suppressed": ("count", "lower"),
    "core.reliability.replayed_messages": ("count", "lower"),
    "core.reliability.gap_requests": ("count", "lower"),
    "core.reliability.unrecoverable_gaps": ("count", "lower"),
    "core.reliability.replay_bytes": ("bytes", "lower"),
    "core.balancer.rebalances": ("count", "lower"),
    "core.balancer.us_per_report": ("us", "lower"),
    "core.cluster.setup_us_per_client": ("us", "lower"),
    "core.cluster.alloc_blocks_per_client": ("count", "lower"),
    "obs.trace.events_per_delivery": ("count", "lower"),
    "obs.trace.us_per_event": ("us", "lower"),
    "obs.sink.bytes_per_delivery": ("bytes", "lower"),
    "harness.span_overhead_ratio": ("ratio", "lower"),
    "harness.count_overhead_ratio": ("ratio", "lower"),
}


def per_layer_catalogue() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric name with its unit and direction, in reporting order."""
    catalogue: Dict[str, Tuple[str, str]] = {}
    for layer in LAYERS:
        catalogue[f"{layer}.self_us_per_delivery"] = ("us", "lower")
        catalogue[f"{layer}.spans_per_delivery"] = ("count", "lower")
        catalogue[f"{layer}.py_calls_per_delivery"] = ("count", "lower")
    catalogue.update(LAYER_COUNTS)
    return catalogue


def declared_per_layer() -> Dict[str, Tuple[str, str]]:
    """``BENCHMARK.json``'s ``per_layer`` list."""
    catalogue = per_layer_catalogue()
    for name, (unit, better, _bound, _workload) in END_TO_END.items():
        if name not in GATED:
            catalogue[name] = (unit, better)
    return catalogue
