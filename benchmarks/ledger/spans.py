"""Outside-in span recorder: where the host time of a run goes, by layer.

Nothing under ``src/`` knows about this file.  :func:`install` replaces
the public functions listed in :data:`TARGETS` -- at class level, before
any cluster is built -- with wrappers that time each call with
``perf_counter_ns``.  Functions are looked up by name, so one that a
later change removes is reported as missing and skipped.

A layer's functions run mostly as *callbacks*: the broker's fan-out
completion, the transport's delivery and every timer tick are dispatched
by the kernel, and application callbacks run inside ``client.receive``.
Timing the public entry points alone would book all of that to the
caller, so every callback handed to a listed function (``schedule*``,
``PeriodicTask``, ``subscribe``, ``add_observer`` ...) is wrapped too, and
its span belongs to the layer of the module that defines the callback.

Each span has a name, a start, an end and a parent.  Self time is the
duration minus the part its child spans cover, so the self times of all
spans sum exactly to the duration of the root spans.  Aggregates are kept
per function in memory; one kernel-dispatched event in every
:data:`SAMPLE_EVERY` has its whole span tree kept, written out by
:meth:`Recorder.write_trees` when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from typing import Any, Callable, Dict, IO, List, Optional, Tuple

#: (module, class, method, position and keyword of a callback argument).
#: Every entry is timed; where a callback is named it is wrapped as well.
TARGETS: Tuple[Tuple[str, str, str, Optional[int], Optional[str]], ...] = (
    ("repro.sim.kernel", "Simulator", "run_until", None, None),
    ("repro.sim.kernel", "Simulator", "run", None, None),
    ("repro.sim.kernel", "Simulator", "schedule", 2, "fn"),
    ("repro.sim.kernel", "Simulator", "schedule_at", 2, "fn"),
    ("repro.sim.kernel", "Simulator", "schedule_batch", 1, "fn"),
    ("repro.sim.timers", "PeriodicTask", "__init__", 3, "callback"),
    ("repro.sim.timers", "Timer", "__init__", 3, "callback"),
    ("repro.net.transport", "Transport", "send", None, None),
    ("repro.net.transport", "Transport", "send_many", None, None),
    ("repro.net.transport", "Transport", "send_fanout", None, None),
    ("repro.net.transport", "Transport", "fanout_states", None, None),
    ("repro.net.transport", "Transport", "register", None, None),
    ("repro.net.link", "EgressPort", "transmit", None, None),
    ("repro.net.link", "EgressPort", "transmit_many", None, None),
    ("repro.broker.server", "PubSubServer", "receive", None, None),
    ("repro.broker.server", "PubSubServer", "add_observer", 1, "callback"),
    ("repro.broker.server", "PubSubServer", "add_subscribe_listener", 1, "callback"),
    ("repro.broker.server", "PubSubServer", "add_unsubscribe_listener", 1, "callback"),
    ("repro.core.client", "DynamothClient", "receive", None, None),
    ("repro.core.client", "DynamothClient", "publish", None, None),
    ("repro.core.client", "DynamothClient", "subscribe", 2, "callback"),
    ("repro.core.client", "DynamothClient", "unsubscribe", None, None),
    ("repro.core.reliability", "BrokerReliability", "stamp_and_cache", None, None),
    ("repro.core.reliability", "BrokerReliability", "replay_slice", None, None),
    ("repro.core.reliability", "ClientReliability", "observe", None, None),
    ("repro.core.reliability", "ClientReliability", "deliverable", None, None),
    ("repro.core.reliability", "ClientReliability", "stamp_publication", None, None),
    ("repro.core.reliability", "ClientReliability", "note_app_delivery", None, None),
    ("repro.core.dispatcher", "Dispatcher", "receive", None, None),
    ("repro.core.balancer", "LoadBalancer", "receive", None, None),
    ("repro.obs.trace", "Tracer", "emit", None, None),
    ("repro.obs.trace", "Tracer", "message_tap", None, None),
    ("repro.obs.trace", "Tracer", "add_observer", 1, "observer"),
    ("repro.obs.sink", "StreamingJsonlSink", "emit", None, None),
    ("repro.core.cluster", "DynamothCluster", "__init__", None, None),
    ("repro.core.cluster", "DynamothCluster", "create_client", None, None),
)

#: Callbacks handed to these start a sampled tree: the kernel dispatches them.
_KERNEL_DISPATCH = ("schedule", "schedule_at", "schedule_batch")
#: One kernel-dispatched event in this many keeps its whole span tree.
SAMPLE_EVERY = 1000


class Recorder:
    """Per-function span aggregates and the sampled span trees."""

    def __init__(self, layer_of: Callable[[str], str]) -> None:
        self.layer_of = layer_of
        self.names: List[str] = []
        self.layers: List[str] = []
        self.calls: List[int] = []
        self.self_ns: List[int] = []
        self.total_ns: List[int] = []
        #: one child-time accumulator per open span
        self.stack: List[int] = []
        #: summed durations of the spans that had no parent
        self.root_ns = 0
        self.missing: List[str] = []
        #: callback code object (or type) -> function id
        self._callback_ids: Dict[Any, int] = {}
        self.events_seen = 0
        #: spans of the tree being sampled, or None: [id, start, end, parent]
        self.tree: Optional[List[List[int]]] = None
        self.open: List[int] = []
        self.trees: List[Tuple[int, List[List[int]]]] = []
        self.origin_ns = time.perf_counter_ns()
        #: code object shared by every wrapper, to recognise one
        self._span_code: Any = None

    # ------------------------------------------------------------------
    def _register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        self.calls.append(0)
        self.self_ns.append(0)
        self.total_ns.append(0)
        return len(self.names) - 1

    def _spanned(self, fn: Callable[..., Any], idx: int, starts_tree: bool) -> Callable[..., Any]:
        clock = time.perf_counter_ns
        stack, calls, self_ns, total_ns = self.stack, self.calls, self.self_ns, self.total_ns
        every, open_spans = SAMPLE_EVERY, self.open
        rec = self

        def spanned(*args: Any, **kwargs: Any) -> Any:
            tree = rec.tree
            began_tree = False
            if starts_tree and tree is None:
                rec.events_seen += 1
                if rec.events_seen % every == 0:
                    tree = rec.tree = []
                    began_tree = True
            stack.append(0)
            start = clock()
            if tree is not None:
                span_id = len(tree)
                tree.append([idx, start, start, open_spans[-1] if open_spans else -1])
                open_spans.append(span_id)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                child = stack.pop()
                calls[idx] += 1
                total_ns[idx] += duration
                self_ns[idx] += duration - child
                if stack:
                    stack[-1] += duration
                else:
                    rec.root_ns += duration
                if tree is not None:
                    tree[span_id][2] = end
                    open_spans.pop()
                    if began_tree:
                        rec.trees.append((rec.events_seen, tree))
                        rec.tree = None

        self._span_code = spanned.__code__
        return spanned

    def wrap_callback(self, fn: Any, starts_tree: bool = False) -> Any:
        """Span ``fn`` under the layer of the module that defines it."""
        code = getattr(fn, "__code__", None)
        if code is self._span_code:
            return fn  # schedule() hands its already wrapped fn to schedule_at()
        key = code if code is not None else type(fn)
        idx = self._callback_ids.get(key)
        if idx is None:
            owner = fn if code is not None else type(fn)
            module = getattr(owner, "__module__", None) or "?"
            qualname = getattr(owner, "__qualname__", type(fn).__name__)
            idx = self._register(f"cb:{module}.{qualname}", self.layer_of(module))
            self._callback_ids[key] = idx
        return self._spanned(fn, idx, starts_tree)

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every target that still exists; note the ones that do not."""
        for module_name, class_name, method, position, keyword in TARGETS:
            label = f"{class_name}.{method}"
            try:
                owner = getattr(importlib.import_module(module_name), class_name)
            except (ImportError, AttributeError):
                self.missing.append(label)
                continue
            original = inspect.getattr_static(owner, method, None)
            if not inspect.isfunction(original):
                self.missing.append(label)
                continue
            idx = self._register(label, self.layer_of(module_name))
            timed = self._spanned(original, idx, False)
            if position is not None:
                timed = self._with_callback(timed, position, keyword, method in _KERNEL_DISPATCH)
            setattr(owner, method, timed)

    def _with_callback(
        self, timed: Callable[..., Any], position: int, keyword: Optional[str], starts_tree: bool
    ) -> Callable[..., Any]:
        wrap = self.wrap_callback

        def patched(*args: Any, **kwargs: Any) -> Any:
            if len(args) > position:
                wrapped = wrap(args[position], starts_tree)
                args = args[:position] + (wrapped,) + args[position + 1 :]
            elif keyword in kwargs:
                kwargs[keyword] = wrap(kwargs[keyword], starts_tree)
            return timed(*args, **kwargs)

        return patched

    # ------------------------------------------------------------------
    def take(self) -> Dict[str, Any]:
        """Aggregates since the last call, then reset: one phase of a run."""
        functions = [
            {
                "name": self.names[i],
                "layer": self.layers[i],
                "calls": self.calls[i],
                "self_ns": self.self_ns[i],
                "total_ns": self.total_ns[i],
            }
            for i in range(len(self.names))
            if self.calls[i]
        ]
        layers: Dict[str, Dict[str, int]] = {}
        for row in functions:
            entry = layers.setdefault(row["layer"], {"spans": 0, "self_ns": 0})
            entry["spans"] += row["calls"]
            entry["self_ns"] += row["self_ns"]
        phase = {"root_ns": self.root_ns, "layers": layers, "functions": functions}
        for i in range(len(self.names)):
            self.calls[i] = self.self_ns[i] = self.total_ns[i] = 0
        self.root_ns = 0
        return phase

    def write_trees(self, handle: IO[str], workload: str) -> int:
        """One JSON line per sampled span; spans of one event share ``root``."""
        written = 0
        for event_no, tree in self.trees:
            for span_id, (idx, start, end, parent) in enumerate(tree):
                record = {
                    "workload": workload,
                    "root": event_no,
                    "span": span_id,
                    "parent": None if parent < 0 else parent,
                    "name": self.names[idx],
                    "layer": self.layers[idx],
                    "start_ns": start - self.origin_ns,
                    "end_ns": end - self.origin_ns,
                }
                handle.write(json.dumps(record) + "\n")
                written += 1
        return written
