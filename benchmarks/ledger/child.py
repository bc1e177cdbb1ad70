"""One measurement of one workload in a fresh process.

``run.py`` starts this file once per timed repeat and once per traced
pass, one process at a time, and reads the single JSON line it prints.
Three modes:

``plain``   the timed repeat: nothing wrapped, nothing profiled
``spans``   the span pass: :mod:`spans` installed before any cluster exists
``count``   the counting pass: the run phase under ``cProfile``

The timed repeat imports neither ``spans`` nor ``cProfile``; it says so
in its output and ``run.py`` checks it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from typing import Any, Dict

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--profile", default="full")
    parser.add_argument("--mode", choices=("plain", "spans", "count"), default="plain")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"child.py: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from layers import layer_of, module_of_file

    recorder = None
    if args.mode == "spans":
        from spans import Recorder

        recorder = Recorder(layer_of)
        recorder.install()

    size = workloads.SIZES[args.profile][args.workload]
    workload = workloads.WORKLOADS[args.workload](args.seed, size, args.out_dir)
    if recorder is not None:
        workload.wrap = recorder.wrap_callback

    blocks_before = sys.getallocatedblocks()
    workload.setup()
    setup_cpu_s = time.process_time()
    blocks_after = sys.getallocatedblocks()
    # run_chaos builds traced_crash's cluster in the run phase: 0 clients here.
    setup_clients = len(getattr(getattr(workload, "cluster", None), "clients", ()))
    out: Dict[str, Any] = {"mode": args.mode}
    if recorder is not None:
        out["setup_spans"] = recorder.take()

    profiler = None
    if args.mode == "count":
        import cProfile

        # Built-in callees are left out of the count and caller/callee pairs
        # are not needed; not recording either takes a quarter off the pass.
        profiler = cProfile.Profile(subcalls=False, builtins=False)
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    if profiler is not None:
        profiler.enable()
    workload.run()
    if profiler is not None:
        profiler.disable()
    run_cpu_s = time.process_time() - cpu_start
    run_wall_s = time.perf_counter() - wall_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if recorder is not None:
        out["run_spans"] = recorder.take()
        out["missing_functions"] = recorder.missing
        with open(os.path.join(args.out_dir, "spans.jsonl"), "a", encoding="utf-8") as handle:
            out["sampled_spans"] = recorder.write_trees(handle, args.workload)
    if profiler is not None:
        out["calls"] = _calls_by_layer(profiler, layer_of, module_of_file)

    out.update(workload.collect())
    out["host"] = {
        "setup_cpu_s": setup_cpu_s,
        "run_cpu_s": run_cpu_s,
        "run_wall_s": run_wall_s,
        "peak_rss_mb": peak_rss_mb,
        "setup_alloc_blocks": blocks_after - blocks_before,
        "setup_clients": setup_clients,
    }
    out["tracing_imported"] = sorted(m for m in ("spans", "cProfile") if m in sys.modules)
    print(json.dumps(out))
    return 0


def _calls_by_layer(profiler: Any, layer_of: Any, module_of_file: Any) -> Dict[str, Any]:
    """``ncalls`` of every Python-level function, summed per layer.

    Built-in callees have no source file and are left out: the count is of
    Python-level calls, the ones an interpreter pays a frame for.
    """
    profiler.create_stats()
    layers: Dict[str, int] = {}
    modules: Dict[str, int] = {}
    for (filename, _line, _name), (_cc, ncalls, _tt, _ct, _callers) in profiler.stats.items():
        if filename.startswith("~") or filename.startswith("<"):
            continue
        module = module_of_file(filename)
        modules[module] = modules.get(module, 0) + ncalls
        layer = layer_of(module)
        layers[layer] = layers.get(layer, 0) + ncalls
    return {"total": sum(layers.values()), "layers": layers, "modules": modules}


if __name__ == "__main__":
    sys.exit(main())
