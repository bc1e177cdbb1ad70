"""Sweep orchestrator: order preservation, byte-stable merging, and the
multiprocess-vs-single-process identity property.

The orchestrator's contract is that a sweep's merged document depends
only on the task list and per-task results -- never on worker count or
completion order -- so the JSON report must be byte-identical between
``--procs 1`` and any parallel run.
"""

from __future__ import annotations

import json

from repro.analysis.config import find_project_root, load_config
from repro.experiments.bench import compare_to_baseline, extract_headline
from repro.sweep import (
    SWEEP_SCHEMA,
    CheckTask,
    bench_sweep,
    check_sweep,
    run_tasks,
)
from repro.sweep.cli import main
from repro.sweep.orchestrator import check_markdown


def _doc_bytes(doc) -> bytes:
    return json.dumps(doc, indent=2, sort_keys=True).encode("utf-8")


class TestRunTasks:
    def test_inline_preserves_order(self):
        seen = []

        def worker(task):
            seen.append(task)
            return {"task": task}

        results = run_tasks(worker, [3, 1, 2], procs=1)
        assert seen == [3, 1, 2]
        assert [r["task"] for r in results] == [3, 1, 2]

    def test_progress_called_per_task(self):
        calls = []
        run_tasks(lambda t: {"t": t}, ["a", "b"], procs=1, progress=calls.append)
        assert calls == [{"t": "a"}, {"t": "b"}]


class TestCheckSweep:
    def test_doc_shape_and_rerun_identity(self):
        doc = check_sweep(2, procs=1)
        assert doc["schema"] == SWEEP_SCHEMA
        assert doc["mode"] == "check"
        assert doc["summary"]["total"] == 2
        assert doc["summary"]["failed"] == 0
        assert [r["seed"] for r in doc["results"]] == [0, 1]
        for r in doc["results"]:
            assert r["ok"] is True
            assert len(r["trace_sha256"]) == 64
            assert r["events"] > 0
        # A soak is deterministic end to end: same seeds, same bytes.
        assert _doc_bytes(doc) == _doc_bytes(check_sweep(2, procs=1))

    def test_multiprocess_matches_single_process_byte_for_byte(self):
        single = check_sweep(2, procs=1)
        parallel = check_sweep(2, procs=2)
        assert _doc_bytes(single) == _doc_bytes(parallel)

    def test_markdown_lists_every_seed(self):
        doc = check_sweep(2, procs=1)
        rendered = check_markdown(doc)
        assert "| 0 |" in rendered
        assert "| 1 |" in rendered
        assert "2/2 seeds passed" in rendered

    def test_tier_override_reaches_worker(self):
        doc = check_sweep(1, delivery_tier="at_least_once", procs=1)
        assert doc["results"][0]["delivery_tier"] == "at_least_once"


class TestBenchSweep:
    def test_merged_doc_is_headline_compatible(self):
        doc = bench_sweep(["fanout"], profile="smoke", repeat=1)
        assert doc["mode"] == "bench"
        headline = extract_headline(doc)
        assert headline is not None and headline > 0
        # The merged shape gates against itself without adaptation.
        assert compare_to_baseline(doc, doc, 0.2) is None

    def test_regression_gate_fires_on_inflated_baseline(self):
        doc = bench_sweep(["fanout"], profile="smoke", repeat=1)
        inflated = json.loads(json.dumps(doc))
        inflated["scenarios"]["fanout"]["events_per_s"] *= 100.0
        assert compare_to_baseline(doc, inflated, 0.2) is not None


class TestCli:
    def test_check_writes_reports(self, tmp_path, capsys):
        out_json = tmp_path / "soak.json"
        out_md = tmp_path / "soak.md"
        rc = main(
            [
                "check",
                "--iterations", "1",
                "--output", str(out_json),
                "--markdown", str(out_md),
            ]
        )
        assert rc == 0
        doc = json.loads(out_json.read_text(encoding="utf-8"))
        assert doc["schema"] == SWEEP_SCHEMA
        assert doc["summary"]["passed"] == 1
        assert "# Check soak" in out_md.read_text(encoding="utf-8")

    def test_bench_baseline_gate_exit_codes(self, tmp_path, capsys):
        out_json = tmp_path / "bench.json"
        rc = main(
            [
                "bench",
                "--profile", "smoke",
                "--scenario", "steady",
                "--output", str(out_json),
            ]
        )
        assert rc == 0
        assert json.loads(out_json.read_text(encoding="utf-8"))["mode"] == "bench"


class TestDeterminismScope:
    def test_sweep_is_inside_det001_scope(self):
        """repro.sweep must stay under the wall-clock sanitizer.

        The orchestrator's byte-stability promise depends on it: if
        sweep code could read host time, reports would stop being
        reproducible.  Guard the config so nobody quietly adds the
        package to the allow-list.
        """
        import fnmatch

        config = load_config(find_project_root())
        for path in (
            "src/repro/sweep/orchestrator.py",
            "src/repro/sweep/workers.py",
            "src/repro/sweep/cli.py",
        ):
            assert not any(
                fnmatch.fnmatch(path, glob) for glob in config.wallclock_allowed
            ), f"{path} must not be wallclock-allowed"

    def test_worker_tasks_are_picklable_for_spawn(self):
        import pickle

        task = CheckTask(seed=3, delivery_tier="reliable", causal_order=True)
        assert pickle.loads(pickle.dumps(task)) == task
