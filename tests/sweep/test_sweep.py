"""Sweep orchestrator: order preservation, byte-stable merging, and the
multiprocess-vs-single-process identity property.

The orchestrator's contract is that a sweep's merged document depends
only on the task list and per-task results -- never on worker count or
completion order -- so the JSON report must be byte-identical between
``--procs 1`` and any parallel run.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.run import SPECS
from repro.sweep import SWEEP_SCHEMA, CheckTask, LabTask, check_sweep, run_tasks
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

    def test_replay_command_pins_the_soaked_tier(self):
        """A bare ``--seed`` would sample the tier afresh and may pass."""
        failed = {"seed": 86, "label": "churny+client-loss", "ok": False,
                  "delivery_tier": "at_most_once", "causal_order": False,
                  "events": 1, "deliveries": 1, "violations": ["v"]}
        doc = {"summary": {"total": 1, "passed": 0, "failed": 1,
                           "failed_seeds": [86]},
               "results": [failed]}
        assert ("python -m repro.check --seed 86 --tier at_most_once --no-causal"
                in check_markdown(doc))

    def test_tier_override_reaches_worker(self):
        doc = check_sweep(1, delivery_tier="at_least_once", procs=1)
        assert doc["results"][0]["delivery_tier"] == "at_least_once"


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

    def test_lab_compares_the_named_policies(self, tmp_path, capsys):
        out_json = tmp_path / "lab.json"
        out_md = tmp_path / "lab.md"
        rc = main(
            [
                "lab",
                "--scenario", "steady",
                "--policies", "paper, chbl",
                "--output", str(out_json),
                "--markdown", str(out_md),
            ]
        )
        assert rc == 0
        doc = json.loads(out_json.read_text(encoding="utf-8"))
        assert doc["mode"] == "lab"
        report = doc["scenarios"]["steady"]
        assert [m["policy"] for m in report["policies"]] == ["paper", "chbl"]
        text = out_md.read_text(encoding="utf-8")
        assert text.startswith("# Policy lab: `steady`")
        assert "| paper |" in text and "| chbl |" in text

    def test_lab_json_is_identical_across_procs(self, tmp_path, capsys):
        """(scenario, policy) runs merge in task order, whoever ran them."""
        outputs = []
        for procs in ("1", "2"):
            out_json = tmp_path / f"lab-{procs}.json"
            argv = [
                "lab",
                "--scenario", "steady",
                "--policies", "paper,consistent_hashing",
                "--procs", procs,
                "--output", str(out_json),
            ]
            assert main(argv) == 0
            outputs.append(out_json.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "argv, listed",
        [
            (["lab", "--scenario", "nope"], "flash-crowd"),
            (["check", "--tier", "bogus"], "exactly_once"),
            (["lab", "--scenario", "steady", "--policies", "bogus"], "paper"),
        ],
        ids=["scenario", "tier", "policies"],
    )
    def test_mistyped_name_exits_2_before_any_work(
        self, argv, listed, monkeypatch, capsys
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a scenario ran before the arguments were checked")

        monkeypatch.setattr("repro.lab.compare.run_policy", must_not_run)
        monkeypatch.setattr("repro.check.scenario.run_scenario", must_not_run)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert listed in captured.err  # the valid names are spelled out


class TestDeterminismScope:
    def test_worker_tasks_are_picklable_for_spawn(self):
        import pickle

        task = CheckTask(seed=3, delivery_tier="reliable", causal_order=True)
        assert pickle.loads(pickle.dumps(task)) == task
        # a lab task carries its whole spec, fault schedule included
        lab = LabTask(spec=SPECS["crash"], policy="paper", seed=0, sla_threshold_s=0.25)
        assert lab.spec.faults
        assert pickle.loads(pickle.dumps(lab)) == lab
