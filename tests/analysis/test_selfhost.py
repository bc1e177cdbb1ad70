"""Self-hosting: the analyzer passes clean over its own repository.

These tests run the real CLI in a subprocess (the exact commands CI and
developers use) and hold the "no module under ``src/`` reads host time"
rule with no path carved out of it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.analysis import AnalysisEngine
from repro.analysis.cli import main

ROOT = Path(__file__).resolve().parents[2]


def run_cli(*args: str) -> "subprocess.CompletedProcess[str]":
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestSelfHost:
    def test_src_is_clean_in_process(self):
        engine = AnalysisEngine(ROOT)
        report = engine.check([Path("src")])
        assert [d.format() for d in report.diagnostics] == []

    def test_no_wallclock_exemption_anywhere_under_src(self):
        """The simulator package never reads host time, and neither a path
        nor a scope pragma can excuse a file that starts to:
        ``time.perf_counter()`` anywhere under ``src/`` is a DET001 finding
        (host-time measurement lives in ``benchmarks/ledger/``)."""
        engine = AnalysisEngine(ROOT)
        report = engine.check([Path("src")])
        assert [d for d in report.diagnostics if d.rule == "DET001"] == []
        source = "import time\nt = time.perf_counter()\n"
        for rel in ("src/repro/experiments/x.py", "src/repro/obs/x.py"):
            found = engine.analyze_source(rel, source)
            assert [d.rule for d in found] == ["DET001"], rel
        pragma = "# repro: scope[wallclock-ok]\n" + source
        found = engine.analyze_source("src/repro/obs/x.py", pragma)
        assert [d.rule for d in found] == ["DET001"]

    def test_check_src_exits_zero(self):
        proc = run_cli("check", "src")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 finding(s)" in proc.stdout

    def test_check_tests_exits_zero(self):
        proc = run_cli("check", "tests", "examples")
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_fixture_violation_exits_one(self):
        proc = run_cli(
            "check",
            "tests/analysis/fixtures/det001_wallclock.py",
        )
        assert proc.returncode == 1
        assert "DET001" in proc.stdout

    def test_json_format_parses(self):
        proc = run_cli(
            "check",
            "tests/analysis/fixtures/det002_global_rng.py",
            "--format=json",
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["summary"]["files_analyzed"] == 1
        assert payload["summary"]["findings"] == len(payload["diagnostics"])
        rules = {d["rule"] for d in payload["diagnostics"]}
        assert "DET002" in rules


class TestCliInProcess:
    def test_no_subcommand_is_usage_error(self):
        assert main([]) == 2
