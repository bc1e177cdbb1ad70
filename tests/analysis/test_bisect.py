"""Trace-divergence bisector: localization, truncation, CLI contract."""

import gzip
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.bisect import (
    SUBSYSTEMS,
    bisect_traces,
    format_divergence,
)

ROOT = Path(__file__).resolve().parents[2]


def _event(i: int, event_type: str = "delivery") -> str:
    return json.dumps(
        {"type": event_type, "t": float(i), "msg_id": f"m{i}"},
        sort_keys=True,
    )


def _write_trace(path: Path, n: int, mutate_at: int = -1) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"type": "trace_header", "seed": 42}) + "\n")
        for i in range(n):
            line = _event(i)
            if i == mutate_at:
                line = _event(i, event_type="fanout")
            handle.write(line + "\n")


class TestBisect:
    def test_identical_traces(self, tmp_path):
        left, right = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _write_trace(left, 500)
        _write_trace(right, 500)
        assert bisect_traces(left, right) is None

    @pytest.mark.parametrize("index", [0, 1, 127, 128, 129, 255, 499])
    def test_first_divergence_index(self, tmp_path, index):
        left, right = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _write_trace(left, 500)
        _write_trace(right, 500, mutate_at=index)
        divergence = bisect_traces(left, right)
        assert divergence is not None
        assert divergence.index == index
        assert divergence.event_type in {"delivery", "fanout"}
        assert divergence.t == float(index)
        assert divergence.subsystem in {"client", "broker"}

    def test_truncation_reported_at_shared_length(self, tmp_path):
        left, right = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _write_trace(left, 300)
        _write_trace(right, 220)
        divergence = bisect_traces(left, right)
        assert divergence is not None
        assert divergence.index == 220
        assert divergence.right is None
        assert divergence.left_total == 300
        assert divergence.right_total == 220

    def test_header_differences_are_ignored(self, tmp_path):
        left, right = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _write_trace(left, 50)
        body = left.read_text().splitlines()[1:]
        right.write_text(
            json.dumps({"type": "trace_header", "seed": 7}) + "\n"
            + "\n".join(body) + "\n"
        )
        assert bisect_traces(left, right) is None

    def test_gzip_traces_supported(self, tmp_path):
        plain, packed = tmp_path / "a.jsonl", tmp_path / "b.jsonl.gz"
        _write_trace(plain, 200, mutate_at=33)
        clean = tmp_path / "clean.jsonl"
        _write_trace(clean, 200)
        with gzip.open(packed, "wb") as handle:
            handle.write(clean.read_bytes())
        divergence = bisect_traces(plain, packed)
        assert divergence is not None
        assert divergence.index == 33

    def test_subsystem_attribution(self, tmp_path):
        left, right = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _write_trace(left, 10)
        _write_trace(right, 10, mutate_at=4)
        divergence = bisect_traces(left, right)
        # Mutated side carries "fanout" (broker) or original "delivery"
        # (client) depending on decode order; both map to a subsystem.
        assert divergence.subsystem == SUBSYSTEMS[divergence.event_type]

    def test_truncated_gzip_raises_value_error_with_line(self, tmp_path):
        left, broken = tmp_path / "a.jsonl", tmp_path / "b.jsonl.gz"
        _write_trace(left, 300)
        broken.write_bytes(gzip.compress(left.read_bytes())[:-12])
        with pytest.raises(ValueError, match=r"b\.jsonl\.gz:\d+: malformed gzip stream"):
            bisect_traces(left, broken)

    def test_format_divergence_mentions_index(self, tmp_path):
        left, right = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _write_trace(left, 10)
        _write_trace(right, 10, mutate_at=7)
        text = format_divergence(bisect_traces(left, right))
        assert "first divergence at event 7" in text
        assert "subsystem:" in text


class TestBisectCli:
    def _run(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", "bisect", *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
        )

    def test_identical_exits_zero(self, tmp_path):
        left, right = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _write_trace(left, 100)
        _write_trace(right, 100)
        proc = self._run(str(left), str(right))
        assert proc.returncode == 0, proc.stderr
        assert "identical" in proc.stdout

    def test_divergent_exits_one_with_json(self, tmp_path):
        left, right = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _write_trace(left, 100)
        _write_trace(right, 100, mutate_at=61)
        proc = self._run(str(left), str(right), "--format", "json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["identical"] is False
        assert payload["divergence"]["index"] == 61

    def test_missing_file_exits_two(self, tmp_path):
        left = tmp_path / "a.jsonl"
        _write_trace(left, 10)
        proc = self._run(str(left), str(tmp_path / "missing.jsonl"))
        assert proc.returncode == 2

    def test_wrong_arity_exits_two(self, tmp_path):
        left = tmp_path / "a.jsonl"
        _write_trace(left, 10)
        proc = self._run(str(left))
        assert proc.returncode == 2

    @pytest.mark.parametrize("damage", ["truncated", "corrupt"])
    def test_broken_gzip_exits_two_with_location(self, tmp_path, damage):
        # A run killed mid-write leaves a gzip stream without its trailer;
        # that is an unreadable input (exit 2), never a divergence (exit 1).
        left, broken = tmp_path / "a.jsonl", tmp_path / "b.jsonl.gz"
        _write_trace(left, 100)
        packed = gzip.compress(left.read_bytes())
        if damage == "truncated":
            broken.write_bytes(packed[:-12])
        else:
            broken.write_bytes(b"\x1f\x8b" + b"not a deflate stream" * 4)
        proc = self._run(str(left), str(broken))
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"{broken}:" in proc.stderr
        assert "malformed gzip stream" in proc.stderr


class TestSubsystemTable:
    def test_table_covers_registered_event_types(self):
        # Every registered trace event type must have an attribution so
        # bisect never reports "unknown" for a real trace.
        from repro.obs.trace import EVENT_TYPES

        missing = set(EVENT_TYPES) - set(SUBSYSTEMS)
        assert not missing, sorted(missing)
