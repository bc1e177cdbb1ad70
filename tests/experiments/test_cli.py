"""Tests for the experiments command-line interface."""

import pytest

from repro.experiments.chaos import ChaosScenarioConfig, run_chaos
from repro.experiments.cli import main
from repro.obs.export import dump_tracer, iter_trace
from repro.obs.trace import MetricsEvent, Tracer
from tests.helpers import crash_clusters_at


class TestCli:
    def test_fig4a_small_sweep(self, capsys):
        assert main(["fig4a", "--levels", "100", "--measure-s", "4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4a" in out
        assert "100" in out

    def test_fig4b_small_sweep(self, capsys):
        assert main(["fig4b", "--levels", "100", "--measure-s", "4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4b" in out

    def test_fig5_dynamoth_only_small(self, capsys):
        assert main(["fig5", "--players", "90", "--dynamoth-only"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "Figure 6" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_seed_accepted(self, capsys):
        assert main(["fig4a", "--levels", "100", "--measure-s", "2", "--seed", "9"]) == 0


class TestStreamingFlags:
    def test_gzip_requires_stream(self):
        """``--trace-gzip`` and ``--trace-rotate`` shape the stream that
        ``--trace`` opens; without it they are an error."""
        for flags in (["--trace-gzip"], ["--trace-rotate", "100"]):
            with pytest.raises(SystemExit):
                main(["chaos", "--smoke", *flags])

    def test_chaos_streamed_trace_matches_buffered(self, tmp_path, capsys):
        streamed = tmp_path / "streamed.jsonl"
        buffered = tmp_path / "buffered.jsonl"
        assert main(["chaos", "--smoke", "--trace", str(streamed)]) == 0
        capsys.readouterr()
        tracer = Tracer()
        run_chaos(ChaosScenarioConfig.smoke(), tracer=tracer)
        dump_tracer(tracer, buffered)
        assert streamed.read_bytes() == buffered.read_bytes()

    @pytest.mark.parametrize("gzip_flag", [[], ["--trace-gzip"]])
    def test_run_that_raises_keeps_its_streamed_tail(self, tmp_path, monkeypatch, gzip_flag):
        """The sink's unflushed chunk must not die with the exception: the
        trace reads through the last event before the raise, no trailer."""
        seen = crash_clusters_at(monkeypatch, 2.0)
        path = tmp_path / "crashed.jsonl"
        with pytest.raises(RuntimeError, match="workload callback failed"):
            main(
                ["fig4a", "--levels", "100", "--measure-s", "4",
                 "--trace", str(path), *gzip_flag]
            )
        events = list(iter_trace(path))
        assert len(events) == seen["emitted"] > 0
        assert events[-1].t <= 2.0
        assert not any(type(e) is MetricsEvent for e in events)
