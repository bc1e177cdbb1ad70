"""Self-test of the perf ledger (``PYTHONPATH=src python -m pytest benchmarks/ledger``).

Not part of the tier-1 ``testpaths``.  Everything runs at ``--profile
tiny``: the same code paths at sub-second sizes, with no claim on values.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ("fanout_wide", "rgame_ramp", "reliable_lossy", "traced_crash")


def run_py(*args: str, out: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--profile", "tiny", "--seconds", "0",
         "--out", out, *args],
        capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    """One full tiny run: every workload, timed and traced."""
    out = str(tmp_path_factory.mktemp("ledger"))
    done = run_py(out=out)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    with open(os.path.join(out, "ledger.json"), encoding="utf-8") as handle:
        document = json.load(handle)
    document["_out"] = out
    return document


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_keeps_to_the_contract(declared):
    assert sorted(declared) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads",
    ]
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in declared["end_to_end"] + declared["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in declared["end_to_end"])
    assert len(declared["per_layer"]) <= 128 and 1 <= declared["run_seconds"] <= 60


def test_declared_metrics_are_the_catalogue(declared):
    end_to_end = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]}
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]}
    assert end_to_end == {name: layers.END_TO_END[name][:3] for name in layers.GATED}
    assert per_layer == layers.declared_per_layer()
    assert set(end_to_end) | set(per_layer) >= set(layers.END_TO_END)


def test_every_metric_is_emitted_by_name_with_a_unit(ledger):
    assert sorted(ledger["workloads"]) == sorted(WORKLOADS)
    for workload, entry in ledger["workloads"].items():
        assert entry["problems"] == []
        # A metric one workload defines is reported there and omitted elsewhere.
        expected = [
            name for name, spec in layers.END_TO_END.items() if spec[3] in (None, workload)
        ]
        assert sorted(entry["end_to_end"]) == sorted(expected)
        assert sorted(entry["per_layer"]) == sorted(layers.per_layer_catalogue())
        for name, row in {**entry["end_to_end"], **entry["per_layer"]}.items():
            assert NAME.match(name) and UNIT.match(row["unit"]), name
        for row in entry["end_to_end"].values():
            assert row["median"] != 0 and row["q1"] <= row["median"] <= row["q3"]
        assert entry["repeats"] >= 5 and entry["attempted"] >= 1 and entry["failed"] == 0


def test_repeats_that_disagree_fail_the_run():
    reference = {"exact": {"kernel_events": 10, "latency_p50_ms": 1.5}}
    assert run.same_exact(reference, reference, "repeat 1") == []
    other = {"exact": {"kernel_events": 10, "latency_p50_ms": 1.5000000001}}
    assert run.same_exact(reference, other, "repeat 1") == [
        "repeat 1: latency_p50_ms 1.5000000001 != 1.5"
    ]


def test_layer_self_times_sum_to_the_root_span(ledger):
    for name, entry in ledger["workloads"].items():
        self_ns = sum(row["self_ns"] for row in entry["span_functions"])
        assert entry["span_root_ns"] > 0
        assert abs(self_ns - entry["span_root_ns"]) <= 0.01 * entry["span_root_ns"], name


def test_tracing_and_reliability_are_free_when_off(ledger):
    def calls(workload: str, layer: str) -> float:
        return ledger["workloads"][workload]["per_layer"][f"{layer}.py_calls_per_delivery"]["value"]

    for workload in ("fanout_wide", "rgame_ramp", "reliable_lossy"):
        for layer in ("obs.trace", "obs.sink", "obs.sla"):
            assert calls(workload, layer) == 0, (workload, layer)
    for workload in ("fanout_wide", "rgame_ramp"):
        assert calls(workload, "core.reliability") == 0
    # run_chaos builds its cluster inside the run phase; the constructor's
    # one read of the tier is the only call traced_crash may show.
    assert calls("traced_crash", "core.reliability") < 1e-3
    assert calls("reliable_lossy", "core.reliability") > 1
    assert calls("traced_crash", "obs.trace") > 1


def test_spans_jsonl_holds_whole_trees(ledger):
    roots = {}
    with open(os.path.join(ledger["_out"], "spans.jsonl"), encoding="utf-8") as handle:
        for line in handle:
            span = json.loads(line)
            assert span["end_ns"] >= span["start_ns"]
            roots.setdefault((span["workload"], span["root"]), []).append(span)
    assert {workload for workload, _ in roots} == set(WORKLOADS)
    for tree in roots.values():
        assert [span["parent"] for span in tree].count(None) == 1
        assert all(span["parent"] is None or span["parent"] < span["span"] for span in tree)


def test_contract_line(tmp_path, declared):
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        done = run_py("--workload", "fanout_wide", "--seed", "7", "--seconds", "1",
                      "--trace", trace, out=str(tmp_path))
        assert done.returncode == 0, done.stderr[-3000:]
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
        assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
        assert list(last["metrics"]) == [m["name"] for m in declared[section]]
        for m in declared[section]:
            value = last["metrics"][m["name"]]
            assert value["unit"] == m["unit"] and isinstance(value["value"], (int, float))


def test_same_seed_gives_the_same_exact_results(tmp_path):
    lines = []
    for _ in range(2):
        done = run_py("--workload", "rgame_ramp", "--seed", "5", "--trace", "0", out=str(tmp_path))
        assert done.returncode == 0, done.stderr[-3000:]
        lines.append(json.loads(done.stdout.strip().splitlines()[-1])["metrics"])
    host = {"setup_s", "host_cpu_us_per_delivery", "peak_rss_mb"}
    assert {k: v for k, v in lines[0].items() if k not in host} == {
        k: v for k, v in lines[1].items() if k not in host
    }


def test_compare_verdicts(ledger, tmp_path, capsys):
    same = compare.compare(ledger, ledger)
    assert len(same) == len(WORKLOADS) * 10 + 2  # ten metrics everywhere, two on one workload each
    assert not [row for row in same if row[2] in ("worse", "better")]

    slower = json.loads(json.dumps({k: v for k, v in ledger.items() if k != "_out"}))
    for key in ("median", "q1", "q3"):
        slower["workloads"]["fanout_wide"]["end_to_end"]["py_calls_per_delivery"][key] *= 1.5
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({k: v for k, v in ledger.items() if k != "_out"}))
    b.write_text(json.dumps(slower))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main([str(b), str(a)]) == 0  # an improvement is not a failure


def test_compare_fails_a_run_that_lost_a_workload_or_a_metric(ledger):
    lost = json.loads(json.dumps({k: v for k, v in ledger.items() if k != "_out"}))
    del lost["workloads"]["rgame_ramp"]
    del lost["workloads"]["traced_crash"]["end_to_end"]["recovery_s"]
    worse = [row for row in compare.compare(ledger, lost) if row[2] == "worse"]
    assert [(row[0], row[3]) for row in worse] == [
        ("rgame_ramp", "workload absent from b"),
        ("traced_crash", "metric absent from b"),
    ]
    # What b has and a lacks is no regression.
    assert not [row for row in compare.compare(lost, ledger) if row[2] == "worse"]


def test_compare_calls_a_wide_spread_unresolved():
    base = {"median": 10.0, "q1": 8.0, "q3": 12.0}
    assert compare.judge(base, dict(base, median=20.0), "lower", 0.10)[0] == "unresolved"
    tight = {"median": 10.0, "q1": 9.9, "q3": 10.1}
    assert compare.judge(tight, {"median": 9.95, "q1": 9.9, "q3": 10.0}, "lower", 0.10)[0] == (
        "unchanged"
    )
    assert compare.judge(tight, {"median": 8.0, "q1": 7.9, "q3": 8.1}, "lower", 0.10)[0] == "better"


def test_a_removed_function_is_reported_missing(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", (
        ("repro.no_such_module", "Thing", "method", None, None),
        ("json", "JSONDecoder", "no_such_method", None, None),
    ))
    recorder = spans.Recorder(layers.layer_of)
    recorder.install()
    assert recorder.missing == ["Thing.method", "JSONDecoder.no_such_method"]


def test_layer_table():
    assert layers.layer_of("repro.sim.kernel") == "sim.kernel"
    assert layers.layer_of("repro.net.link") == "net.link"
    assert layers.layer_of("repro.net.transport") == "net.transport"
    assert layers.layer_of("repro.obs.metrics") == "obs.trace"
    assert layers.layer_of("repro.core.plan") == "other"
    assert layers.layer_of("workloads") == "workload"
    assert layers.module_of_file("/x/src/repro/net/link.py") == "repro.net.link"
    assert layers.module_of_file(os.path.join(HERE, "workloads.py")) == "workloads"
    assert layers.module_of_file("/usr/lib/python3/random.py") == "stdlib.random"


def test_no_private_repro_names_are_imported():
    private = re.compile(r"from\s+repro[\w.]*\s+import\s+[^#\n]*\b_\w+|import\s+repro[\w.]*\._\w+")
    for name in os.listdir(HERE):
        if name.endswith(".py") and name != os.path.basename(__file__):
            with open(os.path.join(HERE, name), encoding="utf-8") as handle:
                assert not private.search(handle.read()), name


def test_bare_directory_fails_without_a_result(tmp_path):
    """With only the benchmark's own files present there is no program to run."""
    bench = tmp_path / "benchmarks" / "ledger"
    bench.mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_text(open(os.path.join(HERE, name), encoding="utf-8").read())
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "fanout_wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=str(tmp_path),
    )
    assert done.returncode != 0 and not done.stdout.strip()
