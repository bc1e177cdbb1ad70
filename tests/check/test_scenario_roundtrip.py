"""Scenario wire format: JSON round-trips, validation, kill switch, and
the one located error a damaged scenario file raises."""

from __future__ import annotations

import json

import pytest

from repro.check.cli import main
from repro.check.generate import generate_scenario
from repro.check.scenario import Scenario, ScenarioFormatError, with_break
from repro.faults.schedule import CrashServer, PartitionNodes, RestartServer


def test_json_round_trip_preserves_everything():
    scenario = Scenario(
        seed=42,
        label="roundtrip",
        channels=3,
        subscribers=4,
        publishers=2,
        hot_channel_bias=0.4,
        churn_interval_s=1.5,
        faults=(
            CrashServer(8.0, "pub2"),
            RestartServer(14.0, "pub2"),
            PartitionNodes(6.0, "pub1", "pub3", until=9.0),
        ),
        break_repair_replay=True,
    )
    assert Scenario.from_json(scenario.to_json()) == scenario


@pytest.mark.parametrize("seed", range(8))
def test_generated_scenarios_round_trip(seed):
    scenario = generate_scenario(seed)
    assert Scenario.from_json(scenario.to_json()) == scenario


def test_with_break_only_toggles_the_kill_switch():
    scenario = generate_scenario(3)
    broken = with_break(scenario)
    assert broken.break_repair_replay
    assert with_break(broken, broken=False) == scenario


@pytest.mark.parametrize(
    "kwargs",
    [
        {"horizon_s": 10.0, "settle_s": 12.0},
        {"channels": 0},
        {"subscribers": 0},
        {"publishers": 0},
        {"publish_interval_s": 0.0},
    ],
)
def test_invalid_scenarios_are_rejected(kwargs):
    with pytest.raises(ValueError):
        Scenario(seed=0, **kwargs)


# ----------------------------------------------------------------------
# A damaged scenario file: one typed, located error per way of being wrong
# ----------------------------------------------------------------------
def _damaged(**changes) -> str:
    data = generate_scenario(3).to_dict()
    data.update(changes)
    return json.dumps(data)


def test_cut_mid_object_is_not_json():
    text = generate_scenario(3).to_json()
    with pytest.raises(ScenarioFormatError, match=r"^s\.json: not JSON: "):
        Scenario.from_json(text[: len(text) // 2], "s.json")


def test_a_list_is_not_an_object():
    with pytest.raises(ScenarioFormatError, match=r"^s\.json: not a JSON object: list$"):
        Scenario.from_json("[]", "s.json")


def test_unknown_key_is_named():
    with pytest.raises(ScenarioFormatError, match=r"^s\.json: unknown key 'sed'$"):
        Scenario.from_json(_damaged(sed=1), "s.json")


def test_missing_seed_is_named():
    data = generate_scenario(3).to_dict()
    del data["seed"]
    with pytest.raises(ScenarioFormatError, match=r"^s\.json: missing key 'seed'$"):
        Scenario.from_json(json.dumps(data), "s.json")


@pytest.mark.parametrize(
    "key, value, expected",
    [
        ("channels", "4", "int, got str '4'"),
        ("channels", 4.0, "int, got float 4.0"),
        ("seed", True, "int, got bool True"),
        ("horizon_s", "30", "int or float, got str '30'"),
        ("causal_order", 1, "bool, got int 1"),
        ("label", None, "str, got NoneType None"),
        ("faults", {"kind": "crash"}, "list, got dict {'kind': 'crash'}"),
    ],
)
def test_wrong_value_type_names_the_key(key, value, expected):
    with pytest.raises(ScenarioFormatError) as caught:
        Scenario.from_json(_damaged(**{key: value}), "s.json")
    assert str(caught.value) == f"s.json: {key!r} must be {expected}"


def test_an_integer_reads_as_a_float():
    assert Scenario.from_json(_damaged(horizon_s=40)).horizon_s == 40


@pytest.mark.parametrize(
    "fault, expected",
    [
        ({"kind": "meteor", "at": 1.0}, "unknown fault action kind: 'meteor'"),
        ({"at": 1.0, "server": "pub1"}, "unknown fault action kind: None"),
        ({"kind": "crash"}, "missing 2 required positional arguments: 'at' and 'server'"),
        ("crash", "'str' object has no attribute 'get'"),
    ],
)
def test_a_bad_fault_is_located_by_index(fault, expected):
    good = {"kind": "crash", "at": 5.0, "server": "pub1"}
    with pytest.raises(ScenarioFormatError) as caught:
        Scenario.from_json(_damaged(faults=[good, fault]), "s.json")
    assert str(caught.value).startswith("s.json: faults[1]: ")
    assert str(caught.value).endswith(expected)


def test_a_value_the_scenario_rejects_is_located_too():
    with pytest.raises(ScenarioFormatError, match=r"^s\.json: delivery_tier must be one of"):
        Scenario.from_json(_damaged(delivery_tier="twice"), "s.json")


@pytest.mark.parametrize("text", ['{"seed": 1', "[]", '{"seed": 1, "sed": 2}'])
def test_cli_prints_one_line_and_exits_2(text, tmp_path, capsys):
    path = tmp_path / "damaged.json"
    path.write_text(text, encoding="utf-8")
    assert main(["--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ")
    assert captured.err.count("\n") == 1


def test_cli_reports_a_missing_scenario_file_the_same_way(tmp_path, capsys):
    assert main(["--scenario", str(tmp_path / "absent.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
