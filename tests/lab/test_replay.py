"""The live policy lab: rows read off real runs, determinism, report, CLI."""

import hashlib
import json

import pytest

from repro.core.config import DynamothConfig
from repro.core.policy import available_policies
from repro.experiments.run import SPECS, RunSpec, build, with_policy
from repro.lab.cli import main
from repro.lab.compare import (
    DEFAULT_SLA_THRESHOLD_S,
    compare_policies,
    make_report,
    report_json,
    report_markdown,
    run_policy,
)

MINI_FLASH = RunSpec(
    name="mini-flash",
    describe="small flash crowd for tests",
    duration_s=45.0,
    population=((0.0, 8), (10.0, 8), (16.0, 48), (45.0, 48)),
    tiles_per_side=3,
    nominal_egress_bps=100_000.0,
    config=DynamothConfig(max_servers=4),  # default policy: paper
)
SEED = 7


@pytest.fixture(scope="module")
def mini_report():
    """Every registered policy, run live once on the mini flash crowd."""
    return compare_policies(MINI_FLASH, seed=SEED)


def rows_by_policy(report):
    return {row["policy"]: row for row in report["policies"]}


class TestLiveRows:
    def test_paper_row_is_a_reading_of_the_live_run(self, mini_report):
        """The row is what the balancer did -- with observability off too."""
        cluster, workload = build(MINI_FLASH, SEED)  # no tracer, no readers
        cluster.run_until(MINI_FLASH.duration_s)
        workload.stop()

        lb = cluster.balancer
        plans = [plan for __, plan in lb.plan_history]
        kinds = [e.kind for e in lb.events]
        row = rows_by_policy(mini_report)["paper"]
        assert row["plan_pushes"] == len(lb.plan_history) - 1 > 0
        assert row["migrations"] == sum(
            len(old.diff(new)) for old, new in zip(plans, plans[1:])
        )
        assert row["spawns"] == kinds.count("spawn-request") > 0
        assert row["decommissions"] == kinds.count("decommission")
        assert row["server_seconds"] == cluster.server_seconds()
        assert row["final_plan_version"] == lb.plan.version
        assert row["ticks"] == len(lb.load_history) == 45

    def test_open_sla_episode_lasts_until_the_run_stops(self, mini_report):
        row = rows_by_policy(mini_report)["paper"]
        overall = [v for v in row["sla"]["violations"] if v["scope"] == "overall"]
        assert len(overall) == row["sla_violations"] == 1
        assert overall[0]["end_t"] is None  # the crowd never leaves
        assert row["sla_violation_seconds"] == (
            MINI_FLASH.duration_s - overall[0]["start_t"]
        )


def plan_digest(policy):
    """sha256 of what ``policy``'s balancer did on the mini flash crowd:
    every plan's version and sorted explicit mappings, then the balancer's
    event kinds in order."""
    cluster, workload = build(with_policy(MINI_FLASH, policy), SEED)
    cluster.run_until(MINI_FLASH.duration_s)
    workload.stop()
    lb = cluster.balancer
    plans = [
        [plan.version, plan.to_dict()["mappings"]] for __, plan in lb.plan_history
    ]
    blob = json.dumps([plans, [e.kind for e in lb.events]], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


#: ``plan_digest`` of every policy; the golden trace digests run only
#: ``paper``, so these are what pins the alternatives' decisions.  They
#: must read the same under ``PYTHONHASHSEED`` 0, 1 and 3 (``chbl`` walks
#: a hash ring).
POLICY_PLAN_DIGESTS = {
    "chbl": "8bf9844879d3f6b5110e6910f69911cc09e8f4c83e09c783bfd2ec9dddcf6bb0",
    "consistent_hashing": "9899df8f7a24935e0bb20a5d4d82a25658d73954a701cb643145115a88127326",
    "ewma_predictive": "7d032fcf11e9e41e85cd74e5966763b920ba8ecfae2ce48aa3f35db20d402e41",
    "headroom_pace": "0290b31e759cd7febc3073a0697917c097474cf215661a25d245890e15165764",
    "least_loaded": "9b205482ed436e7b9b931fe02e423210b28ecc07ea75ad5a4af7b7163a2d83df",
    "paper": "586583453eefad5c197587f9371535c1336a01f626214be3f004ea03d7f20b56",
}


@pytest.mark.parametrize("policy", sorted(POLICY_PLAN_DIGESTS))
def test_policy_plan_digest_is_pinned(policy):
    assert plan_digest(policy) == POLICY_PLAN_DIGESTS[policy]


def test_every_policy_has_a_pinned_digest():
    assert sorted(POLICY_PLAN_DIGESTS) == available_policies()


class TestDeterminism:
    def test_compare_report_deterministic(self, mini_report):
        again = compare_policies(
            MINI_FLASH, ("consistent_hashing", "paper"), seed=SEED
        )
        first = rows_by_policy(mini_report)
        assert again["policies"] == [first["consistent_hashing"], first["paper"]]
        rebuilt = make_report(MINI_FLASH, SEED, 0.25, again["policies"])
        assert report_json(again) == report_json(rebuilt)


class TestModeledReplay:
    """Class name kept from the offline lab; every row here is a live run."""

    def test_all_policies_complete(self, mini_report):
        assert [m["policy"] for m in mini_report["policies"]] == available_policies()
        for m in mini_report["policies"]:
            assert m["ticks"] == 45
            assert m["server_seconds"] > 0
            assert m["peak_load_ratio"] > 0

    def test_flash_crowd_forces_action(self, mini_report):
        """The flash crowd overloads the pool: every policy must have
        reacted (spawned or migrated), none may sit still."""
        for m in mini_report["policies"]:
            assert m["plan_pushes"] > 0 or m["spawns"] > 0, m["policy"]

    def test_sla_scopes_in_report(self, mini_report):
        row = rows_by_policy(mini_report)["paper"]
        assert "overall" in row["sla"]["scopes"]
        assert row["sla"]["threshold_s"] == mini_report["sla_threshold_s"] == 0.25
        assert row["sla_violation_seconds"] >= 0.0

    def test_markdown_report_lists_all_policies(self, mini_report):
        text = report_markdown(mini_report)
        for name in available_policies():
            assert f"| {name} |" in text

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown rebalance policy"):
            run_policy(MINI_FLASH, "nope", SEED, 0.25)

    def test_crash_row_keeps_delivering_after_the_failure_is_confirmed(self):
        """The lab's crash spec runs with probing off: its clients learn of
        the dead server only from the survivors' failure notices (without
        them the row reads 0.596).  What is still lost belongs to clients
        with no subscription on any survivor."""
        row = run_policy(SPECS["crash"], "paper", 0, DEFAULT_SLA_THRESHOLD_S)
        assert row["repairs"] == 1
        assert row["delivery_ratio"] >= 0.80


class TestCli:
    def test_compare_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main(["compare", "--scenario", "steady", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("# Policy lab: `steady`")
        for name in available_policies():
            assert f"| {name} |" in text

    def test_compare_policy_subset(self, capsys):
        argv = ["compare", "--scenario", "steady", "--policies", "paper,chbl", "--json"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert [m["policy"] for m in report["policies"]] == ["paper", "chbl"]
        assert report["scenario"] == "steady"

    def test_mistyped_policy_exits_2_before_any_run(self, monkeypatch, capsys):
        def must_not_run(*args, **kwargs):
            raise AssertionError("a scenario ran before the arguments were checked")

        monkeypatch.setattr("repro.lab.compare.run_policy", must_not_run)
        with pytest.raises(SystemExit) as exit_info:
            main(["compare", "--policies", "bogus"])
        assert exit_info.value.code == 2
        assert "paper" in capsys.readouterr().err  # the valid names are listed
