"""Unit tests for chaos schedules: timeline order, validation, wire format."""

import pytest

from repro.faults import (
    ChaosSchedule,
    CrashServer,
    DegradeLink,
    HealPartition,
    PartitionNodes,
    RestartServer,
    StallLla,
    action_from_dict,
    action_to_dict,
)


class TestSingleCrash:
    def test_crash_only(self):
        schedule = ChaosSchedule.single_crash("pub2", at=30.0)
        assert schedule.actions == (CrashServer(30.0, "pub2"),)

    def test_crash_then_restart(self):
        schedule = ChaosSchedule.single_crash("pub2", at=30.0, restart_after_s=15.0)
        assert schedule.actions == (
            CrashServer(30.0, "pub2"),
            RestartServer(45.0, "pub2"),
        )


class TestExpand:
    def test_concrete_actions_pass_through_sorted(self):
        schedule = ChaosSchedule(
            (
                StallLla(20.0, "pub1"),
                CrashServer(5.0, "pub2"),
                PartitionNodes(10.0, "pub1", "pub3", until=15.0),
            )
        )
        timeline = schedule.expand()
        assert [a.at for a in timeline] == [5.0, 10.0, 20.0]

    def test_simultaneous_actions_keep_schedule_order(self):
        first = CrashServer(5.0, "pub1")
        second = DegradeLink(5.0, "pub2", "pub3", loss=0.1)
        timeline = ChaosSchedule((first, second)).expand()
        assert timeline == [first, second]


class TestValidation:
    """Negative paths: ChaosSchedule rejects malformed schedules eagerly."""

    def test_restart_before_any_crash_is_rejected(self):
        with pytest.raises(ValueError, match="precedes any crash"):
            ChaosSchedule((RestartServer(5.0, "pub1"),))

    def test_restart_before_its_crash_is_rejected(self):
        with pytest.raises(ValueError, match="precedes any crash"):
            ChaosSchedule((RestartServer(5.0, "pub1"), CrashServer(10.0, "pub1")))

    def test_crash_restart_crash_restart_is_fine(self):
        ChaosSchedule(
            (
                CrashServer(5.0, "pub1"),
                RestartServer(10.0, "pub1"),
                CrashServer(15.0, "pub1"),
                RestartServer(20.0, "pub1"),
            )
        )

    def test_double_crash_of_same_server_is_tolerated(self):
        # The injector skips crashing an already-dead server, so the
        # schedule is legal (and exercised by the injector test suite).
        ChaosSchedule((CrashServer(3.0, "pub2"), CrashServer(4.0, "pub2")))

    def test_overlapping_partition_windows_are_rejected(self):
        with pytest.raises(ValueError, match="overlapping partition windows"):
            ChaosSchedule(
                (
                    PartitionNodes(5.0, "pub1", "pub2", until=15.0),
                    PartitionNodes(10.0, "pub2", "pub1", until=20.0),
                )
            )

    def test_back_to_back_partition_windows_are_fine(self):
        ChaosSchedule(
            (
                PartitionNodes(5.0, "pub1", "pub2", until=10.0),
                PartitionNodes(10.0, "pub1", "pub2", until=15.0),
            )
        )

    def test_disjoint_pairs_do_not_conflict(self):
        ChaosSchedule(
            (
                PartitionNodes(5.0, "pub1", "pub2", until=15.0),
                PartitionNodes(10.0, "pub2", "pub3", until=20.0),
            )
        )

    def test_open_partition_reopened_via_heal_is_fine(self):
        ChaosSchedule(
            (
                PartitionNodes(5.0, "pub1", "pub2"),
                HealPartition(10.0, "pub1", "pub2"),
                PartitionNodes(12.0, "pub1", "pub2", until=18.0),
            )
        )

    def test_unhealed_open_partition_overlap_is_rejected(self):
        with pytest.raises(ValueError, match="overlapping partition windows"):
            ChaosSchedule(
                (
                    PartitionNodes(5.0, "pub1", "pub2"),  # never closed
                    PartitionNodes(12.0, "pub1", "pub2", until=18.0),
                )
            )

    def test_negative_time_is_rejected(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            ChaosSchedule((CrashServer(-1.0, "pub1"),))

    def test_partition_with_identical_endpoints_is_rejected(self):
        with pytest.raises(ValueError, match="must differ"):
            ChaosSchedule((PartitionNodes(5.0, "pub1", "pub1", until=10.0),))

    def test_partition_until_not_after_at_is_rejected(self):
        with pytest.raises(ValueError, match="until"):
            ChaosSchedule((PartitionNodes(5.0, "pub1", "pub2", until=5.0),))

    def test_degrade_loss_out_of_range_is_rejected(self):
        with pytest.raises(ValueError, match="loss"):
            ChaosSchedule((DegradeLink(5.0, "pub1", "pub2", loss=1.5),))

    def test_stall_duration_must_be_positive(self):
        with pytest.raises(ValueError, match="duration"):
            ChaosSchedule((StallLla(5.0, "pub1", duration_s=0.0),))


class TestActionWireFormat:
    def test_every_action_kind_round_trips(self):
        actions = [
            CrashServer(3.0, "pub1"),
            RestartServer(9.0, "pub1"),
            PartitionNodes(4.0, "pub1", "pub2", until=8.0),
            HealPartition(8.5, "pub1", "pub2"),
            DegradeLink(2.0, "pub1", "pub3", loss=0.25, jitter_s=0.1, until=6.0),
            StallLla(6.0, "pub2", duration_s=3.0),
        ]
        for action in actions:
            assert action_from_dict(action_to_dict(action)) == action

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            action_from_dict({"kind": "meteor-strike", "at": 1.0})

    def test_random_crashes_kind_is_unknown(self):
        """``random_crashes`` is not an action kind: a file naming it is
        rejected like any other unknown kind."""
        with pytest.raises(ValueError, match="unknown fault action kind: 'random_crashes'"):
            action_from_dict({"kind": "random_crashes", "rate_per_s": 0.1,
                              "start": 0.0, "end": 30.0})
