"""Tests for the RGame world, players and workload driver."""

from random import Random

import pytest

from repro.workload.rgame import RGameConfig, RGameWorkload, TileWorld
from repro.workload.schedules import steps
from tests.conftest import make_static_cluster
from tests.helpers import python_calls_by_file


class TestTileWorld:
    def test_tile_of_interior_points(self):
        world = TileWorld(100.0, 4)  # 25-unit tiles
        assert world.tile_of(0.0, 0.0) == (0, 0)
        assert world.tile_of(26.0, 51.0) == (1, 2)
        assert world.tile_of(99.9, 99.9) == (3, 3)

    def test_boundary_clamping(self):
        world = TileWorld(100.0, 4)
        assert world.tile_of(100.0, 100.0) == (3, 3)  # on the far edge
        assert world.tile_of(-5.0, 50.0) == (0, 2)    # out of bounds clamps

    def test_channel_naming(self):
        world = TileWorld(100.0, 4)
        assert world.channel_of(30.0, 80.0) == "tile:1:3"

    def test_all_channels_enumerated(self):
        world = TileWorld(100.0, 3)
        channels = world.all_channels()
        assert len(channels) == 9
        assert len(set(channels)) == 9

    def test_grid_holds_every_tile_channel(self):
        """The prebuilt grid a player's tick indexes is ``tile_channel``."""
        world = TileWorld(100.0, 4)
        for i in range(4):
            for j in range(4):
                assert world.grid[i][j] == world.tile_channel(i, j)

    def test_random_point_in_bounds(self):
        world = TileWorld(100.0, 4)
        rng = Random(0)
        for __ in range(100):
            x, y = world.random_point(rng)
            assert 0 <= x <= 100 and 0 <= y <= 100


class TestRGameConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"world_size": 0},
            {"tiles_per_side": 0},
            {"updates_per_s": 0},
            {"move_speed": 0},
            {"pause_range": (3.0, 1.0)},
            {"pause_range": (-1.0, 1.0)},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RGameConfig(**kwargs)


class TestPlayer:
    def test_player_subscribes_to_current_tile(self):
        cluster = make_static_cluster()
        workload = RGameWorkload(cluster, RGameConfig(tiles_per_side=3))
        (player,) = workload.add_players(1)
        cluster.run_for(1.0)
        assert player.current_channel == player.world.channel_of(player.x, player.y)
        assert player.client.is_subscribed(player.current_channel)

    def test_player_publishes_at_update_rate(self):
        cluster = make_static_cluster()
        workload = RGameWorkload(cluster, RGameConfig(updates_per_s=3.0))
        (player,) = workload.add_players(1)
        cluster.run_for(10.0)
        # 3 updates/s for 10 s, +-jitter
        assert 24 <= player.updates_sent <= 36

    def test_player_receives_own_updates(self):
        cluster = make_static_cluster()
        workload = RGameWorkload(cluster, RGameConfig())
        (player,) = workload.add_players(1)
        cluster.run_for(5.0)
        assert player.updates_received >= player.updates_sent - 3

    def test_players_in_same_tile_see_each_other(self):
        cluster = make_static_cluster()
        workload = RGameWorkload(cluster, RGameConfig(tiles_per_side=1))  # one tile
        p1, p2 = workload.add_players(2)
        cluster.run_for(5.0)
        # each receives own + other's updates
        assert p1.updates_received > p1.updates_sent
        assert p2.updates_received > p2.updates_sent

    def test_movement_changes_position(self):
        cluster = make_static_cluster()
        config = RGameConfig(move_speed=100.0, pause_range=(0.1, 0.2))
        workload = RGameWorkload(cluster, config)
        (player,) = workload.add_players(1)
        x0, y0 = player.x, player.y
        cluster.run_for(10.0)
        assert (player.x, player.y) != (x0, y0)

    def test_tile_crossing_moves_subscription(self):
        cluster = make_static_cluster()
        config = RGameConfig(tiles_per_side=10, move_speed=200.0, pause_range=(0.0, 0.1))
        workload = RGameWorkload(cluster, config)
        (player,) = workload.add_players(1)
        seen_channels = set()
        for __ in range(40):
            cluster.run_for(1.0)
            seen_channels.add(player.current_channel)
        assert len(seen_channels) >= 2  # fast player crosses tiles
        # only the current tile remains subscribed
        subscribed = [c for c in seen_channels if player.client.is_subscribed(c)]
        assert subscribed == [player.current_channel]

    def test_rtt_sink_receives_samples(self):
        cluster = make_static_cluster()
        samples = []
        workload = RGameWorkload(
            cluster, RGameConfig(), rtt_sink=lambda rtt, t: samples.append(rtt)
        )
        workload.add_players(1)
        cluster.run_for(5.0)
        assert samples and all(0 < s < 2.0 for s in samples)

    @staticmethod
    def _workload_frames_per_tick(rtt_sink=None):
        cluster = make_static_cluster()
        workload = RGameWorkload(cluster, RGameConfig(), rtt_sink=rtt_sink)
        (player,) = workload.add_players(1)
        cluster.run_for(1.0)
        sent = player.updates_sent
        by_file = python_calls_by_file(lambda: cluster.run_for(30.0))
        ticks = player.updates_sent - sent
        assert ticks > 80
        calls = sum(
            n
            for path, n in by_file.items()
            if "/repro/workload/" in path or path.endswith("/repro/sim/timers.py")
        )
        return calls / ticks

    def test_a_tick_costs_three_workload_frames(self):
        """The timer's ``_tick``, the player's ``_tick`` and the player's own
        update coming back through ``_on_delivery``: nothing else in the
        workload or the timer layer runs per tick (moving and the tile
        lookup happen in the tick's own frame)."""
        # Waypoint arrivals and tile crossings (a handful in 30 s) are the slack.
        assert self._workload_frames_per_tick() <= 3.2

    def test_an_rtt_sink_adds_no_workload_frame(self):
        """The client calls the sink itself: ``Player`` puts no adapter
        between ``on_response_time`` and it.  Reads 3.09; 4.09 with one."""
        samples = []
        per_tick = self._workload_frames_per_tick(lambda rtt, now: samples.append(rtt))
        assert len(samples) > 80
        assert per_tick <= 3.2

    def test_leave_stops_everything(self):
        cluster = make_static_cluster()
        workload = RGameWorkload(cluster, RGameConfig())
        (player,) = workload.add_players(1)
        cluster.run_for(2.0)
        sent = player.updates_sent
        workload.remove_players(1)
        cluster.run_for(5.0)
        assert player.updates_sent == sent
        assert workload.population == 0


class TestWorkloadDriver:
    def test_add_and_remove_players(self):
        cluster = make_static_cluster()
        workload = RGameWorkload(cluster, RGameConfig())
        workload.add_players(5)
        assert workload.population == 5
        workload.remove_players(2)
        assert workload.population == 3

    def test_follow_schedule_tracks_target(self):
        cluster = make_static_cluster()
        workload = RGameWorkload(cluster, RGameConfig())
        schedule = steps([(0, 0), (10, 20), (20, 20), (30, 5)])
        workload.follow(schedule)
        cluster.run_until(12.0)
        assert 16 <= workload.population <= 22
        cluster.run_until(35.0)
        assert workload.population == 5

    def test_player_ids_unique_across_churn(self):
        cluster = make_static_cluster()
        workload = RGameWorkload(cluster, RGameConfig())
        workload.add_players(3)
        workload.remove_players(3)
        workload.add_players(3)
        assert workload.population == 3
        ids = [p.client.node_id for p in workload.players()]
        assert len(set(ids)) == 3

    def test_total_updates_keep_departed_players(self):
        """Removing players must not lower the run's total (the perf ledger
        uses it as the expected response count)."""
        cluster = make_static_cluster()
        workload = RGameWorkload(cluster, RGameConfig())
        players = workload.add_players(5)
        cluster.run_for(3.0)
        before = workload.total_updates_sent()
        workload.remove_players(3)
        assert workload.total_updates_sent() == before
        cluster.run_for(2.0)
        assert workload.total_updates_sent() == sum(p.updates_sent for p in players) > before

    def test_total_updates_accumulate(self):
        cluster = make_static_cluster()
        workload = RGameWorkload(cluster, RGameConfig())
        workload.add_players(3)
        cluster.run_for(5.0)
        assert workload.total_updates_sent() > 20
