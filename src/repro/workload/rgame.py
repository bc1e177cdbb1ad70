"""RGame: the paper's multiplayer-game workload (section V-A).

The game world is a square split into a grid of square tiles.  Each player
is "controlled by a simple AI that repeatedly chooses a random point on the
map, moves the player towards that point and then takes a short break".
Players subscribe to the channel of the tile they are located in, publish
their own state updates on that tile at a fixed rate (3 per second in
Experiment 2), and therefore continuously generate subscriptions,
unsubscriptions and publications as they roam.

Response time is measured exactly as the paper defines it: "the time that
elapses between the client publishing a state update and receiving the
corresponding notification back from the pub/sub server".
"""

from __future__ import annotations

import math
from random import Random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.client import DynamothClient
from repro.core.cluster import DynamothCluster
from repro.sim.timers import PeriodicTask
from repro.workload.schedules import PopulationSchedule

#: hook: (rtt_seconds, now) -> None
RttSink = Callable[[float, float], None]


@dataclass
class RGameConfig:
    """Parameters of the game world and player behaviour."""

    world_size: float = 1000.0
    tiles_per_side: int = 6
    #: state updates per second per player (3 in Experiment 2)
    updates_per_s: float = 3.0
    #: bytes of one position/state update
    payload_size: int = 200
    #: player movement speed, world units per second
    move_speed: float = 40.0
    #: pause after reaching a waypoint, seconds (min, max)
    pause_range: Tuple[float, float] = (1.0, 4.0)

    def __post_init__(self) -> None:
        if self.world_size <= 0 or self.tiles_per_side < 1:
            raise ValueError("invalid world dimensions")
        if self.updates_per_s <= 0:
            raise ValueError("updates_per_s must be positive")
        if self.move_speed <= 0:
            raise ValueError("move_speed must be positive")
        if self.pause_range[0] < 0 or self.pause_range[1] < self.pause_range[0]:
            raise ValueError("invalid pause_range")


class TileWorld:
    """The square game map split into a grid of tiles."""

    def __init__(self, world_size: float, tiles_per_side: int):
        self.world_size = world_size
        self.tiles_per_side = tiles_per_side
        self.tile_size = world_size / tiles_per_side
        #: ``grid[i][j] == tile_channel(i, j)``, built once: the per-tick
        #: lookup of a player's tile is two indexings, no string built.
        self.grid: List[List[str]] = [
            [self.tile_channel(i, j) for j in range(tiles_per_side)]
            for i in range(tiles_per_side)
        ]

    def tile_of(self, x: float, y: float) -> Tuple[int, int]:
        """Grid coordinates of the tile containing ``(x, y)``."""
        last = self.tiles_per_side - 1
        i = min(last, max(0, int(x / self.tile_size)))
        j = min(last, max(0, int(y / self.tile_size)))
        return i, j

    def channel_of(self, x: float, y: float) -> str:
        i, j = self.tile_of(x, y)
        return self.tile_channel(i, j)

    @staticmethod
    def tile_channel(i: int, j: int) -> str:
        return f"tile:{i}:{j}"

    def all_channels(self) -> List[str]:
        return [channel for row in self.grid for channel in row]

    def random_point(self, rng: Random) -> Tuple[float, float]:
        return rng.uniform(0, self.world_size), rng.uniform(0, self.world_size)


class Player:
    """One AI-controlled avatar: random-waypoint movement + tile pub/sub."""

    def __init__(
        self,
        client: DynamothClient,
        world: TileWorld,
        config: RGameConfig,
        rng: Random,
        rtt_sink: Optional[RttSink] = None,
    ):
        self.client = client
        self.world = world
        self.config = config
        self._rng = rng
        self.x, self.y = world.random_point(rng)
        self._target = world.random_point(rng)
        self._paused_until = 0.0
        self.current_channel: Optional[str] = None
        self.updates_sent = 0
        self.updates_received = 0

        if rtt_sink is not None:
            client.on_response_time = lambda ch, rtt, now: rtt_sink(rtt, now)

        sim = client.sim
        self._task = PeriodicTask(
            sim,
            1.0 / config.updates_per_s,
            self._tick,
            jitter=0.2 / config.updates_per_s,
            rng=rng,
        )

    # ------------------------------------------------------------------
    def join(self) -> None:
        """Enter the world: subscribe to the current tile, start ticking."""
        self._enter_tile(self.world.channel_of(self.x, self.y))
        # Desynchronize players: first tick after a random fraction of the
        # update period.
        self._task.start(start_delay=self._rng.random() / self.config.updates_per_s)

    def leave(self) -> None:
        """Exit the world: stop ticking, drop the tile subscription."""
        self._task.stop()
        if self.current_channel is not None:
            self.client.unsubscribe(self.current_channel)
            self.current_channel = None
        self.client.disconnect()

    # ------------------------------------------------------------------
    def _on_delivery(self, channel: str, body: object, envelope: object) -> None:
        self.updates_received += 1

    def _enter_tile(self, channel: str) -> None:
        """Move the subscription to ``channel``, a tile other than the current."""
        if self.current_channel is not None:
            self.client.unsubscribe(self.current_channel)
        self.client.subscribe(channel, self._on_delivery)
        self.current_channel = channel

    def _tick(self, now: float) -> None:
        config = self.config
        if now >= self._paused_until:
            # One update period of random-waypoint movement.
            tx, ty = self._target
            dx, dy = tx - self.x, ty - self.y
            distance = math.hypot(dx, dy)
            step = config.move_speed * (1.0 / config.updates_per_s)
            if distance <= step:
                # Waypoint reached: take a short break, then pick a new one.
                self.x, self.y = tx, ty
                low, high = config.pause_range
                self._paused_until = now + self._rng.uniform(low, high)
                self._target = self.world.random_point(self._rng)
            else:
                self.x += dx / distance * step
                self.y += dy / distance * step
        # ``world.channel_of(x, y)`` through the prebuilt grid; a tick that
        # stays in its tile (nearly all of them) touches no subscription.
        world = self.world
        last = world.tiles_per_side - 1
        i = min(last, max(0, int(self.x / world.tile_size)))
        j = min(last, max(0, int(self.y / world.tile_size)))
        channel = world.grid[i][j]
        if channel != self.current_channel:
            self._enter_tile(channel)
        body = ("pos", round(self.x, 1), round(self.y, 1))
        self.client.publish(channel, body, config.payload_size)
        self.updates_sent += 1


class RGameWorkload:
    """Manages the player population of one RGame run.

    Players can be added/removed directly, or driven by a
    :class:`~repro.workload.schedules.PopulationSchedule` (checked once per
    second), which is how Experiments 2 and 3 inject and remove clients.
    """

    def __init__(
        self,
        cluster: DynamothCluster,
        config: Optional[RGameConfig] = None,
        *,
        rtt_sink: Optional[RttSink] = None,
    ):
        self.cluster = cluster
        self.config = config if config is not None else RGameConfig()
        self.world = TileWorld(self.config.world_size, self.config.tiles_per_side)
        self.rtt_sink = rtt_sink
        self._players: Dict[str, Player] = {}
        self._player_counter = 0
        #: updates sent by players that have since left
        self._departed_updates = 0
        self._schedule: Optional[PopulationSchedule] = None
        self._driver = PeriodicTask(cluster.sim, 1.0, self._follow_schedule)
        self._rng = cluster.rng.stream("rgame")

    # ------------------------------------------------------------------
    @property
    def population(self) -> int:
        return len(self._players)

    def players(self) -> List[Player]:
        return list(self._players.values())

    def add_players(self, count: int) -> List[Player]:
        added = []
        for __ in range(count):
            self._player_counter += 1
            client_id = f"player{self._player_counter}"
            client = self.cluster.create_client(client_id)
            player = Player(
                client,
                self.world,
                self.config,
                self.cluster.rng.stream(f"player:{client_id}"),
                rtt_sink=self.rtt_sink,
            )
            player.join()
            self._players[client_id] = player
            added.append(player)
        return added

    def remove_players(self, count: int) -> None:
        victims = list(self._players)[:count]
        for client_id in victims:
            player = self._players.pop(client_id)
            player.leave()
            self._departed_updates += player.updates_sent
            self.cluster.remove_client(client_id)

    # ------------------------------------------------------------------
    def follow(self, schedule: PopulationSchedule) -> None:
        """Drive the population to track ``schedule`` (checked every 1 s)."""
        self._schedule = schedule
        self._driver.start(start_delay=0.0)

    def stop(self) -> None:
        self._driver.stop()

    def _follow_schedule(self, now: float) -> None:
        if self._schedule is None:
            return
        target = self._schedule.target(now)
        current = self.population
        if target > current:
            self.add_players(target - current)
        elif target < current:
            self.remove_players(current - target)

    # ------------------------------------------------------------------
    def total_updates_sent(self) -> int:
        """Updates published over the whole run, departed players included."""
        return self._departed_updates + sum(p.updates_sent for p in self._players.values())
