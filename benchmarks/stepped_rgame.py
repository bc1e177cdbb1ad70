"""The stepped RGame scenario the threshold ablations share.

150 players join 30 at a time every 25 s on a 6x6 tile world, then the
population holds for 50 s.  The broker calibration (240 kB/s egress per
server) makes each step push the pool past its capacity, so the balancer
spawns servers and rebalances throughout; the ablations rerun it with one
:class:`~repro.core.config.DynamothConfig` knob changed.
"""

from typing import Any, Optional, Tuple

from repro.broker.config import BrokerConfig
from repro.core.cluster import DynamothCluster
from repro.core.config import DynamothConfig
from repro.experiments.records import BucketedStat
from repro.workload.rgame import RGameConfig, RGameWorkload


def run_stepped_rgame(
    seed: int = 0, **config: Any
) -> Tuple[DynamothCluster, RGameWorkload, Optional[float]]:
    """Run the scenario with ``config`` on top of its balancer settings.

    Returns the finished cluster, the workload and the mean round-trip
    time over the last 40 s (``None`` when no sample landed there).
    """
    cluster = DynamothCluster(
        seed=seed,
        config=DynamothConfig(
            max_servers=6, min_servers=1, t_wait_s=8.0, spawn_delay_s=4.0, **config
        ),
        broker_config=BrokerConfig(nominal_egress_bps=240_000.0, per_connection_bps=None),
        initial_servers=1,
    )
    rtt = BucketedStat()
    workload = RGameWorkload(
        cluster, RGameConfig(tiles_per_side=6), rtt_sink=lambda v, t: rtt.add(t, v)
    )
    for __ in range(5):
        workload.add_players(30)
        cluster.run_for(25.0)
    cluster.run_for(50.0)
    return cluster, workload, rtt.window_mean(cluster.sim.now - 40, cluster.sim.now)
