"""The Dynamoth options a run can set, in one place.

The paper states that "the values of the various threshold parameters were
determined empirically based on the capabilities of the machines at our
disposal"; the defaults here are likewise calibrated against the broker
resource model in :class:`repro.broker.BrokerConfig` so that the paper's
experiment shapes are reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Delivery-guarantee tiers of the opt-in reliability layer
#: (``repro.core.reliability``), weakest first.
DELIVERY_TIERS = ("at_most_once", "at_least_once", "exactly_once")


@dataclass
class DynamothConfig:
    """Thresholds and timing parameters of the Dynamoth middleware.

    Attributes
    ----------
    lr_high:
        ``LR^high`` -- a server whose load ratio exceeds this triggers a
        high-load rebalancing (Algorithm 2).
    lr_safe:
        ``LR^safe`` -- the target Algorithm 2 migrates channels until the
        overloaded server's *estimated* load ratio drops below.
    lr_low:
        Global average load ratio below which a low-load rebalancing may
        free servers.
    lr_low_target:
        When draining a server during low-load rebalancing, receiving
        servers must stay below this estimated load ratio.
    t_wait_s:
        ``T_wait`` -- minimum seconds between two plan generations, so the
        configuration overhead of one change settles before the next.
    lla_report_interval_s:
        How often each Local Load Analyzer ships its aggregate metrics to
        the load balancer (the paper's time unit ``t`` is one second).
    lb_eval_interval_s:
        How often the load balancer re-evaluates the cluster state.
    load_window_s:
        Sliding window over which the LB averages reported loads before
        deciding (smooths out per-second noise).
    all_subs_threshold:
        ``AllSubs_threshold`` of Algorithm 1 -- publications-per-subscriber
        ratio beyond which the *all-subscribers* scheme activates.
    publication_threshold:
        Minimum publications/second before all-subscribers replication is
        considered at all.
    all_pubs_threshold:
        ``AllPubs_threshold`` -- subscribers-per-publication ratio beyond
        which the *all-publishers* scheme activates.
    subscriber_threshold:
        Minimum subscriber count before all-publishers replication is
        considered.
    max_replication_servers:
        Upper bound on ``N_servers`` for one channel.
    plan_entry_timeout_s:
        The client/dispatcher timer of section IV-A.5: a client drops idle
        plan entries, and a dispatcher stops forwarding for a moved
        channel, after this long without traffic.
    spawn_delay_s:
        Time for the cloud to boot a newly rented pub/sub server.
    max_servers:
        Hard cap on the rented pool size (8 in the paper's Experiment 2).
    min_servers:
        Never scale below this many servers (the bootstrap set, which also
        forms the consistent-hashing fallback ring, is never despawned).

    Values no run varies are constants beside their one reader: heartbeat
    timeouts in :mod:`repro.core.balancer`, the resubscribe grace in
    :mod:`repro.core.client`, recovery timings in
    :mod:`repro.core.client_recovery`, the repair buffer in
    :mod:`repro.core.dispatcher`, replay budgets and timeouts in
    :mod:`repro.core.reliability`, ring vnodes in :mod:`repro.core.hashing`,
    the SLA window in :mod:`repro.obs.sla` and each policy's own
    parameters on its class.
    """

    # --- load ratio thresholds (eq. 1) ---
    lr_high: float = 0.95
    lr_safe: float = 0.80
    lr_low: float = 0.40
    lr_low_target: float = 0.70

    # --- timing ---
    t_wait_s: float = 10.0
    lla_report_interval_s: float = 1.0
    lb_eval_interval_s: float = 1.0
    load_window_s: float = 5.0

    # --- channel-level replication (Algorithm 1) ---
    all_subs_threshold: float = 2000.0
    publication_threshold: float = 1000.0
    all_pubs_threshold: float = 25.0
    subscriber_threshold: float = 300.0
    max_replication_servers: int = 8

    # --- reconfiguration ---
    plan_entry_timeout_s: float = 30.0

    # --- elasticity ---
    spawn_delay_s: float = 5.0
    max_servers: int = 8
    min_servers: int = 1

    # --- failure recovery (repro.faults subsystem) ---
    #: how long a client keeps refusing a server it suspects dead on its
    #: own pings or acks alone.  A failure the balancer confirmed has no
    #: TTL: survivors tell their clients, who avoid the server until the
    #: balancer re-admits it (e.g. its LLA was only stalled).
    failed_server_ttl_s: float = 60.0
    #: client-side liveness probing: PING each subscribed-on server this
    #: often (``None`` disables probing -- the default, because pong
    #: traffic changes measured egress and therefore plans in runs that
    #: do not exercise failures).
    client_ping_interval_s: Optional[float] = None

    # --- reliable delivery tier (repro.core.reliability) ---
    #: delivery guarantee for application publications: ``at_most_once``
    #: (the base semantics -- the reliability layer is entirely inert),
    #: ``at_least_once`` (broker-side sequencing + bounded replay cache +
    #: client gap repair), or ``exactly_once`` (at-least-once with
    #: replayed duplicates suppressed via seq watermarks and per-sender dedup).
    delivery_tier: str = "at_most_once"
    #: per-channel causal ordering (VCube-PS-style): publications carry
    #: publisher FIFO counters + dependency snapshots; clients park
    #: deliveries until their causal dependencies have been delivered.
    causal_order: bool = False

    # --- extensions (the paper's future-work directions) ---
    #: factor CPU utilization into load ratios: a server is as loaded as
    #: its most constrained resource ("integrate CPU load into our load
    #: balancing algorithms")
    cpu_aware_balancing: bool = False
    #: push every mapping change to every connected client immediately
    #: instead of lazily.  This is the strawman the paper argues against
    #: ("sending a new global plan to all clients at reconfiguration time
    #: would create a huge message overhead"); it exists here for the
    #: ablation benchmark that quantifies that overhead.
    eager_plan_push: bool = False

    # --- rebalancing policy (repro.core.policy) ---
    #: Which registered :class:`~repro.core.policy.RebalancePolicy` the
    #: balancer decides through.  ``"paper"`` is Algorithms 1 & 2 exactly;
    #: see ``repro.core.policy.available_policies()`` for alternatives.
    #: Validated against the registry when the policy is instantiated
    #: (``make_policy``), not here, to keep config import-light.
    rebalance_policy: str = "paper"

    # --- live SLA monitoring (repro.obs.sla; observability only) ---
    #: Windowed delivery-latency threshold in seconds.  ``None`` (the
    #: default) disables the live SLA monitor entirely; when set (and a
    #: tracer is attached) the cluster tracks sliding-window latency
    #: quantiles per channel class and per server and emits
    #: ``sla_violation_start``/``sla_violation_end`` trace events.  Purely
    #: observational: plan decisions never read SLA state.
    sla_threshold_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not (0 < self.lr_safe <= self.lr_high):
            raise ValueError("need 0 < lr_safe <= lr_high")
        if not (0 <= self.lr_low <= self.lr_low_target <= self.lr_high):
            raise ValueError("need lr_low <= lr_low_target <= lr_high")
        if self.t_wait_s < 0 or self.spawn_delay_s < 0:
            raise ValueError("timings must be non-negative")
        if self.lla_report_interval_s <= 0 or self.lb_eval_interval_s <= 0:
            raise ValueError("intervals must be positive")
        if self.load_window_s < self.lla_report_interval_s:
            raise ValueError("load_window_s must cover at least one report interval")
        if min(self.all_subs_threshold, self.all_pubs_threshold) <= 0:
            raise ValueError("replication ratio thresholds must be positive")
        if self.max_replication_servers < 2:
            raise ValueError("max_replication_servers must be >= 2")
        if not (1 <= self.min_servers <= self.max_servers):
            raise ValueError("need 1 <= min_servers <= max_servers")
        if self.plan_entry_timeout_s <= 0:
            raise ValueError("plan_entry_timeout_s must be positive")
        if self.client_ping_interval_s is not None and self.client_ping_interval_s <= 0:
            raise ValueError("client_ping_interval_s must be positive or None")
        if self.failed_server_ttl_s <= 0:
            raise ValueError("failed_server_ttl_s must be positive")
        if self.delivery_tier not in DELIVERY_TIERS:
            raise ValueError(
                f"delivery_tier must be one of {DELIVERY_TIERS}, "
                f"got {self.delivery_tier!r}"
            )
        if not self.rebalance_policy:
            raise ValueError("rebalance_policy must name a registered policy")
        if self.sla_threshold_s is not None and self.sla_threshold_s <= 0:
            raise ValueError("sla_threshold_s must be positive or None")
