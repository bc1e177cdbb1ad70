"""All Dynamoth tunables in one place.

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
    resubscribe_grace_s:
        After subscribing on a channel's new server, a client waits this
        long before unsubscribing from the old one.  (Robustness addition
        over the paper's "subscribe then unsubscribe immediately": it
        closes the race where a publication processed on the new server
        after forwarding stopped would miss the still-moving subscriber.
        Duplicates this may cause are absorbed by message-id dedup.)
    spawn_delay_s:
        Time for the cloud to boot a newly rented pub/sub server.
    max_servers:
        Hard cap on the rented pool size (8 in the paper's Experiment 2).
    min_servers:
        Never scale below this many servers (the bootstrap set, which also
        forms the consistent-hashing fallback ring, is never despawned).
    vnodes_per_server:
        Virtual identifiers per server on the consistent-hashing ring.
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
    resubscribe_grace_s: float = 0.25

    # --- elasticity ---
    spawn_delay_s: float = 5.0
    max_servers: int = 8
    min_servers: int = 1

    # --- failure detection & recovery (repro.faults subsystem) ---
    #: heartbeat-based failure detection in the load balancer: a monitored
    #: server (one that has reported at least once) silent for this long is
    #: *suspected*...
    heartbeat_suspect_s: float = 3.0
    #: ...and a suspect silent for this much longer is *confirmed* failed,
    #: triggering plan repair.  Detection only ever acts when reports stop
    #: arriving, so it is safe to leave on for failure-free runs.
    heartbeat_confirm_s: float = 2.0
    #: whether the balancer runs heartbeat detection at all
    failure_detection: bool = True
    #: rent a replacement server after confirming a failure (in addition
    #: to the min_servers floor, which always forces one)
    replace_failed_servers: bool = False
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
    #: consecutive unanswered pings before the client declares the server
    #: dead and fails over its subscriptions
    client_ping_miss_limit: int = 3
    #: seconds a recovering client waits for a SubscribeAck before
    #: treating the target server as dead too and retrying elsewhere
    subscribe_ack_timeout_s: float = 2.0
    #: exponential resubscribe backoff: base * 2^attempt, capped
    reconnect_backoff_base_s: float = 0.5
    reconnect_backoff_max_s: float = 10.0
    #: dispatcher-side repair buffering: a repaired channel's new home
    #: holds publications for this long (and at most this many) after the
    #: repair plan arrives, replaying them when the first recovering
    #: subscriber resubscribes.
    repair_buffer_s: float = 5.0
    repair_buffer_max_msgs: int = 64

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
    #: replay cache budgets per (server, channel): max cached messages and
    #: max cached payload bytes.  Either at zero degrades a reliable tier
    #: to plain at-most-once (nothing is stamped or cached).
    replay_cache_max_msgs: int = 256
    replay_cache_max_bytes: int = 262144
    #: retry timeout before the link's first round-trip sample, and its ceiling after
    replay_retry_cooldown_s: float = 1.0
    #: causal mode: how long an out-of-order delivery may stay parked
    #: before the channel is force-flushed in arrival order
    causal_park_timeout_s: float = 2.0

    # --- consistent hashing ---
    vnodes_per_server: int = 64

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
    #: CHBL's epsilon: each server's egress is bounded by ``(1 + eps)``
    #: times its capacity-weighted fair share (Mirrokni et al.).
    chbl_epsilon: float = 0.25
    #: EWMA smoothing factor for the ``ewma_predictive`` policy (weight of
    #: the newest load-ratio sample).
    policy_ewma_alpha: float = 0.30
    #: How far (seconds) ``ewma_predictive`` extrapolates the load trend.
    policy_ewma_horizon_s: float = 5.0
    #: ``headroom_pace`` look-ahead: seconds of measured load growth added
    #: to a server's effective load when scoring it as a receiver.
    policy_pace_weight: float = 3.0

    # --- live SLA monitoring (repro.obs.sla; observability only) ---
    #: Windowed delivery-latency threshold in seconds.  ``None`` (the
    #: default) disables the live SLA monitor entirely; when set (and a
    #: tracer is attached) the cluster tracks sliding-window latency
    #: quantiles per channel class and per server and emits
    #: ``sla_violation_start``/``sla_violation_end`` trace events.  Purely
    #: observational: plan decisions never read SLA state.
    sla_threshold_s: Optional[float] = None
    #: Quantile the SLA is judged on (the paper uses the 95th percentile).
    sla_quantile: float = 95.0
    #: Sliding-window span (sim seconds) and its slice count.
    sla_window_s: float = 10.0
    sla_window_slices: int = 10

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
        if self.heartbeat_suspect_s <= 0 or self.heartbeat_confirm_s <= 0:
            raise ValueError("heartbeat timeouts must be positive")
        if self.client_ping_interval_s is not None and self.client_ping_interval_s <= 0:
            raise ValueError("client_ping_interval_s must be positive or None")
        if self.client_ping_miss_limit < 1:
            raise ValueError("client_ping_miss_limit must be >= 1")
        if self.subscribe_ack_timeout_s <= 0:
            raise ValueError("subscribe_ack_timeout_s must be positive")
        if not (0 < self.reconnect_backoff_base_s <= self.reconnect_backoff_max_s):
            raise ValueError("need 0 < reconnect_backoff_base_s <= reconnect_backoff_max_s")
        if self.failed_server_ttl_s <= 0:
            raise ValueError("failed_server_ttl_s must be positive")
        if self.repair_buffer_s < 0 or self.repair_buffer_max_msgs < 0:
            raise ValueError("repair buffer settings must be non-negative")
        if self.delivery_tier not in DELIVERY_TIERS:
            raise ValueError(
                f"delivery_tier must be one of {DELIVERY_TIERS}, "
                f"got {self.delivery_tier!r}"
            )
        if self.replay_cache_max_msgs < 0 or self.replay_cache_max_bytes < 0:
            raise ValueError("replay cache budgets must be non-negative")
        if self.replay_retry_cooldown_s <= 0:
            raise ValueError("replay_retry_cooldown_s must be positive")
        if self.causal_park_timeout_s <= 0:
            raise ValueError("causal_park_timeout_s must be positive")
        if self.vnodes_per_server < 1:
            raise ValueError("vnodes_per_server must be >= 1")
        if not self.rebalance_policy:
            raise ValueError("rebalance_policy must name a registered policy")
        if self.chbl_epsilon <= 0:
            raise ValueError("chbl_epsilon must be positive")
        if not (0 < self.policy_ewma_alpha <= 1):
            raise ValueError("policy_ewma_alpha must be in (0, 1]")
        if self.policy_ewma_horizon_s < 0 or self.policy_pace_weight < 0:
            raise ValueError("policy horizons must be non-negative")
        if self.sla_threshold_s is not None and self.sla_threshold_s <= 0:
            raise ValueError("sla_threshold_s must be positive or None")
        if not (0 < self.sla_quantile <= 100):
            raise ValueError("sla_quantile must be in (0, 100]")
        if self.sla_window_s <= 0 or self.sla_window_slices < 1:
            raise ValueError("need sla_window_s > 0 and sla_window_slices >= 1")
