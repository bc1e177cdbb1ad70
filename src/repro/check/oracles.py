"""Invariant oracles over one finished scenario run.

Each oracle consumes the schema-2 trace plus the harness ledgers of a
:class:`~repro.check.scenario.RunResult` and returns zero or more
:class:`Violation` records.  The oracles deliberately carve out the
windows where the documented semantics are weaker:

* **loss-free** holds outside fault *turbulence windows* (the interval
  around each injected fault plus a recovery margin) -- during those
  windows delivery is at-most-once by design (DESIGN.md section 6d);
* **repair bridging** is the precise check *inside* a crash window: what
  the repaired channel's new home accepted before the recovering
  subscriber re-attached must still reach it, via the dispatcher's
  repair buffer, as long as the buffer's documented time/size bounds and
  a clean single-crash context hold;
* **at-most-once** has no carve-out (the application never sees one
  message id twice) except under the ``at_least_once`` delivery tier,
  which does not promise it;
* **gap-free** and **causal-order** assert the reliable delivery tier's
  contracts: noticed sequence holes get replayed (even through fault
  turbulence -- that is the tier's job), and causal mode never shows the
  application a visible inversion it did not explicitly time out on.

All margins here are deliberately conservative: a property suite that
cries wolf on scheduling jitter is worse than one that checks less.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.check.scenario import RunResult
from repro.core.dispatcher import REPAIR_BUFFER_MAX_MSGS, REPAIR_BUFFER_S, dispatcher_id
from repro.core.plan import ReplicationMode
from repro.core.policy import policy_class
from repro.faults.schedule import (
    CrashServer,
    DegradeLink,
    HealPartition,
    PartitionNodes,
    RestartServer,
    StallLla,
)
from repro.obs.trace import (
    CausalTimeoutEvent,
    FanoutEvent,
    PlanAppliedEvent,
    PlanRepairDoneEvent,
    PlanRepairStartEvent,
    PublishEvent,
    ReplayGapEvent,
    ServerCrashEvent,
)

#: how long after a fault's effect ends the system may still be settling
RECOVERY_MARGIN_S = 25.0
#: publications get this long to reach every stable subscriber
DELIVERY_GRACE_S = 5.0
#: a subscriber counts as "stable" for a publication only if it was
#: already subscribed this long before the publication left the client
PRE_SUB_MARGIN_S = 1.5
#: slack subtracted from the repair-buffer window before the bridging
#: oracle considers a publication guaranteed
REPAIR_WINDOW_SLACK_S = 0.5
#: a sequence gap first noticed this close to the horizon is not asserted
#: repaired (the replay request + retransmission needs round trips)
GAP_SETTLE_GRACE_S = 4.0


@dataclass(frozen=True)
class Violation:
    """One oracle failure, with enough context to debug from the trace."""

    oracle: str
    detail: str
    t: Optional[float] = None

    def __str__(self) -> str:
        stamp = f" @t={self.t:.3f}" if self.t is not None else ""
        return f"[{self.oracle}]{stamp} {self.detail}"


# ----------------------------------------------------------------------
# Turbulence windows
# ----------------------------------------------------------------------
def _merge_windows(windows: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    if not windows:
        return []
    windows = sorted(windows)
    merged = [list(windows[0])]
    for lo, hi in windows[1:]:
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def turbulence_windows(result: RunResult) -> List[Tuple[float, float]]:
    """Intervals during which loss-free delivery is *not* asserted.

    Each injected fault contributes a window from just before it fires to
    the end of its effect plus a recovery margin (failure detection, plan
    repair, client backoff and resubscription all take time).
    """
    scenario = result.scenario
    settle_start = scenario.settle_start_s
    windows: List[Tuple[float, float]] = []
    for action in result.fault_timeline:
        if isinstance(action, CrashServer):
            windows.append((action.at - 1.0, action.at + RECOVERY_MARGIN_S))
        elif isinstance(action, RestartServer):
            # A comeback re-pushes plans and rebalances onto the server.
            windows.append((action.at - 1.0, action.at + 15.0))
        elif isinstance(action, PartitionNodes):
            end = action.until if action.until is not None else settle_start
            windows.append((action.at - 1.0, end + 15.0))
        elif isinstance(action, HealPartition):
            windows.append((action.at - 1.0, action.at + 15.0))
        elif isinstance(action, DegradeLink):
            end = action.until if action.until is not None else settle_start
            windows.append((action.at - 1.0, end + 10.0))
        elif isinstance(action, StallLla):
            duration = (
                action.duration_s
                if action.duration_s is not None
                else scenario.horizon_s
            )
            # A stall can trigger false failure detection, plan repair and
            # a resurrection re-push once reports resume.
            windows.append((action.at - 1.0, action.at + duration + RECOVERY_MARGIN_S))
    return _merge_windows(windows)


def _intersects(
    windows: List[Tuple[float, float]], start: float, end: float
) -> bool:
    for lo, hi in windows:
        if lo < end and start < hi:
            return True
    return False


# ----------------------------------------------------------------------
# O1: loss-free delivery outside turbulence
# ----------------------------------------------------------------------
def oracle_loss_free(result: RunResult) -> List[Violation]:
    """Every calm-window publication reaches every stable subscriber.

    This is the paper's core claim -- lazy reconfiguration is loss-free --
    so the check intentionally spans plan migrations; only fault windows
    (where semantics are documented at-most-once) are exempt.
    """
    violations: List[Violation] = []
    windows = turbulence_windows(result)
    ledger = result.ledger
    delivered = ledger.delivered_pairs
    horizon = result.scenario.horizon_s
    subscribers_by_channel: Dict[str, List[str]] = {}
    for client, channel in ledger.sub_intervals:
        subscribers_by_channel.setdefault(channel, []).append(client)

    for event in result.tracer.events_of(PublishEvent):
        tp = event.t
        if tp + DELIVERY_GRACE_S > horizon:
            continue  # too close to the end to assert delivery
        if _intersects(windows, tp - PRE_SUB_MARGIN_S, tp + DELIVERY_GRACE_S):
            continue
        for client in subscribers_by_channel.get(event.channel, ()):
            if not ledger.covers(
                client, event.channel, tp - PRE_SUB_MARGIN_S, tp + DELIVERY_GRACE_S
            ):
                continue  # not a stable subscriber for this publication
            if (client, event.msg_id) not in delivered:
                violations.append(
                    Violation(
                        "loss-free",
                        f"publication {event.msg_id} on {event.channel} "
                        f"(sender {event.sender}, targets {list(event.targets)}) "
                        f"never reached stable subscriber {client}",
                        t=tp,
                    )
                )
    return violations


# ----------------------------------------------------------------------
# O2: repair-window bridging (the repair buffer works)
# ----------------------------------------------------------------------
def oracle_repair_bridging(result: RunResult) -> List[Violation]:
    """Publications accepted by a repaired channel's new home before the
    first recovering subscriber re-attached must be replayed to it.

    Only asserted in a clean context: a crash-induced repair, no other
    fault overlapping the window, the attach inside the repair buffer's
    time bound, and no more candidate publications than the buffer holds.
    """
    violations: List[Violation] = []
    ledger = result.ledger
    crash_times = {
        e.server: e.t for e in result.tracer.events_of(ServerCrashEvent)
    }
    repairs = result.tracer.events_of(PlanRepairStartEvent)
    repair_done = {
        (e.server, e.t): e.version
        for e in result.tracer.events_of(PlanRepairDoneEvent)
    }
    plan_applied = result.tracer.events_of(PlanAppliedEvent)
    fanouts = result.tracer.events_of(FanoutEvent)
    #: client-originated message ids (excludes dispatcher switch notices)
    app_msg_ids = {e.msg_id for e in result.tracer.events_of(PublishEvent)}
    delivered = ledger.delivered_pairs
    fault_times = sorted(a.at for a in result.fault_timeline)

    for repair in repairs:
        dead = repair.server
        crash_t = crash_times.get(dead)
        if crash_t is None or not (crash_t <= repair.t <= crash_t + 15.0):
            continue  # stall-induced or unmatched repair: skip
        version = repair_done.get((dead, repair.t))
        if version is None:
            continue
        plan = next(
            (p for t, p in result.plan_history if p.version == version), None
        )
        if plan is None:
            continue
        for channel in repair.channels:
            mapping = plan.mapping(channel)
            for home in mapping.servers:
                if home == dead:
                    continue
                applied_t = next(
                    (
                        e.t
                        for e in plan_applied
                        if e.node == dispatcher_id(home)
                        and e.version == version
                        and e.t >= repair.t
                    ),
                    None,
                )
                if applied_t is None:
                    continue  # the push never landed (home died too)
                attach = next(
                    (
                        (t, client)
                        for t, server, ch, client in ledger.server_subs
                        if server == home and ch == channel and t > applied_t
                    ),
                    None,
                )
                if attach is None:
                    continue  # no recovering subscriber showed up
                attach_t, client = attach
                window_end = attach_t
                if attach_t - applied_t > REPAIR_BUFFER_S - REPAIR_WINDOW_SLACK_S:
                    continue  # buffer legitimately expired first
                # Any other fault firing inside the window muddies causality.
                if any(
                    crash_t < ft <= window_end + 2.0 and ft != crash_t
                    for ft in fault_times
                ):
                    continue
                # The subscriber must stay attached long enough to receive.
                if not ledger.covers(
                    client, channel, attach_t, attach_t + DELIVERY_GRACE_S
                ):
                    continue
                parked = [
                    e
                    for e in fanouts
                    if e.server == home
                    and e.channel == channel
                    and e.msg_id in app_msg_ids
                    and applied_t < e.t <= attach_t - 0.01
                ]
                if len(parked) > REPAIR_BUFFER_MAX_MSGS:
                    continue  # overflow drops oldest: not guaranteed
                violations.extend(
                    Violation(
                        "repair-bridging",
                        f"{event.msg_id} on {channel} reached repaired "
                        f"home {home} at t={event.t:.3f} (window "
                        f"[{applied_t:.3f}, {attach_t:.3f}]) but was "
                        f"never replayed to recovering subscriber "
                        f"{client}",
                        t=event.t,
                    )
                    for event in parked
                    if (client, event.msg_id) not in delivered
                )
    return violations


# ----------------------------------------------------------------------
# O3: at-most-once delivery (no carve-out, tier permitting)
# ----------------------------------------------------------------------
def oracle_at_most_once(result: RunResult) -> List[Violation]:
    """The application never sees one message id twice.

    Asserted under ``at_most_once`` (no replay to duplicate anything) and
    ``exactly_once`` (replay deduplicated by message id).  The
    ``at_least_once`` tier explicitly does not promise this -- a replayed
    message past the dedup window may legally surface twice -- so the
    oracle stands down there.
    """
    if result.scenario.delivery_tier == "at_least_once":
        return []
    return [
        Violation(
            "at-most-once",
            f"client {client} saw {msg_id} {count} times",
        )
        for (client, msg_id), count in result.ledger.delivery_counts.items()
        if count > 1
    ]


# ----------------------------------------------------------------------
# O4: plan consistency after the settle window
# ----------------------------------------------------------------------
def oracle_plan_consistency(result: RunResult) -> List[Violation]:
    """After settling, client partial plans agree with the balancer.

    Checks, for every still-subscribed (client, channel) pair: the held
    subscription servers are live, they form a valid subscription set for
    the balancer's mapping, and any explicit client plan entry matches
    the balancer's assignment.  Consistent-hashing fallback (a version-0
    or absent entry) is legal only for channels the balancer never mapped
    explicitly.
    """
    violations: List[Violation] = []
    cluster = result.cluster
    plan = result.final_plan
    live = set(cluster.servers)

    for (client_id, channel), intervals in sorted(result.ledger.sub_intervals.items()):
        if not intervals or intervals[-1][1] != result.scenario.horizon_s:
            continue  # not subscribed when the run ended
        client = cluster.clients.get(client_id)
        if client is None or not client.is_subscribed(channel):
            continue
        held = client.subscription_servers(channel)
        mapping = plan.mapping(channel)
        if not held:
            violations.append(
                Violation(
                    "plan-consistency",
                    f"{client_id} subscribed to {channel} but holds no server",
                )
            )
            continue
        dead_held = held - live
        if dead_held:
            violations.append(
                Violation(
                    "plan-consistency",
                    f"{client_id} still holds {channel} on dead/removed "
                    f"server(s) {sorted(dead_held)}",
                )
            )
            continue
        known = client.known_mapping(channel)
        if known is not None and known.version > 0:
            if not known.same_assignment(mapping):
                violations.append(
                    Violation(
                        "plan-consistency",
                        f"{client_id}'s entry for {channel} "
                        f"({known.mode.value} v{known.version} on "
                        f"{sorted(known.servers)}) diverges from the "
                        f"balancer's ({mapping.mode.value} v{mapping.version} "
                        f"on {sorted(mapping.servers)})",
                    )
                )
                continue
        if plan.explicit_mapping(channel) is not None:
            if not mapping.is_valid_subscription_set(held):
                violations.append(
                    Violation(
                        "plan-consistency",
                        f"{client_id} holds {channel} on {sorted(held)}, not a "
                        f"valid {mapping.mode.value} subscription set of "
                        f"{sorted(mapping.servers)}",
                    )
                )
        else:
            # CH fallback: exactly one live server; without any crash the
            # ring determines it exactly.
            if len(held) != 1:
                violations.append(
                    Violation(
                        "plan-consistency",
                        f"{client_id} holds CH-fallback channel {channel} on "
                        f"{len(held)} servers {sorted(held)}",
                    )
                )
            elif not result.fault_timeline and held != {plan.ring.lookup(channel)}:
                violations.append(
                    Violation(
                        "plan-consistency",
                        f"{client_id} holds CH-fallback channel {channel} on "
                        f"{sorted(held)} instead of ring home "
                        f"{plan.ring.lookup(channel)}",
                    )
                )
    return violations


# ----------------------------------------------------------------------
# O5: replication-scheme soundness (Algorithm 1)
# ----------------------------------------------------------------------
def oracle_replication_soundness(result: RunResult) -> List[Violation]:
    """Replication never activates below Algorithm 1's thresholds and
    never exceeds the configured server cap, across every pushed plan.

    The threshold rule is Algorithm 1's contract, so it is only asserted
    against policies that claim it (``algorithm1_replication``); the
    replication-server cap is universal.
    """
    violations: List[Violation] = []
    scenario = result.scenario
    config = result.cluster.config
    follows_algorithm1 = policy_class(
        config.rebalance_policy
    ).algorithm1_replication
    # Conservative upper bound on the scenario's aggregate publication
    # rate (flash crowds quarter the interval; jitter floor is 0.8x).
    max_pub_rate = scenario.publishers / (scenario.publish_interval_s * 0.8)
    if scenario.flash_crowd_at_s > 0.0:
        max_pub_rate *= 4.0
    below_thresholds = follows_algorithm1 and (
        max_pub_rate < config.publication_threshold
        and scenario.subscribers < config.subscriber_threshold
    )
    for t, plan in result.plan_history:
        for channel in plan.explicit_channels():
            mapping = plan.explicit_mapping(channel)
            if len(mapping.servers) > config.max_replication_servers:
                violations.append(
                    Violation(
                        "replication-soundness",
                        f"plan v{plan.version} replicates {channel} on "
                        f"{len(mapping.servers)} servers "
                        f"(cap {config.max_replication_servers})",
                        t=t,
                    )
                )
            if below_thresholds and mapping.mode is not ReplicationMode.SINGLE:
                violations.append(
                    Violation(
                        "replication-soundness",
                        f"plan v{plan.version} put {channel} in "
                        f"{mapping.mode.value} although the workload is below "
                        f"Algorithm 1's activation thresholds "
                        f"(max pub rate {max_pub_rate:.0f}/s < "
                        f"{config.publication_threshold:.0f}, "
                        f"{scenario.subscribers} subs < "
                        f"{config.subscriber_threshold:.0f})",
                        t=t,
                    )
                )
    return violations


# ----------------------------------------------------------------------
# O6: consistent-hashing ring load bounds and exclusion determinism
# ----------------------------------------------------------------------
def oracle_ring_bounds(result: RunResult) -> List[Violation]:
    violations: List[Violation] = []
    ring = result.cluster.plan.ring
    servers = list(ring.servers)
    if len(servers) < 2:
        return violations
    probe_count = 64 * len(servers)
    counts = Counter(
        ring.lookup(f"check-ring:{i}") for i in range(probe_count)
    )
    average = probe_count / len(servers)
    heaviest, load = counts.most_common(1)[0]
    if load > 2.5 * average + 4:
        violations.append(
            Violation(
                "ring-bounds",
                f"CH fallback ring is skewed: {heaviest} got {load} of "
                f"{probe_count} channels (average {average:.1f})",
            )
        )
    for i in range(16):
        channel = f"check-ring:{i}"
        home = ring.lookup(channel)
        alt = ring.lookup(channel, exclude=(home,))
        if alt == home or alt not in servers:
            violations.append(
                Violation(
                    "ring-bounds",
                    f"exclusion walk for {channel} returned {alt} "
                    f"(home {home})",
                )
            )
        elif ring.lookup(channel, exclude=(home,)) != alt:
            violations.append(
                Violation(
                    "ring-bounds",
                    f"exclusion walk for {channel} is nondeterministic",
                )
            )
    return violations


# ----------------------------------------------------------------------
# O7: gap-free sequenced delivery (reliable tiers)
# ----------------------------------------------------------------------
def oracle_gap_free(result: RunResult) -> List[Violation]:
    """Under a reliable tier, every *interior* sequence hole gets repaired.

    Per (client, broker, boot epoch, channel) stream: if the client
    delivered seq ``a`` and later delivered some seq ``b > a + 1``, it
    demonstrably noticed the hole ``(a, b)`` -- the reliable tier must
    have filled it via replay by the end of the run.  Tail holes (nothing
    delivered past them) are unobservable to the client and not asserted.

    A hole is excused only when repair was legitimately impossible:

    * the broker truthfully reported it unrecoverable (cache eviction,
      a ``gap_unrecoverable`` trace event covering those seqs);
    * the broker crashed once the hole was noticed (replay source gone);
    * the client's subscription lapsed across the hole (mid-stream
      rejoin adopts the current seq rather than chasing history);
    * the hole was first noticed within :data:`GAP_SETTLE_GRACE_S` of
      the horizon (the repair round trips had no time to land).

    Deliberately *not* excused: fault turbulence.  Repairing the gaps
    that faults tear open is the reliable tier's entire job, and this is
    what lets the oracle catch a disabled replay path.
    """
    scenario = result.scenario
    if scenario.delivery_tier == "at_most_once":
        return []
    violations: List[Violation] = []
    ledger = result.ledger
    horizon = scenario.horizon_s

    crash_times: Dict[str, List[float]] = {}
    for event in result.tracer.events_of(ServerCrashEvent):
        crash_times.setdefault(event.server, []).append(event.t)
    #: (client, server, epoch, channel) -> seqs reported evicted through
    evicted_through: Dict[Tuple[str, str, int, str], int] = {}
    for event in result.tracer.events_of(ReplayGapEvent):
        key = (event.client, event.server, event.epoch, event.channel)
        evicted_through[key] = max(evicted_through.get(key, 0), event.to_seq)

    streams: Dict[Tuple[str, str, int, str], Dict[int, float]] = {}
    for t, client, server, channel, epoch, seq in ledger.seq_observations:
        key = (client, server, epoch, channel)
        first_t = streams.setdefault(key, {})
        if seq not in first_t:
            first_t[seq] = t

    for key in sorted(streams):
        client, server, epoch, channel = key
        first_t = streams[key]
        seqs = sorted(first_t)
        floor = evicted_through.get(key, 0)
        for prev, nxt in zip(seqs, seqs[1:]):
            if nxt == prev + 1:
                continue
            if nxt - 1 <= floor:
                continue  # broker reported these seqs evicted
            # When did the client first see past the hole?
            t_known = min(t for s, t in first_t.items() if s > prev)
            if t_known > horizon - GAP_SETTLE_GRACE_S:
                continue
            if any(t >= t_known - 1.0 for t in crash_times.get(server, ())):
                continue  # replay source died
            if not ledger.covers(client, channel, first_t[prev], t_known):
                continue  # subscription lapsed across the hole
            violations.append(
                Violation(
                    "gap-free",
                    f"{client} delivered seq {prev} then {nxt} from "
                    f"{server} (epoch {epoch}) on {channel} but seqs "
                    f"{prev + 1}..{nxt - 1} were never replayed "
                    f"({scenario.delivery_tier} tier)",
                    t=t_known,
                )
            )
    return violations


# ----------------------------------------------------------------------
# O8: causal order per channel (causal mode)
# ----------------------------------------------------------------------
def oracle_causal_order(result: RunResult) -> List[Violation]:
    """With causal mode on, app-level delivery never inverts causality.

    Per (client, channel), two invariants over the delivery sequence:
    sender FIFO (no message from a sender delivered after a later one
    from the same sender) and dependency order (a message is never
    delivered before a dependency that the client *does* eventually
    deliver).  Losses are not violations -- only visible inversions are.

    Excused inversions: the late-arriving side came in via gap replay
    (``replayed`` deliveries recover history, they cannot retroactively
    reorder it), and anything at or after the client's first causal park
    timeout on that channel (the flush deliberately abandons ordering
    and force-advances the delivered vector).
    """
    if not result.scenario.causal_order:
        return []
    violations: List[Violation] = []
    ledger = result.ledger

    flush_t: Dict[Tuple[str, str], float] = {}
    for event in result.tracer.events_of(CausalTimeoutEvent):
        key = (event.client, event.channel)
        flush_t[key] = min(flush_t.get(key, event.t), event.t)

    per_pair: Dict[Tuple[str, str], List] = {}
    for record in ledger.records:
        if record.pub_seq <= 0:
            continue
        per_pair.setdefault((record.client, record.channel), []).append(record)

    for pair in sorted(per_pair):
        client, channel = pair
        cutoff = flush_t.get(pair, float("inf"))
        records = per_pair[pair]
        # First-delivery index per (sender, pub_seq); dups are ignored.
        first_index: Dict[Tuple[str, int], int] = {}
        for i, record in enumerate(records):
            first_index.setdefault((record.sender, record.pub_seq), i)
        #: per sender: delivered pub_seqs sorted, with first index
        by_sender: Dict[str, List[Tuple[int, int]]] = {}
        for (sender, pub_seq), i in first_index.items():
            by_sender.setdefault(sender, []).append((pub_seq, i))
        for entries in by_sender.values():
            entries.sort()

        max_seen: Dict[str, int] = {}
        for i, record in enumerate(records):
            if first_index[(record.sender, record.pub_seq)] != i:
                continue  # duplicate delivery (at-least-once)
            # Sender FIFO inversion.
            prior_max = max_seen.get(record.sender, 0)
            if (
                record.pub_seq < prior_max
                and not record.replayed
                and record.t < cutoff
            ):
                violations.append(
                    Violation(
                        "causal-order",
                        f"{client} delivered {record.sender}'s pub_seq "
                        f"{record.pub_seq} on {channel} after already "
                        f"seeing pub_seq {prior_max} (FIFO inversion)",
                        t=record.t,
                    )
                )
            max_seen[record.sender] = max(prior_max, record.pub_seq)
            # Dependency inversions: a dep delivered *later* than the
            # message that depended on it.
            for dep_sender, dep_seq in record.deps:
                for pub_seq, j in by_sender.get(dep_sender, ()):
                    if pub_seq > dep_seq:
                        break
                    if j <= i:
                        continue
                    late = records[j]
                    if late.replayed or late.t >= cutoff:
                        continue
                    violations.append(
                        Violation(
                            "causal-order",
                            f"{client} delivered {record.sender}'s pub_seq "
                            f"{record.pub_seq} on {channel} before its "
                            f"dependency {dep_sender}:{pub_seq} "
                            f"(delivered later at t={late.t:.3f})",
                            t=record.t,
                        )
                    )
    return violations


#: every oracle, in report order
ORACLES = (
    oracle_loss_free,
    oracle_repair_bridging,
    oracle_at_most_once,
    oracle_plan_consistency,
    oracle_replication_soundness,
    oracle_ring_bounds,
    oracle_gap_free,
    oracle_causal_order,
)


def check_result(result: RunResult) -> List[Violation]:
    """Run every oracle over one finished scenario run."""
    violations: List[Violation] = []
    for oracle in ORACLES:
        violations.extend(oracle(result))
    return violations
