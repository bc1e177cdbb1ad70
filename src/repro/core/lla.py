"""Local Load Analyzer (LLA).

One LLA runs co-located with every pub/sub server (section III-A).  The
broker accumulates per-channel counters inline as publications complete
(loopback observation costs neither NIC bandwidth nor measurable CPU);
the LLA drains that window at each report flush and derives per-interval,
per-channel metrics:

* number of publications and the set of distinct publishers,
* number of deliveries sent and egress bytes attributable to the channel,
* the current subscriber count.

At a fixed interval it ships an aggregate :class:`~repro.core.messages.LoadReport`
to the load balancer, including the node's nominal maximum egress bandwidth
``T_i`` and the measured NIC egress ``M_i`` from which the load ratio
``LR_i = M_i / T_i`` (eq. 1) is derived.
"""

from __future__ import annotations

from typing import Any

from repro.broker.server import PubSubServer
from repro.core.messages import ChannelMetricsSnapshot, LoadReport
from repro.net.link import EgressPort
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sim.actor import Actor
from repro.sim.kernel import Simulator
from repro.sim.timers import PeriodicTask

#: How often each LLA ships its aggregate metrics to the load balancer
#: (the paper's time unit ``t`` is one second).
REPORT_INTERVAL_S = 1.0


class LocalLoadAnalyzer(Actor):
    """Per-node load monitor feeding the central load balancer."""

    def __init__(
        self,
        sim: Simulator,
        server: PubSubServer,
        egress_port: EgressPort,
        balancer_id: str,
        *,
        tracer: Tracer = NULL_TRACER,
    ):
        super().__init__(sim, f"lla@{server.node_id}", is_infra=True)
        self.server = server
        self._port = egress_port
        self._balancer_id = balancer_id
        self._tracer = tracer

        self._window_start = sim.now
        self._bytes_at_window_start = egress_port.total_bytes
        self._cpu_at_window_start = server.cpu_time_total
        self.reports_sent = 0

        # Per-publication accounting happens inline in the broker's
        # publish-completion path (``PubSubServer._channel_stats``); the
        # LLA only drains the accumulated window at each report flush
        # instead of paying an observer callback per publication.
        self._task = PeriodicTask(sim, REPORT_INTERVAL_S, self._report)

    def start(self) -> None:
        self._task.start()

    def stop(self) -> None:
        self._task.stop()

    @property
    def running(self) -> bool:
        """Whether periodic reporting is active (False while stalled)."""
        return self._task.running

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _report(self, now: float) -> None:
        duration = now - self._window_start
        if duration <= 0:
            return
        measured_bytes = self._port.total_bytes - self._bytes_at_window_start

        # Batched window flush: the broker accumulated [publications,
        # publisher set, messages_out, bytes_out] per channel inline; one
        # drain here replaces the per-publication observer callback.  The
        # arithmetic is identical, so reports are byte-for-byte the same.
        window = self.server.drain_channel_stats()
        snapshots = []
        channels = sorted(set(window) | set(self.server.channels()))
        for channel in channels:
            stats = window.get(channel)
            if stats is None:
                publications, publishers, messages_out, bytes_out = 0, (), 0, 0
            else:
                publications, publishers, messages_out, bytes_out = stats
            sub_count = self.server.subscriber_count(channel)
            if publications == 0 and messages_out == 0 and sub_count == 0:
                continue
            snapshots.append(
                ChannelMetricsSnapshot(
                    channel=channel,
                    publications_per_s=publications / duration,
                    publisher_count=len(publishers),
                    subscriber_count=sub_count,
                    messages_out_per_s=messages_out / duration,
                    bytes_out_per_s=bytes_out / duration,
                )
            )

        cpu_seconds = self.server.cpu_time_total - self._cpu_at_window_start
        report = LoadReport(
            server_id=self.server.node_id,
            window_start=self._window_start,
            window_end=now,
            nominal_egress_bps=self.server.config.nominal_egress_bps,
            measured_egress_bps=measured_bytes / duration,
            channels=tuple(snapshots),
            cpu_utilization=cpu_seconds / duration,
        )
        size = LoadReport.WIRE_SIZE + 64 * len(snapshots)
        self.send(self._balancer_id, report, size)
        self.reports_sent += 1
        tracer = self._tracer
        if tracer.enabled:
            metrics = tracer.metrics
            metrics.counter("load_reports_total", server=self.server.node_id).inc()
            metrics.gauge("measured_load_ratio", server=self.server.node_id).set(
                report.load_ratio
            )
            metrics.gauge("cpu_utilization", server=self.server.node_id).set(
                report.cpu_utilization
            )

        self._window_start = now
        self._bytes_at_window_start = self._port.total_bytes
        self._cpu_at_window_start = self.server.cpu_time_total

    def receive(self, message: Any, src_id: str) -> None:  # pragma: no cover
        raise TypeError(f"LLA {self.node_id} does not accept messages")
