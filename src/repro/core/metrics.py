"""Cluster load view: the load balancer's aggregated picture.

The load balancer receives a stream of :class:`~repro.core.messages.LoadReport`
messages from all LLAs.  :class:`ClusterLoadView` keeps a sliding window of
them per server and answers the questions the rebalancing algorithms ask:

* the (window-averaged) load ratio of each server,
* the egress contribution of each channel on each server (what Algorithm 2
  moves between servers),
* per-channel logical totals -- publications/s and subscriber counts
  de-duplicated across replicas -- which Algorithm 1's ratios are built on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.core.messages import LoadReport
from repro.core.plan import ChannelMapping, ReplicationMode


@dataclass(frozen=True)
class ChannelLoad:
    """Window-averaged load of one channel on one server."""

    publications_per_s: float
    publisher_count: int
    subscriber_count: int
    messages_out_per_s: float
    bytes_out_per_s: float

    @staticmethod
    def zero() -> "ChannelLoad":
        return ChannelLoad(0.0, 0, 0, 0.0, 0.0)


@dataclass(frozen=True)
class ChannelTotals:
    """Logical (replica-deduplicated) totals for one channel."""

    publications_per_s: float
    publisher_count: int
    subscriber_count: int
    bytes_out_per_s: float


class ServerLoadView:
    """Sliding window of one server's load reports."""

    def __init__(self, window_s: float):
        self.window_s = window_s
        self._reports: Deque[LoadReport] = deque()
        self.nominal_egress_bps: float = 0.0
        self.last_report_at: float = 0.0
        #: :meth:`channel_loads` of the current window, until it changes
        self._channel_loads: Optional[Dict[str, ChannelLoad]] = None

    def add(self, report: LoadReport) -> None:
        self._reports.append(report)
        self._channel_loads = None
        self.nominal_egress_bps = report.nominal_egress_bps
        self.last_report_at = report.window_end

    def prune(self, now: float) -> None:
        horizon = now - self.window_s
        reports = self._reports
        while reports and reports[0].window_end < horizon:
            reports.popleft()
            self._channel_loads = None

    @property
    def report_count(self) -> int:
        return len(self._reports)

    def mean_measured_egress_bps(self) -> float:
        """Window-averaged measured egress in bytes/s (0 when no reports)."""
        if not self._reports:
            return 0.0
        total = sum(r.measured_egress_bps for r in self._reports)
        return total / len(self._reports)

    def load_ratio(self) -> float:
        """Window-averaged ``LR_i`` (0 when no reports)."""
        if not self._reports or self.nominal_egress_bps <= 0:
            return 0.0
        return self.mean_measured_egress_bps() / self.nominal_egress_bps

    def cpu_utilization(self) -> float:
        """Window-averaged CPU utilization (0 when no reports)."""
        if not self._reports:
            return 0.0
        return sum(r.cpu_utilization for r in self._reports) / len(self._reports)

    def channel_loads(self) -> Dict[str, ChannelLoad]:
        """Per-channel averages over the window.

        Worked out once per window: the dict is shared by every caller
        until the next :meth:`add` or a :meth:`prune` that drops a report,
        so it must not be modified.
        """
        if self._channel_loads is None:
            self._channel_loads = self._average_channels()
        return self._channel_loads

    def _average_channels(self) -> Dict[str, ChannelLoad]:
        if not self._reports:
            return {}
        n = len(self._reports)
        sums: Dict[str, List[float]] = {}
        latest_subs: Dict[str, int] = {}
        latest_publishers: Dict[str, int] = {}
        for report in self._reports:
            for snap in report.channels:
                entry = sums.setdefault(snap.channel, [0.0, 0.0, 0.0])
                entry[0] += snap.publications_per_s
                entry[1] += snap.messages_out_per_s
                entry[2] += snap.bytes_out_per_s
                latest_subs[snap.channel] = snap.subscriber_count
                latest_publishers[snap.channel] = max(
                    latest_publishers.get(snap.channel, 0), snap.publisher_count
                )
        return {
            channel: ChannelLoad(
                publications_per_s=entry[0] / n,
                publisher_count=latest_publishers[channel],
                subscriber_count=latest_subs[channel],
                messages_out_per_s=entry[1] / n,
                bytes_out_per_s=entry[2] / n,
            )
            for channel, entry in sums.items()
        }


class ClusterLoadView:
    """All servers' windows plus cross-server aggregation."""

    def __init__(self, window_s: float):
        self.window_s = window_s
        self._servers: Dict[str, ServerLoadView] = {}

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def add_report(self, report: LoadReport) -> None:
        view = self._servers.get(report.server_id)
        if view is None:
            view = ServerLoadView(self.window_s)
            self._servers[report.server_id] = view
        view.add(report)

    def prune(self, now: float) -> None:
        for view in self._servers.values():
            view.prune(now)

    def forget_server(self, server_id: str) -> None:
        self._servers.pop(server_id, None)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def servers(self) -> List[str]:
        return list(self._servers)

    def has_report(self, server_id: str) -> bool:
        view = self._servers.get(server_id)
        return view is not None and view.report_count > 0

    def load_ratio(self, server_id: str) -> float:
        view = self._servers.get(server_id)
        return view.load_ratio() if view is not None else 0.0

    def average_load_ratio(self, server_ids: Iterable[str]) -> float:
        ids = list(server_ids)
        if not ids:
            return 0.0
        return sum(self.load_ratio(s) for s in ids) / len(ids)

    def nominal_egress_bps(self, server_id: str) -> float:
        view = self._servers.get(server_id)
        return view.nominal_egress_bps if view is not None else 0.0

    def cpu_utilization(self, server_id: str) -> float:
        view = self._servers.get(server_id)
        return view.cpu_utilization() if view is not None else 0.0

    def channel_loads(self, server_id: str) -> Dict[str, ChannelLoad]:
        view = self._servers.get(server_id)
        return view.channel_loads() if view is not None else {}

    def channel_totals(
        self, channel: str, mapping: ChannelMapping
    ) -> Optional[ChannelTotals]:
        """Logical totals for ``channel``, de-duplicated per the mapping.

        Under *all-subscribers*, each publication hits one replica (sum)
        while every subscriber is connected to all replicas (max).  Under
        *all-publishers* it is the reverse.  Returns ``None`` when no
        server reported the channel.

        All reporting servers are consulted -- not only the mapping's --
        because during reconfiguration windows (and under consistent-
        hashing fallback mismatches) a channel's traffic is observed on
        servers the current plan no longer names.
        """
        per_server: List[Tuple[float, int, int, float]] = []
        for server_id in self._servers:
            load = self.channel_loads(server_id).get(channel)
            if load is not None:
                per_server.append(
                    (
                        load.publications_per_s,
                        load.publisher_count,
                        load.subscriber_count,
                        load.bytes_out_per_s,
                    )
                )
        if not per_server:
            return None
        pubs = [p for p, __, __, __ in per_server]
        publishers = [n for __, n, __, __ in per_server]
        subs = [s for __, __, s, __ in per_server]
        out = sum(b for __, __, __, b in per_server)
        if mapping.mode is ReplicationMode.ALL_SUBSCRIBERS:
            return ChannelTotals(sum(pubs), sum(publishers), max(subs), out)
        if mapping.mode is ReplicationMode.ALL_PUBLISHERS:
            return ChannelTotals(max(pubs), max(publishers), sum(subs), out)
        return ChannelTotals(sum(pubs), sum(publishers), sum(subs), out)
