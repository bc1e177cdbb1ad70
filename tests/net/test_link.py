"""Unit tests for the NIC clock: the FIFO queue clock the transport
advances on the sender's egress port, and the port's byte totals."""

import pytest

from repro.net.link import EgressPort
from tests.helpers import SenderNic


class TestEgressPort:
    def test_unlimited_port_completes_instantly(self):
        nic = SenderNic(None)
        assert nic.send_at(5.0, 10_000) == 5.0
        assert nic.port.queued_delay(5.0) == 0.0

    def test_transmission_time_is_size_over_capacity(self):
        nic = SenderNic(1000.0)
        completion = nic.send_at(0.0, 500)
        assert completion == pytest.approx(0.5)

    def test_fifo_backlog_accumulates(self):
        nic = SenderNic(1000.0)
        first = nic.send_at(0.0, 1000)
        second = nic.send_at(0.0, 1000)
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(2.0)
        assert nic.port.queued_delay(0.0) == pytest.approx(2.0)

    def test_idle_port_starts_fresh(self):
        nic = SenderNic(1000.0)
        nic.send_at(0.0, 100)
        completion = nic.send_at(10.0, 100)
        assert completion == pytest.approx(10.1)

    def test_byte_accounting(self):
        nic = SenderNic(1000.0)
        nic.send_at(0.0, 300)
        nic.send_at(0.0, 200)
        assert nic.port.total_bytes == 500
        assert nic.port.total_messages == 2

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            EgressPort(0.0)

    def test_negative_size_rejected(self):
        nic = SenderNic(1000.0)
        with pytest.raises(ValueError):
            nic.send_at(0.0, -1)
        with pytest.raises(ValueError):
            nic.net.send_fanout("src", ["sink"], [None], "x", -1, start=0.0)
        assert (nic.port.total_messages, nic.port.busy_until) == (0, 0.0)

    def test_sustained_rate_equals_capacity(self):
        """Offered load above capacity drains at exactly the capacity."""
        nic = SenderNic(1000.0)
        for i in range(100):
            nic.send_at(i * 0.05, 100)  # offered: 2000 B/s
        # 10000 bytes at 1000 B/s -> last completion at ~10s
        assert nic.port.busy_until == pytest.approx(10.0)
