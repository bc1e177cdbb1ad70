"""Unit tests for egress ports: the FIFO queue clock and the byte totals."""

import pytest

from repro.net.link import EgressPort


class TestEgressPort:
    def test_unlimited_port_completes_instantly(self):
        port = EgressPort(None)
        assert port.transmit(5.0, 10_000) == 5.0
        assert port.queued_delay(5.0) == 0.0

    def test_transmission_time_is_size_over_capacity(self):
        port = EgressPort(1000.0)
        completion = port.transmit(0.0, 500)
        assert completion == pytest.approx(0.5)

    def test_fifo_backlog_accumulates(self):
        port = EgressPort(1000.0)
        first = port.transmit(0.0, 1000)
        second = port.transmit(0.0, 1000)
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(2.0)
        assert port.queued_delay(0.0) == pytest.approx(2.0)

    def test_idle_port_starts_fresh(self):
        port = EgressPort(1000.0)
        port.transmit(0.0, 100)
        completion = port.transmit(10.0, 100)
        assert completion == pytest.approx(10.1)

    def test_byte_accounting(self):
        port = EgressPort(1000.0)
        port.transmit(0.0, 300)
        port.transmit(0.0, 200)
        assert port.total_bytes == 500
        assert port.total_messages == 2

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            EgressPort(0.0)

    def test_negative_size_rejected(self):
        port = EgressPort(1000.0)
        with pytest.raises(ValueError):
            port.transmit(0.0, -1)

    def test_sustained_rate_equals_capacity(self):
        """Offered load above capacity drains at exactly the capacity."""
        port = EgressPort(1000.0)
        for i in range(100):
            port.transmit(i * 0.05, 100)  # offered: 2000 B/s
        # 10000 bytes at 1000 B/s -> last completion at ~10s
        assert port.busy_until == pytest.approx(10.0)
