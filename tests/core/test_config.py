"""Unit tests for DynamothConfig validation."""

import pytest

from repro.core.config import DynamothConfig


class TestDynamothConfig:
    def test_defaults_valid(self):
        DynamothConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lr_safe": 1.2, "lr_high": 1.0},        # safe above high
            {"lr_safe": 0.0},
            {"lr_low": 0.9, "lr_low_target": 0.5},    # low above target
            {"lr_low_target": 0.99, "lr_high": 0.95}, # target above high
            {"t_wait_s": -1},
            {"spawn_delay_s": -1},
            {"client_ping_interval_s": 0},
            {"failed_server_ttl_s": 0},
            {"load_window_s": 0.5},                   # shorter than one LLA report
            {"all_subs_threshold": 0},
            {"sla_threshold_s": 0},
            {"rebalance_policy": ""},
            {"min_servers": 0},
            {"min_servers": 9, "max_servers": 8},
            {"plan_entry_timeout_s": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DynamothConfig(**kwargs)

    def test_paperlike_thresholds_accepted(self):
        config = DynamothConfig(lr_high=0.95, lr_safe=0.8, lr_low=0.4)
        assert config.lr_high == 0.95
