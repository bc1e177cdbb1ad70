"""CFG002 fixture: a config dataclass growing a knob nothing reads."""

from dataclasses import dataclass


@dataclass
class DynamothConfig:
    lr_ceiling: float = 0.8
    unused_knob: int = 3


def tune(config: DynamothConfig) -> float:
    return config.lr_ceiling
