"""Rule registry for the determinism sanitizer.

Rules register here in catalogue order; the engine instantiates each
once per run.  A rule's class docstring is its rationale.
"""

from __future__ import annotations

from typing import Tuple, Type

from repro.analysis.rules.arch001_layering import LayeringRule
from repro.analysis.rules.base import Finding, ImportMap, Rule, RuleContext
from repro.analysis.rules.cfg002_dead_config import DeadConfigFieldRule
from repro.analysis.rules.det001_wallclock import WallClockRule
from repro.analysis.rules.det002_global_rng import GlobalRngRule
from repro.analysis.rules.det003_set_iteration import SetIterationRule
from repro.analysis.rules.det004_blocking_io import BlockingIoRule
from repro.analysis.rules.msg001_protocol import MessageProtocolRule

ALL_RULES: Tuple[Type[Rule], ...] = (
    WallClockRule,
    GlobalRngRule,
    SetIterationRule,
    BlockingIoRule,
    DeadConfigFieldRule,
    MessageProtocolRule,
    LayeringRule,
)

__all__ = [
    "ALL_RULES",
    "Finding",
    "ImportMap",
    "Rule",
    "RuleContext",
]
