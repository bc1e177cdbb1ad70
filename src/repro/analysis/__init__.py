"""Determinism sanitizer: static analysis that proves simulation safety.

Every guarantee this reproduction makes -- loss-free reconfiguration
oracles (``repro.check``), byte-identical chaos replays (``repro.faults``)
and the perf ledger's exact counts -- rests on the simulator being *perfectly
deterministic*.  Nothing at runtime stops a change from introducing a
``time.time()`` call, a module-level ``random.*`` draw, or iteration over
an unordered ``set`` on a fan-out path; such a change breaks replay
silently and only surfaces as a flaky check-soak failure days later.

This package is the build-time enforcement of that property: a standalone
AST lint engine with codebase-specific rules, runnable as::

    python -m repro.analysis check src tests examples

Rules (each rule's class docstring under ``rules/`` is its rationale):

========  ===========================================================
DET001    no wall-clock reads anywhere (no path is exempt)
DET002    no module-level ``random.*`` calls (seeded streams only)
DET003    no iteration over unordered sets on hot paths
DET004    no blocking I/O inside simulation modules
CFG002    every config dataclass field is read somewhere
MSG001    actor ``receive`` dispatch covers the message routing table
ARCH001   module-level imports follow the declared layer DAG
========  ===========================================================

The engine honours ``# repro: allow[RULE]`` inline suppressions (the one
escape hatch) and emits ruff-style ``path:line:col: RULE message``
diagnostics (``--format=json`` for CI artifacts).  Its settings are
module constants beside the code that reads them.  It self-hosts: the
repository must check clean at every merge.
"""

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.engine import AnalysisEngine
from repro.analysis.project import ProjectFacts, collect_facts
from repro.analysis.rules import ALL_RULES

__all__ = [
    "ALL_RULES",
    "AnalysisEngine",
    "Diagnostic",
    "ProjectFacts",
    "collect_facts",
]
