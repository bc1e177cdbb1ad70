"""Strict-typing gate: mypy must pass on the strict module set.

The pyproject ladder keeps legacy modules at ``ignore_errors`` while
``repro.sim.*``, ``repro.net.*``, ``repro.core.messages``,
``repro.core.plan``, ``repro.core.reliability``, ``repro.obs.trace`` and
``repro.obs.sla`` carry full strict flags.
mypy is an optional tool (this repository takes no runtime third-party
dependencies), so the gate skips where it is not installed -- CI installs
it in the ``analysis`` job, which is where the gate is binding.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

STRICT_TARGETS = [
    "src/repro/sim",
    "src/repro/net",
    "src/repro/core/messages.py",
    "src/repro/core/plan.py",
    "src/repro/core/reliability.py",
    "src/repro/obs/trace.py",
    "src/repro/obs/sla.py",
]

pytestmark = pytest.mark.skipif(
    importlib.util.find_spec("mypy") is None,
    reason="mypy not installed; the CI analysis job enforces this gate",
)


def test_strict_set_typechecks():
    env = dict(os.environ)
    env.pop("MYPYPATH", None)
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", *STRICT_TARGETS],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
