"""Strict-typing gate: mypy must pass on the strict module set.

The pyproject ladder keeps legacy modules at ``ignore_errors`` while the
strict override's modules carry full strict flags; :mod:`strict_set`
reads that override, so this gate, CI and pyproject name one set.
mypy is an optional tool (this repository takes no runtime third-party
dependencies), so the gate skips where it is not installed -- CI installs
it in the ``analysis`` job, which is where the gate is binding.  What
needs no tool is checked everywhere: an ``ast`` walk holds every ``def`` in
the strict set to complete annotations, the precondition
``disallow_untyped_defs`` / ``disallow_incomplete_defs`` would enforce.
"""

import ast
import importlib.util
import os
import subprocess
import sys

import pytest

from tests.analysis.strict_set import ROOT, strict_targets

STRICT_TARGETS = strict_targets()


@pytest.mark.skipif(
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


def test_strict_set_is_completely_annotated():
    unannotated = []
    for target in STRICT_TARGETS:
        path = ROOT / target
        for source in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                params += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
                bare = [p.arg for p in params if p.annotation is None and p.arg not in ("self", "cls")]
                if bare or node.returns is None:
                    where = f"{source.relative_to(ROOT)}:{node.lineno} {node.name}"
                    unannotated.append(f"{where}: {', '.join(bare) or 'return'}")
    assert not unannotated, "\n".join(unannotated)


def test_strict_set_names_existing_sources():
    """A module renamed away from under pyproject would silently drop out
    of both gates."""
    assert "src/repro/core/stragglers.py" in STRICT_TARGETS
    assert [t for t in STRICT_TARGETS if not (ROOT / t).exists()] == []
