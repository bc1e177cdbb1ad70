"""Every example still imports: nothing else in tier-1 or CI touches
``examples/``, so a renamed harness name would otherwise go unnoticed."""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports(path):
    namespace = runpy.run_path(str(path), run_name="examples")  # main() not called
    assert callable(namespace["main"])
