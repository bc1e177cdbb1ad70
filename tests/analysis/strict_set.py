"""The strict-typing set, read from pyproject's strict mypy override.

pyproject.toml is the one list: the CI ``mypy`` step and the tier-1
annotation walk both take their paths from here.  Standard library only
(no ``tomllib`` on 3.10, no pytest), so CI can run it bare::

    python -m mypy $(python tests/analysis/strict_set.py)
"""

import re
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parents[2]

#: the override whose ``module`` list is followed by ``ignore_errors = false``
_STRICT_OVERRIDE = re.compile(
    r"^module = \[(?P<modules>[^\]]*)\]\s*^ignore_errors = false", re.M
)


def strict_targets() -> List[str]:
    """Source paths of the strict override's modules, in pyproject order."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = _STRICT_OVERRIDE.search(text)
    if match is None:
        raise ValueError("pyproject.toml: no strict mypy override found")
    targets = []
    for module in re.findall(r'"([^"]+)"', match.group("modules")):
        if module.endswith(".*"):
            targets.append("src/" + module[:-2].replace(".", "/"))
        else:
            targets.append("src/" + module.replace(".", "/") + ".py")
    return targets


if __name__ == "__main__":
    print(" ".join(strict_targets()))
