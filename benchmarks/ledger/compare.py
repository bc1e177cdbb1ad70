"""Compare two ledgers: one row per (end-to-end metric, workload).

    python3 benchmarks/ledger/compare.py a.json b.json

``a`` is the base.  Each row is one of

``worse``       b's median is worse than a's by more than the metric's bound
``better``      better by more than the bound, and the quartile interval of
                the ratio does not span 1.0
``unchanged``   neither
``unresolved``  either side's own spread (IQR / median) is wider than the
                bound, so the bound cannot separate a change from noise

A workload or metric that ``a`` has and ``b`` lacks is ``worse``: a run
that lost one does not compare clean.  Every ratio is b / a, printed with
its base; a ratio whose quartile interval spans 1.0 is printed as no
change, never as a speed-up.  Exits 1 when any row is ``worse``, 2 on
unreadable input.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import END_TO_END  # noqa: E402


def load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        ledger = json.load(handle)
    if not isinstance(ledger, dict) or "workloads" not in ledger:
        raise ValueError(f"{path}: not a ledger (no 'workloads')")
    return ledger


def spread(row: Dict[str, Any]) -> float:
    """Distance between the quartiles as a share of the median."""
    return abs(row["q3"] - row["q1"]) / abs(row["median"]) if row["median"] else 0.0


def judge(base: Dict[str, Any], new: Dict[str, Any], better: str, bound: float) -> Tuple[str, str]:
    """The verdict and the ratio text of one row."""
    if not base["median"]:
        return "unresolved", "base is 0"
    ratio = new["median"] / base["median"]
    low, high = sorted((new["q1"] / base["q3"], new["q3"] / base["q1"])) if (
        base["q1"] and base["q3"]
    ) else (ratio, ratio)
    spans_one = low <= 1.0 <= high and (low, high) != (1.0, 1.0)
    text = f"{ratio:.4f} x base {base['median']:.6g}  [{low:.4f}, {high:.4f}]"
    if spans_one:
        text += "  interval spans 1.0: no change shown"
    worsening = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if max(spread(base), spread(new)) > bound:
        return "unresolved", text
    if worsening > bound:
        return "worse", text
    if worsening < -bound and not spans_one:
        return "better", text
    return "unchanged", text


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Tuple[str, str, str, str]]:
    rows = []
    for workload, base_entry in a["workloads"].items():
        new_entry = b["workloads"].get(workload)
        if new_entry is None:
            rows.append((workload, "(every metric)", "worse", "workload absent from b"))
            continue
        for metric, (unit, better, bound, _only_on) in END_TO_END.items():
            base = base_entry.get("end_to_end", {}).get(metric)
            if base is None:
                continue  # not defined on this workload
            label = f"{metric} ({unit}, {better}, bound {bound:g})"
            new = new_entry.get("end_to_end", {}).get(metric)
            if new is None:
                rows.append((workload, label, "worse", "metric absent from b"))
                continue
            verdict, text = judge(base, new, better, bound)
            rows.append((workload, label, verdict, text))
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    try:
        a, b = load(args[0]), load(args[1])
    except (OSError, ValueError) as error:
        print(f"compare.py: {error}", file=sys.stderr)
        return 2
    rows = compare(a, b)
    for workload, metric, verdict, text in rows:
        print(f"{workload:<15} {metric:<58} {verdict:<11} {text}")
    counts = {v: sum(1 for row in rows if row[2] == v) for v in
              ("better", "unchanged", "worse", "unresolved")}
    print("  ".join(f"{name}: {n}" for name, n in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
