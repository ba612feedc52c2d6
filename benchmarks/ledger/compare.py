"""Compare two sets of ledger results: ``compare.py A B``.

``A`` (the base) and ``B`` are directories of ``BENCH_e2e.json`` files —
one per invocation of the whole ledger, at least five each.  For every
(workload, end-to-end metric) the table shows both medians with their
quartiles, the ratio B/A (base: A's median), the metric's bound and a
verdict:

``ok``
    B's median is not worse than A's by more than the bound.
``worse``
    it is — the command exits 1.
``unresolved``
    the run-to-run spread (the wider interquartile range of the two
    sets, as a share of A's median) exceeds the bound, so the runs
    cannot tell; this is neither a pass nor a regression.

Two sets of the *same* commit are the A/A check of the benchmark
itself; parent vs. change is the regression gate.  The three ratio
metrics use absolute rules (``spec.ABSOLUTE_BOUNDS``): ``slo_miss_ratio``
may rise by 0.01, ``failed_ratio`` and ``stored_bytes_ratio`` not at all.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional

_ROOT = Path(__file__).resolve().parents[2]
if str(_ROOT) not in sys.path:  # script use: python benchmarks/ledger/compare.py
    sys.path.insert(0, str(_ROOT))

from benchmarks.ledger import spec  # noqa: E402

#: Reports a result set must hold: quartiles of fewer say nothing.
MIN_INVOCATIONS = 5


def load_set(path: Path) -> List[dict]:
    """Every ledger report under ``path`` (a directory or one file)."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    reports = []
    for file in files:
        with open(file, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if isinstance(data, dict) and "workloads" in data:
            reports.append(data)
    return reports


def values_of(reports: List[dict], workload: str,
              metric: str) -> List[float]:
    values = []
    for report in reports:
        row = report["workloads"].get(workload, {}).get(
            "end_to_end", {}).get(metric)
        if row is not None and row["value"] is not None:
            values.append(row["value"])
    return values


def quartiles(values: List[float]):
    """(q1, median, q3) the way the driver takes them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric: spec.Metric, a: List[float], b: List[float]) -> dict:
    q1_a, med_a, q3_a = quartiles(a)
    q1_b, med_b, q3_b = quartiles(b)
    sign = 1.0 if metric.better == "lower" else -1.0
    worsening = sign * (med_b - med_a)
    spread = max(q3_a - q1_a, q3_b - q1_b)
    if metric.bound is None:
        bound = spec.ABSOLUTE_BOUNDS[metric.name]
        shown_bound = f"+{bound:g} abs"
    else:
        bound = metric.bound
        shown_bound = f"{bound:.0%}"
        worsening = worsening / med_a if med_a else 0.0
        spread = spread / med_a if med_a else 0.0
    if spread > bound:
        outcome = "unresolved"
    elif worsening > bound:
        outcome = "worse"
    else:
        outcome = "ok"
    return {
        "a": (q1_a, med_a, q3_a), "b": (q1_b, med_b, q3_b),
        "ratio": med_b / med_a if med_a else float("nan"),
        "bound": shown_bound, "spread": spread, "verdict": outcome,
    }


def compare(a: List[dict], b: List[dict]) -> List[dict]:
    rows = []
    for workload in spec.WORKLOAD_NAMES:
        for metric in spec.END_TO_END:
            values_a = values_of(a, workload, metric.name)
            values_b = values_of(b, workload, metric.name)
            if not values_a or not values_b:
                continue  # not applicable to this workload
            row = verdict(metric, values_a, values_b)
            row.update(workload=workload, metric=metric.name,
                       unit=metric.unit)
            rows.append(row)
    return rows


def render(rows: List[dict]) -> str:
    def triple(values) -> str:
        q1, median, q3 = values
        return f"{median:11.5g} [{q1:.5g}, {q3:.5g}]"

    lines = [
        f"{'workload':<19}{'metric':<20}{'A median [q1, q3]':<36}"
        f"{'B median [q1, q3]':<36}{'B/A':>7}  {'bound':<10}verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<19}{row['metric']:<20}"
            f"{triple(row['a']):<36}{triple(row['b']):<36}"
            f"{row['ratio']:7.3f}  {row['bound']:<10}{row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="compare.py", description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("a", type=Path, help="base result set")
    parser.add_argument("b", type=Path, help="result set to judge")
    arguments = parser.parse_args(argv)
    sets: Dict[str, List[dict]] = {}
    for label, path in (("A", arguments.a), ("B", arguments.b)):
        sets[label] = load_set(path)
        if len(sets[label]) < MIN_INVOCATIONS:
            print(f"error: set {label} ({path}) holds "
                  f"{len(sets[label])} reports, need at least "
                  f"{MIN_INVOCATIONS}", file=sys.stderr)
            return 2
    rows = compare(sets["A"], sets["B"])
    print(render(rows))
    counts = {
        outcome: sum(1 for row in rows if row["verdict"] == outcome)
        for outcome in ("ok", "worse", "unresolved")
    }
    print(f"{counts['ok']} ok, {counts['worse']} worse, "
          f"{counts['unresolved']} unresolved "
          f"(base: A = {arguments.a}, {len(sets['A'])} invocations; "
          f"B = {arguments.b}, {len(sets['B'])} invocations)")
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
