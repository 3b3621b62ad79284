"""Compare benchmark records of a parent and a change, refusing mixed environments.

Usage::

    python3 perfbench/compare.py parent-*.json -- change-*.json

Each file is a record written by ``perfbench/run.py --record``.  The
comparison refuses (exit code 2) unless every record shares the same
environment and workload definition (:data:`ENVIRONMENT_KEYS`), so a number
from another machine, interpreter, NumPy, run length, trace mode or workload
setting is never charted beside this one.  For each end-to-end metric it
prints both sides' medians and quartiles and the change of the median
against the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ENVIRONMENT_KEYS = ("cpu_count", "python", "numpy", "platform", "seconds",
                    "traced", "workload", "workload_params")


def environment(record: dict) -> dict:
    return {key: record["provenance"].get(key) for key in ENVIRONMENT_KEYS}


def check_environment(records) -> None:
    """Raise ``ValueError`` naming the first key on which records differ."""
    first = environment(records[0])
    for record in records[1:]:
        other = environment(record)
        for key in ENVIRONMENT_KEYS:
            if other[key] != first[key]:
                raise ValueError(
                    f"records differ in {key}: {first[key]!r} vs {other[key]!r}")


def summary(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv) -> int:
    if "--" not in argv:
        print(__doc__)
        return 2
    split = argv.index("--")
    sides = [[json.loads(Path(p).read_text()) for p in argv[:split]],
             [json.loads(Path(p).read_text()) for p in argv[split + 1:]]]
    if not sides[0] or not sides[1]:
        print("need at least one record on each side")
        return 2
    try:
        check_environment(sides[0] + sides[1])
    except ValueError as exc:
        print("refused:", exc)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = summary([r["metrics"][name] for r in sides[0]])
        change = summary([r["metrics"][name] for r in sides[1]])
        delta = (change[1] - parent[1]) / parent[1] if parent[1] else float("nan")
        worse = delta if metric["better"] == "lower" else -delta
        verdict = "WORSE" if worse > metric["bound"] else "ok"
        print(f"{name:<24} parent {parent[1]:12.6g} [{parent[0]:.6g}, {parent[2]:.6g}]  "
              f"change {change[1]:12.6g} [{change[0]:.6g}, {change[2]:.6g}]  "
              f"{delta:+.3f} {metric['unit']} bound {metric['bound']} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
