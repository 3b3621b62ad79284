"""Aggregate ``benchmarks/results/BENCH_*.json`` into one markdown report.

Each bench suite writes a machine-readable ``BENCH_<name>.json`` and each PR
re-runs some of them, so the perf history lives scattered across files and
git revisions.  This script folds it back together:

* a **current snapshot** table per suite — workload, primary throughput
  metric, and any speedup ratios the suite recorded;
* a **trajectory** table — workload x commit, the primary metric of every
  git revision that touched the suite's JSON (oldest to newest), plus the
  latest/oldest ratio.  On a shallow CI checkout the trajectory degrades
  to the current column alone rather than failing.  Revisions recorded
  in different environments (``cpu_count`` or ``quick_mode`` differ) are
  never charted together: the trajectory breaks there, the break is
  printed, and each run of same-environment revisions gets its own table.

Run from the repo root::

    python scripts/bench_report.py [--output benchmarks/results/BENCH_REPORT.md]

Prints the report to stdout and, with ``--output``, also writes it to a
file (CI uploads that as an artifact).  Exits non-zero only when no
``BENCH_*.json`` exists at all.
"""

import argparse
import json
import pathlib
import subprocess
import sys

RESULTS_DIR = pathlib.Path("benchmarks/results")

# a BENCH record's environment: numbers are comparable only within one
ENVIRONMENT_KEYS = ("cpu_count", "quick_mode")

# the headline number of a workload row, first match wins
PRIMARY_METRIC_KEYS = (
    "updates_per_s",
    "batch_updates_per_s",
    "enabled_updates_per_s",
    "events_per_s",
    "ingest_items_per_s",
    "queries_per_s",
)


def _fmt(value):
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:,.2f}" if abs(value) < 100 else f"{value:,.0f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def _workloads(doc: dict) -> dict:
    """The ``workload -> {metric: value}`` rows of one BENCH document.

    Most suites nest them under ``results``; flat documents (e.g. the
    tenancy soak) become a single pseudo-workload from their top-level
    numeric scalars.
    """
    results = doc.get("results")
    if isinstance(results, dict) and all(
        isinstance(v, dict) for v in results.values()
    ):
        return results
    flat = {
        k: v
        for k, v in doc.items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    }
    return {"(suite)": flat} if flat else {}


def _primary(metrics: dict):
    """(metric_name, value) headline for one workload row."""
    for key in PRIMARY_METRIC_KEYS:
        if key in metrics:
            return key, metrics[key]
    for key, value in metrics.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return key, value
    return None, None


def _speedups(metrics: dict) -> str:
    parts = [
        f"{k}={_fmt(v)}"
        for k, v in metrics.items()
        if ("speedup" in k or k.endswith("_over_disabled"))
        and isinstance(v, (int, float))
    ]
    return ", ".join(parts) or "-"


def _history(path: pathlib.Path):
    """[(short_sha, date, doc)] for every commit touching ``path``, oldest first.

    Empty on shallow clones, outside a work tree, or for uncommitted files —
    the caller then reports the working-tree snapshot alone.
    """
    try:
        log = subprocess.run(
            ["git", "log", "--follow", "--format=%h %ad", "--date=short",
             "--", str(path)],
            check=True, capture_output=True, text=True,
        ).stdout
    except (subprocess.CalledProcessError, OSError):
        return []
    revisions = []
    for line in reversed(log.splitlines()):
        sha, _, date = line.partition(" ")
        try:
            blob = subprocess.run(
                ["git", "show", f"{sha}:{path.as_posix()}"],
                check=True, capture_output=True, text=True,
            ).stdout
            revisions.append((sha, date, json.loads(blob)))
        except (subprocess.CalledProcessError, OSError, ValueError):
            continue  # file absent or unparsable at that revision
    return revisions


def snapshot_table(name: str, doc: dict) -> list:
    lines = [f"### {name} (current)", ""]
    context = ", ".join(
        f"{k}={_fmt(v)}"
        for k, v in doc.items()
        if k != "results" and isinstance(v, (int, float, bool, str))
    )
    if context:
        lines += [f"_{context}_", ""]
    lines += [
        "| workload | metric | value | speedups |",
        "|---|---|---:|---|",
    ]
    for workload, metrics in _workloads(doc).items():
        metric, value = _primary(metrics)
        lines.append(
            f"| {workload} | {metric or '-'} | "
            f"{_fmt(value) if value is not None else '-'} | "
            f"{_speedups(metrics)} |"
        )
    lines.append("")
    return lines


def _environment(doc: dict) -> tuple:
    return tuple((key, doc.get(key)) for key in ENVIRONMENT_KEYS)


def _describe(environment: tuple) -> str:
    return ", ".join(f"{key}={value}" for key, value in environment)


def environment_segments(revisions: list) -> list:
    """Split ``[(sha, date, doc)]`` into runs recorded in one environment."""
    segments = []
    for revision in revisions:
        if segments and _environment(segments[-1][-1][2]) == _environment(revision[2]):
            segments[-1].append(revision)
        else:
            segments.append([revision])
    return segments


def _segment_table(revisions: list) -> list:
    columns = [f"{sha} ({date})" for sha, date, _ in revisions]
    workloads = []  # ordered union across revisions
    for _, _, doc in revisions:
        for workload in _workloads(doc):
            if workload not in workloads:
                workloads.append(workload)
    lines = [
        "| workload | " + " | ".join(columns) + " | latest/oldest |",
        "|---|" + "---:|" * (len(columns) + 1),
    ]
    for workload in workloads:
        cells, values = [], []
        for _, _, doc in revisions:
            metrics = _workloads(doc).get(workload)
            _, value = _primary(metrics) if metrics else (None, None)
            cells.append(_fmt(value) if value is not None else "-")
            if isinstance(value, (int, float)):
                values.append(value)
        ratio = (
            f"{values[-1] / values[0]:.2f}x"
            if len(values) >= 2 and values[0]
            else "-"
        )
        lines.append(f"| {workload} | " + " | ".join(cells) + f" | {ratio} |")
    return lines


def trajectory_table(name: str, path: pathlib.Path, current: dict) -> list:
    revisions = _history(path)
    if not revisions:
        return [
            f"### {name} (trajectory)", "",
            "_no git history available (shallow clone or uncommitted "
            "results) — see the current snapshot above_", "",
        ]
    if json.dumps(revisions[-1][2], sort_keys=True) != json.dumps(
        current, sort_keys=True
    ):
        revisions.append(("worktree", "now", current))
    lines = [f"### {name} (trajectory)", ""]
    segments = environment_segments(revisions)
    for previous, segment in zip([None] + segments, segments):
        environment = _describe(_environment(segment[0][2]))
        if previous is not None:
            lines += [
                f"_environment break at {segment[0][0]}: "
                f"{_describe(_environment(previous[0][2]))} -> {environment}; "
                "not charted across_", "",
            ]
        lines += [f"_{environment}_", ""] + _segment_table(segment) + [""]
    return lines


def build_report(results_dir: pathlib.Path) -> str:
    paths = sorted(results_dir.glob("BENCH_*.json"))
    if not paths:
        raise FileNotFoundError(f"no BENCH_*.json under {results_dir}")
    lines = ["# Benchmark trajectory report", ""]
    for path in paths:
        name = path.stem.replace("BENCH_", "")
        try:
            doc = json.loads(path.read_text())
        except ValueError as exc:
            lines += [f"### {name}", "", f"_unparsable: {exc}_", ""]
            continue
        lines += snapshot_table(name, doc)
        lines += trajectory_table(name, path, doc)
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results-dir", type=pathlib.Path, default=RESULTS_DIR
    )
    parser.add_argument("--output", type=pathlib.Path, default=None)
    args = parser.parse_args()
    try:
        report = build_report(args.results_dir)
    except FileNotFoundError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    print(report)
    if args.output:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(report + "\n")
        print(f"\nwrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
