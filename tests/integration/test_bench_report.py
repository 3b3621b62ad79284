"""scripts/bench_report.py never charts a workload across environments."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[2] / "scripts" / "bench_report.py"


@pytest.fixture(scope="module")
def report_module():
    spec = importlib.util.spec_from_file_location("bench_report", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(rate, cpu_count=2, quick_mode=False):
    return {
        "cpu_count": cpu_count,
        "quick_mode": quick_mode,
        "results": {"ingest": {"updates_per_s": rate}},
    }


def test_segments_split_where_the_environment_changes(report_module):
    revisions = [
        ("a", "d1", record(100, quick_mode=True)),
        ("b", "d2", record(110, quick_mode=True)),
        ("c", "d3", record(400)),
        ("d", "d4", record(420, cpu_count=4)),
        ("e", "d5", record(430, cpu_count=4)),
    ]
    segments = report_module.environment_segments(revisions)
    assert [[sha for sha, _, _ in segment] for segment in segments] == [
        ["a", "b"], ["c"], ["d", "e"],
    ]


def test_trajectory_prints_the_break_instead_of_a_cross_ratio(
    report_module, monkeypatch
):
    revisions = [
        ("a", "d1", record(100, quick_mode=True)),
        ("b", "d2", record(110, quick_mode=True)),
        ("c", "d3", record(400)),
    ]
    monkeypatch.setattr(report_module, "_history", lambda path: list(revisions))
    lines = report_module.trajectory_table("demo", SCRIPT, revisions[-1][2])
    text = "\n".join(lines)
    assert "environment break at c" in text
    assert "quick_mode=True -> cpu_count=2, quick_mode=False" in text
    assert "1.10x" in text  # a -> b, same environment
    assert "4.00x" not in text  # a -> c would mix quick and full runs
    ratio_rows = [line for line in lines if line.startswith("| ingest")]
    assert ratio_rows == ["| ingest | 100 | 110 | 1.10x |", "| ingest | 400 | - |"]
