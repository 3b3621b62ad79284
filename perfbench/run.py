"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload attp-elementwise --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload untraced and then traced, and prints every per-layer metric.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are human-readable, including the run's provenance.  ``--record FILE``
also writes the full record (provenance, metrics, checks) as JSON, for
``perfbench/compare.py``.  The exit code is 1 when an answer check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
#: Name -> unit of every end-to-end and per-layer metric.
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
#: Measured untraced but reported per-layer: they do not repeat within a
#: tenth from run to run (design.json).
DEMOTED = ("ingest_call_p50_ms", "query_p50_ms", "visible_lag_p50_ms",
           "ingest_call_tail_ms", "query_tail_ms", "visible_lag_tail_ms",
           "state_bytes")


def source_digest() -> str:
    """SHA-256 over every ``src/**/*.py`` path and content (sorted)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance(args, workload) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "workload": workload.name,
        "workload_params": workload.describe(),
    }


def end_to_end(res: dict) -> tuple:
    reader = res["reader"]
    ms = 1e3
    call_tail, call_q, call_n = bench.tail_quantile(res["call_lat"])
    query_tail, query_q, query_n = bench.tail_quantile(reader["lat"])
    lag_tail, lag_q, lag_n = bench.tail_quantile(reader["lags"])
    metrics = {
        "ingest_items_per_s": res["loop_items"] / res["wall"],
        "ingest_call_p50_ms": bench.median(res["call_lat"]) * ms,
        "ingest_call_tail_ms": call_tail * ms,
        "query_p50_ms": bench.median(reader["lat"]) * ms,
        "query_tail_ms": query_tail * ms,
        "visible_lag_p50_ms": bench.median(reader["lags"]) * ms,
        "visible_lag_tail_ms": lag_tail * ms,
        "setup_s": bench.median(res["setup_times"]),
        "state_bytes": float(res["state_bytes"]),
    }
    tails = {
        "ingest_call_tail_ms": {"percentile": call_q, "samples": call_n},
        "query_tail_ms": {"percentile": query_q, "samples": query_n},
        "visible_lag_tail_ms": {"percentile": lag_q, "samples": lag_n},
    }
    return metrics, tails


def outcome(res: dict) -> dict:
    verdict = res["verdict"]
    checks = list(res["checks"])
    if not verdict.passed():
        checks.append(
            f"bound violations: {verdict.hard_violations} deterministic, "
            f"{verdict.probabilistic_violations} of {verdict.probabilistic} "
            f"probabilistic (allowed "
            f"{bench.oracle.allowed_violations(verdict.probabilistic, verdict.delta)}); "
            f"examples {verdict.examples}"
        )
    if res.get("reopen_mismatches"):
        checks.append(f"{res['reopen_mismatches']} answers changed across reopen")
    return {
        "failed_checks": checks,
        "failed_ops_ratio": res["failed_ops"] / max(res["ops"], 1),
        "bound_violation_ratio": verdict.ratio,
        "audited_answers": verdict.audited,
    }


def per_layer(untraced: dict, traced: dict, bare: dict, audit: dict) -> dict:
    lay = {name: value for name, value in end_to_end(untraced)[0].items()
           if name in DEMOTED}
    lay.update(traced["layers"])
    lay.pop("_stats")
    untraced_rate = untraced["loop_items"] / untraced["wall"]
    traced_rate = traced["loop_items"] / traced["wall"]
    lay.update(bare)
    lay.update({
        "core.memory_bytes": float(traced["state_bytes"]),
        "tenancy.reload_s": traced.get("reload_s", 0.0),
        "durability.reopen_s": traced.get("reopen_s", 0.0),
        "durability.disk_bytes": float(traced.get("disk_bytes", 0)),
        "ladder.service_store_s": traced["wall"] - bare["bare.update_batch_s"],
        "trace.overhead_ratio": untraced_rate / traced_rate,
        "bench.reader_late_ms": bench.median(traced["reader"]["late"]) * 1e3,
        "bench.failed_ops_ratio": audit["failed_ops_ratio"],
        "bench.bound_violation_ratio": audit["bound_violation_ratio"],
        "bench.audited_answers": float(audit["audited_answers"]),
    })
    return lay


def run_once(workload, args, workdir: Path, traced: bool) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    if traced:
        bench.TELEMETRY.enable()
    run = bench.Run(workload, args.seed, args.seconds, workdir, traced)
    try:
        res = run.run()
        if traced:
            res["bare"] = bench.bare_replay(run, res["layers"]["_stats"])
        return res
    finally:
        if run.service is not None:  # no-op unless a run failed midway
            run.service.close(force=True)
        bench.TELEMETRY.disable()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the full record to this JSON file")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    prov = provenance(args, workload)
    print("provenance:", json.dumps(prov, sort_keys=True))
    workdir = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"

    untraced = run_once(workload, args, workdir, traced=False)
    audit = outcome(untraced)
    metrics, tails = end_to_end(untraced)
    for name, value in metrics.items():
        print(f"  {name:<26} {value:>16.6g} {UNITS[name]}")
    for name, info in tails.items():
        print(f"  {name} taken at p{info['percentile']:.2f} of {info['samples']} samples")
    for key in ("failed_ops_ratio", "bound_violation_ratio", "audited_answers"):
        print(f"  {key:<26} {audit[key]:>16.6g}")
    for key in ("reopen_s", "disk_bytes"):
        if key in untraced:
            print(f"  {key:<26} {untraced[key]:>16.6g}")
    layer = None
    if args.trace:
        traced = run_once(workload, args, workdir, traced=True)
        traced_audit = outcome(traced)
        layer = per_layer(untraced, traced, traced["bare"], traced_audit)
        for name, value in layer.items():
            print(f"  {name:<28} {value:>16.6g} {UNITS[name]}")
        audit["failed_checks"] += traced_audit["failed_checks"]
        untraced["errors"] += traced["errors"]
    for check in audit["failed_checks"]:
        print("CHECK FAILED:", check)
    for error in untraced["errors"][:10]:
        print("ERROR:", error)
    shown = layer if args.trace else {
        m["name"]: metrics[m["name"]] for m in SPEC["end_to_end"]}
    correct = not audit["failed_checks"]
    result = {
        "correct": correct,
        "attempted": int(untraced["ops"]),
        "failed": int(untraced["failed_ops"]),
        "metrics": {name: {"value": float(value), "unit": UNITS[name]}
                    for name, value in shown.items()},
    }
    if args.record:
        record = {"provenance": prov, "metrics": metrics, "tails": tails,
                  "per_layer": layer, "audit": audit, "result": result}
        Path(args.record).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
