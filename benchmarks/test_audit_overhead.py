"""Watcher overhead and end-to-end accuracy/alerting proof (ISSUE 10 bar).

The self-watching layer (``MetricPoller`` + ``AlertEngine`` +
``AccuracyAuditor``) claims to be cheap enough to leave on and honest
enough to trust.  This bench proves both halves and writes the
measurements to ``benchmarks/results/BENCH_audit.json``:

* **fault_free** — a CountMin-backed sharded service ingests a skewed
  stream with the auditor shadow-recording every batch, then replays an
  ATTP audit round: zero ``audit_bound_violations_total`` and the
  observed p99 error stays under the configured epsilon (the paper's
  (eps, delta) contract, checked against exact parent-side truth);
* **overhead** — the same service ingest is timed bare and with the
  full watcher attached (auditor shadow-sampling + poller thread
  snapshotting + alert engine evaluating every tick), as interleaved
  bare/watched pairs: the median pair's watched/bare ratio must be
  <= 1.15.  Pairing puts both sides of a ratio under the same machine
  conditions, and the median drops the pairs a scheduling hiccup
  decided;
* **chaos_alerting** — a kill schedule through :func:`run_chaos_soak`
  with the watcher riding along drives the ``shard_unhealthy`` rule to
  ``firing`` and back to ``ok`` after the supervisor rebuilds, while the
  post-recovery audit round stays violation-free.

Quick mode (``REPRO_BENCH_QUICK=1``, the CI chaos job) shrinks the
streams so the bench finishes in seconds; the assertions are
size-independent.
"""

import gc
import json
import os
import statistics
import time

import numpy as np
import pytest

from common import RESULTS_DIR
from repro.core import ChainCountMin
from repro.service import ChaosEvent, ShardedSketchService, run_chaos_soak
from repro.telemetry import (
    AccuracyAuditor,
    AlertEngine,
    MetricPoller,
    default_service_rules,
)
from repro.telemetry.registry import TELEMETRY
from repro.telemetry.spans import SPANS

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
N = 20_000 if QUICK else 120_000
CHAOS_N = 3_000 if QUICK else 6_000
#: Interleaved bare/watched pairs; the gate takes the median pair's ratio.
PAIRS = 21 if QUICK else 7
SERVICE_BATCH = 4096
#: The watched ingest may cost at most this multiple of the bare ingest.
MAX_WATCHED_RATIO = 1.15
#: The audited error budget: CountMin width 2048 guarantees eps ~ e/2048,
#: audited against a looser 0.01 so the assertion tests the plumbing, not
#: the sketch's constant factors.
EPSILON = 0.01
RESULT_PATH = RESULTS_DIR / "BENCH_audit.json"


def _stream(n, universe=4096, seed=2):
    rng = np.random.default_rng(seed)
    keys = (rng.zipf(1.3, size=n) % universe).astype(np.int64)
    return keys, np.arange(n, dtype=np.float64)


def seconds(run):
    gc.collect()
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def paired_ratios(bare, watched):
    """``PAIRS`` watched/bare time ratios, after one warm-up pair.

    The two passes of a pair run back to back, in alternating order, so
    a drift in machine speed hits both sides of each ratio alike.
    """
    bare(), watched()
    pairs = []
    for index in range(PAIRS):
        if index % 2:
            watched_s, bare_s = seconds(watched), seconds(bare)
        else:
            bare_s, watched_s = seconds(bare), seconds(watched)
        pairs.append((bare_s, watched_s))
    return pairs


def make_service(**kwargs):
    kwargs.setdefault("num_shards", 2)
    kwargs.setdefault("partition", "round_robin")
    return ShardedSketchService(
        lambda: ChainCountMin(width=2048, depth=4, eps_ckpt=0.002, seed=1),
        **kwargs,
    )


def service_ingest(keys, timestamps, auditor=None, poller=None):
    """One full watched (or bare) ingest pass through the sharded service."""
    with make_service(queue_capacity=len(keys)) as service:
        if auditor is not None:
            service.attach_auditor(auditor)
        if poller is not None:
            poller.start()
        try:
            for start in range(0, len(keys), SERVICE_BATCH):
                service.ingest_batch(
                    keys[start : start + SERVICE_BATCH],
                    timestamps[start : start + SERVICE_BATCH],
                )
            service.drain(timeout=300)
        finally:
            if poller is not None:
                poller.stop()


def fresh_watcher():
    """An auditor + fast poller + default alert pack, production-shaped."""
    auditor = AccuracyAuditor(
        epsilon=EPSILON, sample_fraction=0.05, max_items=N, seed=7
    )
    poller = MetricPoller(interval=0.02, capacity=256)
    engine = AlertEngine(default_service_rules(), poller=poller)
    return auditor, poller, engine


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    keys, timestamps = _stream(N)
    TELEMETRY.enable()
    try:
        # -- fault-free accuracy: audit a real CountMin-backed service ----
        auditor = AccuracyAuditor(
            epsilon=EPSILON, sample_fraction=1.0, max_items=N, seed=7
        )
        with make_service() as service:
            service.attach_auditor(auditor)
            for start in range(0, N, SERVICE_BATCH):
                service.ingest_batch(
                    keys[start : start + SERVICE_BATCH],
                    timestamps[start : start + SERVICE_BATCH],
                )
            assert service.drain(timeout=300)
            audit = auditor.run_audit(queries=64, kinds=("attp",))
        violations_metric = (
            TELEMETRY.registry.get("audit_bound_violations_total")
            .labels()
            .value
        )
        fault_free = {
            "queries": audit["queries"],
            "violations": audit["violations"],
            "violations_metric": violations_metric,
            "max_observed_error": audit["max_observed_error"],
            "p99_observed_error": audit["p99_observed_error"],
            "epsilon": EPSILON,
        }
        TELEMETRY.registry.reset()
        SPANS.clear()

        # -- overhead: bare ingest vs the full watcher riding along -------
        engines = []

        def watched():
            auditor, poller, engine = fresh_watcher()
            service_ingest(keys, timestamps, auditor=auditor, poller=poller)
            engines.append(engine)

        pairs = paired_ratios(lambda: service_ingest(keys, timestamps), watched)
        assert all(e.status()["rules"] for e in engines)  # engines evaluated
        ratios = [w / b for b, w in pairs]
        overhead = {
            "bare_ingest_items_per_s": round(N / statistics.median(b for b, _ in pairs)),
            "watched_ingest_items_per_s": round(
                N / statistics.median(w for _, w in pairs)
            ),
            "watched_over_bare": round(statistics.median(ratios), 4),
            "pair_ratios": [round(r, 4) for r in ratios],
            "max_watched_ratio": MAX_WATCHED_RATIO,
        }
        TELEMETRY.registry.reset()
        SPANS.clear()

        # -- chaos alerting: kills drive shard_unhealthy firing -> ok -----
        chaos_keys, chaos_ts = _stream(CHAOS_N, universe=61, seed=5)
        soak_auditor = AccuracyAuditor(
            epsilon=EPSILON, sample_fraction=1.0, max_items=CHAOS_N, seed=3
        )
        # never start()ed: run_chaos_soak ticks it after every batch
        soak_poller = MetricPoller(interval=60.0, capacity=512)
        soak_engine = AlertEngine(
            default_service_rules(), poller=soak_poller
        )
        # one kill per shard mid-stream, plus a late second kill on shard
        # 0: every rebuild window gets ticked by the per-batch watch loop
        per_shard = CHAOS_N // 2
        schedule = [
            ChaosEvent("kill", shard=0, at_items=per_shard // 4),
            ChaosEvent("kill", shard=1, at_items=per_shard // 3),
            ChaosEvent("kill", shard=0, at_items=(2 * per_shard) // 3),
        ]
        soak = run_chaos_soak(
            tmp_path_factory.mktemp("audit-soak") / "state",
            lambda: ChainCountMin(
                width=2048, depth=4, eps_ckpt=0.002, seed=5
            ),
            chaos_keys,
            chaos_ts,
            num_shards=2,
            seed=13,
            arrival_batch=50,
            schedule=schedule,
            # stretch the rebuild backoff so unhealthy windows span ticks
            supervisor_options={"backoff_base": 0.05, "backoff_cap": 0.2},
            poller=soak_poller,
            alert_engine=soak_engine,
            auditor=soak_auditor,
        )
        chaos_alerting = {
            "ok": soak["ok"],
            "anomalies": soak["anomalies"],
            "events_fired": soak["events_fired"],
            "rebuilds": soak["rebuilds"],
            "alerts_fired": soak["alerts"]["fired"],
            "alert_final_states": soak["alerts"]["final_states"],
            "audit_queries": soak["audit"]["queries"],
            "audit_violations": soak["audit"]["violations"],
        }
    finally:
        TELEMETRY.registry.reset()
        SPANS.clear()
        TELEMETRY.disable()

    payload = {
        "stream_size": N,
        "chaos_stream_size": CHAOS_N,
        "quick_mode": QUICK,
        "results": {
            "fault_free": fault_free,
            "overhead": overhead,
            "chaos_alerting": chaos_alerting,
        },
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


class TestFaultFreeAccuracy:
    def test_zero_bound_violations(self, report):
        row = report["results"]["fault_free"]
        assert row["queries"] == 64, row
        assert row["violations"] == 0, row
        assert row["violations_metric"] == 0, row

    def test_p99_error_within_epsilon(self, report):
        row = report["results"]["fault_free"]
        assert row["p99_observed_error"] <= row["epsilon"], row


class TestWatcherOverhead:
    def test_watched_ingest_within_bound(self, report):
        """Auditor + poller + alert engine attached must keep service
        ingest within 1.15x of the bare run, in the median of interleaved
        pairs — the watcher samples and snapshots off the hot path, it
        does not tax it."""
        row = report["results"]["overhead"]
        assert row["watched_over_bare"] <= MAX_WATCHED_RATIO, row


class TestChaosAlerting:
    def test_soak_recovered_exactly(self, report):
        row = report["results"]["chaos_alerting"]
        assert row["ok"], row["anomalies"]
        assert row["events_fired"] >= 1, row
        assert row["rebuilds"] >= 1, row

    def test_kill_drives_alert_firing_then_ok(self, report):
        row = report["results"]["chaos_alerting"]
        assert "shard_unhealthy" in row["alerts_fired"], row
        assert row["alert_final_states"]["shard_unhealthy"] == "ok", row

    def test_post_recovery_audit_is_clean(self, report):
        row = report["results"]["chaos_alerting"]
        assert row["audit_queries"] > 0, row
        assert row["audit_violations"] == 0, row


def test_report_written(report):
    assert RESULT_PATH.is_file()
    on_disk = json.loads(RESULT_PATH.read_text())
    assert on_disk["results"].keys() == report["results"].keys()


def test_print_table(report, capsys):
    with capsys.disabled():
        results = report["results"]
        print(f"\naudit watcher  n={report['stream_size']}")
        row = results["fault_free"]
        print(
            f"{'fault-free audit':<26}queries={row['queries']}"
            f"  violations={row['violations']}"
            f"  p99_err={row['p99_observed_error']:.5f}"
            f" (eps={row['epsilon']})"
        )
        row = results["overhead"]
        print(
            f"{'watcher overhead':<26}bare={row['bare_ingest_items_per_s']:,}/s"
            f"  watched={row['watched_ingest_items_per_s']:,}/s"
            f"  ratio={row['watched_over_bare']}"
        )
        row = results["chaos_alerting"]
        print(
            f"{'chaos alerting':<26}rebuilds={row['rebuilds']}"
            f"  fired={row['alerts_fired']}"
            f"  audit_violations={row['audit_violations']}"
        )
