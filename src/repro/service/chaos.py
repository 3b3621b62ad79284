"""Service-level chaos harness: kill/slow/wedge injectors, WAL fault mixes.

:mod:`repro.durability.faults` injects faults at single filesystem
operations — precise, but aimed at one store.  This module composes those
primitives into *service-level* chaos for the supervised sharded service:

* :class:`ChaosController` + :class:`ChaosSketch` interpose on each shard's
  apply path (outside the :class:`~repro.durability.DurableSketch`, so
  snapshots and WAL framing are untouched) and fire scheduled
  :class:`ChaosEvent`\\ s once a shard has applied enough items:

  - ``kill`` — raise :class:`~repro.durability.SimulatedCrash` *before*
    the batch reaches the WAL: the worker is poisoned, the batch is pushed
    back, and the supervisor must rebuild the shard without losing it;
  - ``slow`` — sleep inside the apply, stretching queue waits and
    exercising backpressure deadlines;
  - ``wedge`` — a long sleep while holding the shard's apply lock, so
    concurrent queries hit their per-shard call timeout and degrade.

* :class:`ChaosFilesystem` extends
  :class:`~repro.durability.FaultyFilesystem` with *rate-based* injected
  I/O errors on WAL appends/fsyncs (seeded, deterministic), composing
  mid-log faults with the sketch-level events above.

* :func:`random_schedule` draws a reproducible event schedule, and
  :func:`run_soak` drives ingest + degraded queries through it, then
  disarms the chaos, drains, and checks exact recovery — every
  acknowledged item applied, every shard state-identical to a fault-free
  replay of its sub-stream — returning a report whose JSONL trace is the
  CI artifact on failure.

Every event fired is counted (``service_chaos_events_total``, by kind) and
logged with its shard, item offset, and wall time, so a failing soak run
is replayable from its trace alone.
"""

from __future__ import annotations

import json
import os
import random
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import apply_stream_batch
from repro.durability.faults import FaultyFilesystem, InjectedIOError, SimulatedCrash
from repro.telemetry.registry import TELEMETRY as _TEL

#: Event kinds understood by :class:`ChaosController`.
CHAOS_KINDS = ("kill", "slow", "wedge")

_TEL.registry.declare(
    "service_chaos_events_total",
    "counter",
    "Chaos-harness events fired against shard workers, by kind.",
)


@dataclass
class ChaosEvent:
    """One scheduled fault against one shard's apply path.

    Attributes
    ----------
    kind:
        ``"kill"`` (poison the worker pre-WAL), ``"slow"`` (sleep
        ``duration`` inside the apply), or ``"wedge"`` (like slow, but
        sized to overrun query call timeouts — the distinction is the
        intent recorded in the trace, the mechanism is the same sleep).
    shard:
        Target shard index.
    at_items:
        Fire once the shard's injector has seen at least this many items
        (cumulative, including the triggering batch).
    duration:
        Sleep seconds for ``slow``/``wedge`` (ignored by ``kill``).
    fired:
        Set by the controller when the event is consumed; each event fires
        exactly once.
    """

    kind: str
    shard: int
    at_items: int
    duration: float = 0.0
    fired: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.kind not in CHAOS_KINDS:
            raise ValueError(f"kind must be one of {CHAOS_KINDS}, got {self.kind!r}")


class ChaosController:
    """Owns a chaos schedule and fires events from shard apply paths.

    Wire into a service with ``sketch_wrapper=controller.wrap`` — the
    wrapper survives rebuilds, so a rebuilt shard keeps its injector and
    the *remaining* schedule (fired events never repeat; a rebuild's
    recovery replay runs against the durable store directly and is never
    re-killed by an already-consumed event).

    Thread-safe: shard workers call :meth:`before_apply` concurrently.
    """

    def __init__(self, schedule: Sequence[ChaosEvent] = ()):
        self.events: List[ChaosEvent] = list(schedule)
        self.enabled = True
        self.log: List[dict] = []
        self._lock = threading.Lock()
        self._items_seen = {}
        self._epoch = time.monotonic()

    def wrap(self, shard: int, sketch: Any) -> "ChaosSketch":
        """The service ``sketch_wrapper`` hook: interpose on one shard."""
        return ChaosSketch(shard, sketch, self)

    def disarm(self) -> None:
        """Stop firing events (the soak's recovery/verification phase)."""
        self.enabled = False

    def remaining(self) -> int:
        """Events not yet fired."""
        return sum(1 for event in self.events if not event.fired)

    def record(self, kind: str, **payload) -> None:
        """Append one entry to the trace log (thread-safe)."""
        entry = {"kind": kind, "t": time.monotonic() - self._epoch}
        entry.update(payload)
        with self._lock:
            self.log.append(entry)

    def write_trace(self, path) -> None:
        """Dump the trace log as JSONL (the CI failure artifact)."""
        with open(path, "w") as file:
            for entry in self.log:
                file.write(json.dumps(entry) + "\n")

    def before_apply(self, shard: int, items: int) -> None:
        """Called by :class:`ChaosSketch` before each batch apply.

        Fires at most one due event per call (a kill aborts the apply
        anyway; a second due sleep waits for the next batch).
        """
        if not self.enabled:
            return
        fired = None
        with self._lock:
            total = self._items_seen.get(shard, 0) + items
            self._items_seen[shard] = total
            for event in self.events:
                if event.fired or event.shard != shard or event.at_items > total:
                    continue
                event.fired = True
                fired = event
                break
        if fired is None:
            return
        self.record(
            "event",
            event=fired.kind,
            shard=shard,
            at_items=fired.at_items,
            duration=fired.duration,
        )
        if _TEL.enabled:
            _TEL.counter("service_chaos_events_total", kind=fired.kind).inc()
        if fired.kind == "kill":
            raise SimulatedCrash(
                f"chaos kill: shard {shard} at item {fired.at_items}"
            )
        time.sleep(fired.duration)


class ChaosSketch:
    """Wraps one shard's sketch; consults the controller before each apply.

    Sits *outside* a :class:`~repro.durability.DurableSketch`: a kill
    fires before the batch is WAL-logged, so the worker's push-back
    salvage plus the supervisor's redirect replay must reproduce it — the
    property the soak test asserts.  Everything else (queries, ``wal``,
    ``flush``, ``stats``) delegates to the wrapped sketch.
    """

    def __init__(self, shard: int, inner: Any, controller: ChaosController):
        self._shard = shard
        self._inner = inner
        self._controller = controller

    def update_batch(self, values, timestamps, weights=None) -> None:
        """Apply one batch through the wrapped sketch, chaos permitting."""
        self._controller.before_apply(self._shard, len(values))
        apply_stream_batch(self._inner, values, timestamps, weights)

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._inner, name)


class _ProcessChaosMonitor:
    """Fires chaos events against process-backend shards, from the parent.

    The in-apply-path :class:`ChaosSketch` injector does not survive the
    process backend: each worker child would inherit its *own copy* of
    the controller at fork time, so ``fired`` flags would not be shared
    and a rebuilt child would re-fire consumed events.  Instead the
    parent watches each shard's (parent-side) applied-item count and
    fires due events from outside:

    * ``kill`` — ``SIGKILL`` the worker child.  Harsher than the thread
      backend's pre-WAL :class:`~repro.durability.SimulatedCrash`: the
      signal can land mid-WAL-append, so the soak also exercises the
      parent's on-disk landed-or-not verification and torn-tail
      recovery.
    * ``slow`` / ``wedge`` — a blocking ``sleep`` RPC occupies the
      child's command loop, stretching applies (backpressure) and
      stalling queries into their call timeout (degraded mode) — the
      same observable effects as sleeping under the thread backend's
      apply lock.

    Events are consumed from the shared :class:`ChaosController`
    schedule (same ``fired``-once semantics, same trace log, same
    ``service_chaos_events_total`` counter) and :meth:`ChaosController.
    disarm` stops the monitor's firing exactly like the thread path.

    The soak calls :meth:`poll` after every arrival batch, so an event
    fires as soon as the submitted stream reaches its offset, however
    fast the shards apply; a timer could fall behind a fast stream and
    fire after the settling drain, or never.
    """

    def __init__(self, service, controller: ChaosController):
        self._service = service
        self._controller = controller
        self._sleepers: List[threading.Thread] = []

    def stop(self) -> None:
        """Wait for the slow/wedge RPCs still in flight."""
        for thread in self._sleepers:
            thread.join(timeout=10.0)

    def _take_due(self, shard: int, total: int) -> Optional[ChaosEvent]:
        controller = self._controller
        with controller._lock:  # noqa: SLF001 — shared schedule handshake
            for event in controller.events:
                if event.fired or event.shard != shard or event.at_items > total:
                    continue
                event.fired = True
                return event
        return None

    def poll(self) -> None:
        """Fire every event whose offset its shard's submitted total reaches.

        A slow/wedge ``sleep`` RPC runs on its own thread, so the caller
        (the producer) never blocks on it.
        """
        if not self._controller.enabled:
            return
        for shard, worker in enumerate(self._service._workers):
            total = worker.items_applied + worker.pending_items
            event = self._take_due(shard, total)
            while event is not None:
                self._fire(event, shard, worker)
                event = self._take_due(shard, total)

    def _fire(self, event: ChaosEvent, shard: int, worker) -> None:
        self._controller.record(
            "event",
            event=event.kind,
            shard=shard,
            at_items=event.at_items,
            duration=event.duration,
            pid=worker.pid,
        )
        if _TEL.enabled:
            _TEL.counter("service_chaos_events_total", kind=event.kind).inc()
        if event.kind == "kill":
            try:
                os.kill(worker.pid, signal.SIGKILL)
            except (ProcessLookupError, TypeError):
                pass  # already dead or mid-rebuild
            return
        rpc = getattr(worker, "_rpc", None)
        if rpc is not None:
            thread = threading.Thread(
                target=_sleep_rpc, args=(rpc, event.duration),
                name="chaos-process-sleep", daemon=True,
            )
            thread.start()
            self._sleepers.append(thread)


def _sleep_rpc(rpc, seconds: float) -> None:
    try:
        rpc.call("sleep", {"seconds": seconds})
    except Exception:
        pass  # dead or rebuilding child: event lost


class ChaosFilesystem(FaultyFilesystem):
    """Rate-based WAL I/O errors on top of the kill-point fault plan.

    Each matching operation (by label prefix, default WAL appends and
    fsyncs) independently fails with probability ``error_rate`` using a
    seeded RNG — deterministic per seed, so a failing soak reproduces.
    Composes with a :class:`~repro.durability.FaultPlan` (plan faults
    fire first) and with the sketch-level events of
    :class:`ChaosController`.
    """

    def __init__(
        self,
        plan=None,
        *,
        error_rate: float = 0.0,
        seed: int = 0,
        labels: Tuple[str, ...] = ("append:wal-", "fsync:wal-"),
    ):
        super().__init__(plan)
        if not 0.0 <= error_rate < 1.0:
            raise ValueError(f"error_rate must be in [0, 1), got {error_rate}")
        self.error_rate = error_rate
        self.labels = tuple(labels)
        self.enabled = True
        self.injected = 0
        self._rng = random.Random(seed)

    def disarm(self) -> None:
        """Stop injecting rate-based errors (plan faults still apply)."""
        self.enabled = False

    def _arm(self, label: str) -> int:
        index = super()._arm(label)
        if (
            self.enabled
            and self.error_rate > 0.0
            and label.startswith(self.labels)
            and self._rng.random() < self.error_rate
        ):
            self.injected += 1
            raise InjectedIOError(
                f"chaos: injected I/O error at op {index} ({label})"
            )
        return index


def random_schedule(
    num_shards: int,
    total_items: int,
    *,
    kills: int = 2,
    slows: int = 2,
    wedges: int = 1,
    seed: int = 0,
    slow_duration: float = 0.05,
    wedge_duration: float = 0.4,
) -> List[ChaosEvent]:
    """Draw a reproducible chaos schedule for ``num_shards`` shards.

    Event item-offsets are per-shard counts (that is what the injector
    sees), drawn from the middle 80% of the expected sub-stream length
    ``total_items / num_shards`` so every event lands while its shard is
    still ingesting; shards are drawn uniformly and the same ``seed``
    always yields the same schedule.
    """
    rng = random.Random(seed)
    per_shard = max(1, total_items // max(1, num_shards))
    low = max(1, per_shard // 10)
    high = max(low + 1, (9 * per_shard) // 10)
    events: List[ChaosEvent] = []
    for kind, count, duration in (
        ("kill", kills, 0.0),
        ("slow", slows, slow_duration),
        ("wedge", wedges, wedge_duration),
    ):
        for _ in range(count):
            events.append(
                ChaosEvent(
                    kind=kind,
                    shard=rng.randrange(num_shards),
                    at_items=rng.randrange(low, high),
                    duration=duration,
                )
            )
    events.sort(key=lambda event: (event.shard, event.at_items))
    return events


def run_soak(
    directory,
    factory: Callable[[], Any],
    keys,
    timestamps,
    *,
    num_shards: int = 4,
    seed: int = 13,
    backend: str = "thread",
    arrival_batch: int = 100,
    schedule: Optional[Sequence[ChaosEvent]] = None,
    chaos_seed: int = 0,
    wal_error_rate: float = 0.0,
    block_timeout: float = 5.0,
    call_timeout: float = 0.25,
    query_every: int = 8,
    probe_keys: Sequence = (),
    durable_options: Optional[dict] = None,
    supervisor_options: Optional[dict] = None,
    fingerprint: Optional[Callable[[Any], Any]] = None,
    trace_path=None,
    drain_timeout: float = 60.0,
    poller=None,
    alert_engine=None,
    auditor=None,
) -> dict:
    """Hammer a supervised durable service through a chaos schedule.

    Ingests ``keys``/``timestamps`` in ``arrival_batch`` slices against a
    ``supervise=True``, ``partial="allow"`` service whose shards carry
    :class:`ChaosSketch` injectors and whose filesystem injects WAL I/O
    errors at ``wal_error_rate``; every ``query_every`` batches it issues
    degraded-tolerant point queries over ``probe_keys`` and sanity-checks
    any attached certificate.  After the stream, chaos is disarmed, the
    service drains, and the run verifies

    With ``backend="process"`` the same schedule is driven by a
    parent-side :class:`_ProcessChaosMonitor` instead of in-apply-path
    injectors: kills become real ``SIGKILL``\\ s of the worker children
    (which may land mid-WAL-append — a strictly harsher crash than the
    thread backend's pre-WAL abort), slow/wedge become blocking ``sleep``
    RPCs occupying the child's command loop, and per-shard verification
    fetches recovered state over the ``get_state`` RPC.  Rate-based WAL
    errors then fire inside each child (every child forks its own copy of
    the seeded filesystem), so the report's ``wal_errors_injected`` stays
    0 even though faults were injected and recovered from.

    * **no lost acks** — every acknowledged item is applied: each shard's
      item count equals its (offline-reconstructed) sub-stream length;
    * **exact recovery** — with ``fingerprint`` given, each rebuilt
      shard's state equals a fault-free replay of its sub-stream
      (bit-identical, e.g. compare raw counter arrays);
    * **bounded producer waits** — no ingest call blocked longer than
      ``block_timeout`` plus scheduling slack.

    Returns a report dict (``ok``, ``anomalies``, timings, event/rebuild
    counts); when ``trace_path`` is given the full event trace (plus
    anomalies) is written there as JSONL regardless of outcome.

    The watcher layer rides along when attached: ``poller`` (a
    :class:`~repro.telemetry.MetricPoller`) is ticked after every
    arrival batch and once after healing — each tick also drives
    ``alert_engine`` (a :class:`~repro.telemetry.AlertEngine`), whose
    per-rule peak states and final states land in the report's
    ``"alerts"`` entry; ``auditor`` (an
    :class:`~repro.telemetry.AccuracyAuditor`) shadow-records the whole
    stream and replays an audit round after recovery (report key
    ``"audit"``).  A kill schedule thus demonstrably drives the
    ``shard_unhealthy`` rule ``ok -> firing -> ok`` across one soak.
    """
    from repro.service.router import ShardRouter
    from repro.service.service import ShardedSketchService
    from repro.service.worker import BackpressureError, ShardFailedError

    keys = np.asarray(keys)
    timestamps = np.asarray(timestamps)
    controller = ChaosController(
        schedule
        if schedule is not None
        else random_schedule(num_shards, int(keys.size), seed=chaos_seed)
    )
    fs = ChaosFilesystem(error_rate=wal_error_rate, seed=chaos_seed)
    sup_options = {
        "max_rebuilds": 50,
        "backoff_base": 0.01,
        "backoff_cap": 0.2,
        "redirect_timeout": block_timeout,
        "poll_interval": 0.02,
    }
    sup_options.update(supervisor_options or {})
    anomalies: List[str] = []
    certificates = 0
    max_ingest_seconds = 0.0
    service = ShardedSketchService(
        factory,
        num_shards,
        seed=seed,
        backend=backend,
        directory=directory,
        fs=fs,
        durable_options=dict(durable_options or {"fsync_policy": "always"}),
        supervise=True,
        supervisor_options=sup_options,
        sketch_wrapper=controller.wrap if backend == "thread" else None,
        block_timeout=block_timeout,
        call_timeout=call_timeout,
        partial="allow",
    )
    if auditor is not None:
        service.attach_auditor(auditor)
    alert_peaks: dict = {}
    audit_report = alert_report = None

    def watch_tick() -> None:
        if poller is not None:
            poller.tick()
        elif alert_engine is not None:
            alert_engine.evaluate()
        if alert_engine is not None:
            status = alert_engine.status()
            rank = {"ok": 0, "pending": 1, "firing": 2}
            for entry in status["rules"]:
                seen = alert_peaks.get(entry["name"], "ok")
                if rank[entry["state"]] > rank[seen]:
                    alert_peaks[entry["name"]] = entry["state"]

    monitor = None
    if backend == "process":
        monitor = _ProcessChaosMonitor(service, controller)
    try:
        for batch_index, start in enumerate(range(0, keys.size, arrival_batch)):
            part_keys = keys[start : start + arrival_batch]
            part_ts = timestamps[start : start + arrival_batch]
            for attempt in range(10):
                begin = time.monotonic()
                try:
                    service.ingest_batch(part_keys, part_ts)
                    elapsed = time.monotonic() - begin
                    max_ingest_seconds = max(max_ingest_seconds, elapsed)
                    break
                except BackpressureError:
                    elapsed = time.monotonic() - begin
                    max_ingest_seconds = max(max_ingest_seconds, elapsed)
                    controller.record("backpressure", batch=batch_index)
                    time.sleep(0.05)
                except ShardFailedError as exc:
                    anomalies.append(
                        f"circuit opened during ingest (batch {batch_index}): "
                        f"{exc}"
                    )
                    attempt = None
                    break
            else:
                anomalies.append(f"batch {batch_index} never accepted")
                break
            if attempt is None:
                break
            # deadline honesty: a blocking submit may legitimately take up
            # to one deadline per shard sub-batch, but never unboundedly
            if elapsed > (block_timeout + 1.0) * num_shards:
                anomalies.append(
                    f"ingest batch {batch_index} blocked {elapsed:.2f}s "
                    f"(deadline {block_timeout:g}s x {num_shards} shards)"
                )
            if monitor is not None:
                monitor.poll()
            watch_tick()
            if probe_keys and batch_index % query_every == query_every - 1:
                now = float(part_ts[-1])
                for key in probe_keys:
                    answer, plan = service.estimate_at(
                        key, now, explain=True
                    )
                    certificate = plan.certificate
                    if certificate is None:
                        continue
                    certificates += 1
                    covered = set(certificate.covered_shards)
                    missing = set(certificate.missing_shards)
                    if covered & missing or (covered | missing) - set(
                        range(num_shards)
                    ):
                        anomalies.append(
                            f"certificate shard sets inconsistent: {certificate}"
                        )
                    if not 0.0 <= certificate.covered_fraction <= 1.0:
                        anomalies.append(
                            f"certificate fraction out of range: {certificate}"
                        )
                    if certificate.widened_error_bound < certificate.error_bound:
                        anomalies.append(
                            f"certificate narrowed its bound: {certificate}"
                        )
                    controller.record(
                        "certificate",
                        key=int(key),
                        covered=sorted(covered),
                        missing=sorted(missing),
                        fraction=certificate.covered_fraction,
                    )
        # submission is asynchronous: settle the stream *under* chaos so
        # every event whose offset the stream reaches actually fires (the
        # chaos window covers application, not just submission) ...
        try:
            service.drain(timeout=drain_timeout)
        except ShardFailedError as exc:
            anomalies.append(f"circuit opened while settling under chaos: {exc}")
        # ... then recovery phase: no new faults, supervisor finishes healing
        controller.disarm()
        fs.disarm()
        try:
            if not service.drain(timeout=drain_timeout):
                anomalies.append(
                    f"drain did not complete within {drain_timeout:g}s"
                )
        except ShardFailedError:
            # a fault on the last batches can surface here; the healthy
            # wait below gives the supervisor its bounded window to heal
            pass
        # healing is asynchronous: a fault on the final batch can leave the
        # supervisor mid-rebuild even though every item is durable and
        # applied — give it a bounded window to flip back to HEALTHY
        deadline = time.monotonic() + drain_timeout
        health = service.health()
        while not health["healthy"] and time.monotonic() < deadline:
            time.sleep(0.02)
            health = service.health()
        if not health["healthy"]:
            anomalies.append(f"service not healthy after recovery: {health}")
        else:
            # healed mid-drain: one more settle so redirect replay and any
            # salvaged sub-batches are fully applied before verification
            try:
                if not service.drain(timeout=drain_timeout):
                    anomalies.append(
                        f"drain did not complete within {drain_timeout:g}s"
                    )
            except ShardFailedError as exc:
                anomalies.append(f"shard failed after recovery: {exc}")
        router = ShardRouter(num_shards, mode="hash", seed=seed)
        shard_of = router.shards_of(keys)
        for shard in range(num_shards):
            worker = service._workers[shard]
            sub_keys = keys[shard_of == shard]
            sub_ts = timestamps[shard_of == shard]
            if worker.backend == "process":
                try:
                    recovered = worker.sketch_state()
                except Exception as exc:
                    anomalies.append(
                        f"shard {shard} state fetch failed: {exc}"
                    )
                    continue
            else:
                recovered = worker.sketch
                if isinstance(recovered, ChaosSketch):
                    recovered = recovered._inner
                recovered = getattr(recovered, "sketch", recovered)  # DurableSketch
            applied = worker.items_applied
            if applied != sub_keys.size:
                anomalies.append(
                    f"shard {shard} applied {applied} of {sub_keys.size} "
                    f"acknowledged items"
                )
            if fingerprint is not None:
                reference = factory()
                reference.update_batch(sub_keys, sub_ts)
                got = fingerprint(recovered)
                want = fingerprint(reference)
                if not _fingerprints_equal(got, want):
                    anomalies.append(
                        f"shard {shard} state differs from fault-free replay"
                    )
        supervisor_stats = service._supervisor.stats()
        rebuilds = sum(entry["rebuilds"] for entry in supervisor_stats.values())
        # the healed tick: rules tripped by kills should come back to ok
        watch_tick()
        if auditor is not None:
            audit_report = auditor.run_audit(queries=32)
        if alert_engine is not None:
            final = {
                entry["name"]: entry["state"]
                for entry in alert_engine.status()["rules"]
            }
            alert_report = {
                "peak_states": dict(alert_peaks),
                "final_states": final,
                "fired": sorted(
                    name for name, peak in alert_peaks.items()
                    if peak == "firing"
                ),
            }
    finally:
        if monitor is not None:
            monitor.stop()
        service.close(force=True)
    for anomaly in anomalies:
        controller.record("anomaly", detail=anomaly)
    if trace_path is not None:
        controller.write_trace(trace_path)
    report = {
        "ok": not anomalies,
        "anomalies": anomalies,
        "events_fired": sum(1 for event in controller.events if event.fired),
        "events_total": len(controller.events),
        "wal_errors_injected": fs.injected,
        "rebuilds": rebuilds,
        "certificates": certificates,
        "max_ingest_seconds": max_ingest_seconds,
        "supervisor": supervisor_stats,
    }
    if alert_engine is not None:
        report["alerts"] = alert_report
    if auditor is not None:
        report["audit"] = audit_report
    return report


def _fingerprints_equal(got, want) -> bool:
    """Compare fingerprints, treating array-likes elementwise."""
    if isinstance(got, np.ndarray) or isinstance(want, np.ndarray):
        return bool(np.array_equal(got, want))
    if isinstance(got, (tuple, list)) and isinstance(want, (tuple, list)):
        return len(got) == len(want) and all(
            _fingerprints_equal(g, w) for g, w in zip(got, want)
        )
    return bool(got == want)
