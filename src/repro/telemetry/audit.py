"""Continuous accuracy auditing: are served answers inside their bounds?

The paper's contract is *bounded error*: a CountMin-backed ATTP estimate
is within ``eps * W(t)`` of truth with probability ``1 - delta``, a
Misra–Gries chain deterministically so.  The service serves millions of
such answers; this module makes the contract an *observable*.

:class:`AccuracyAuditor` shadow-records ingested batches into an exact
ground-truth store, then periodically replays sampled ATTP (prefix) and
BITP (suffix) point queries against the live service and compares:

* ``audit_observed_error`` — histogram of ``|estimate - truth| / W``
  (the paper's normalised error), labelled ``kind="attp"|"bitp"``;
* ``audit_bound_violations_total`` — answers whose *absolute* error
  exceeded the structure's bound ``eps * W``.  Degraded answers carrying
  an :class:`~repro.service.ErrorCertificate` are judged against their
  honestly *widened* bound (``eps * W + missing_items``) instead — a
  partial answer is not a violation when it says so.

Ground truth lives parent-side in the auditor (exact per-item arrays,
vectorised with numpy), never in the shards: a supervisor rebuild that
replays a shard's WAL changes nothing the auditor recorded at ingest
time, so chaos soaks audit cleanly through kills and recoveries.

Shadow sampling keeps query cost bounded, not recording cost: every
batch's arrays are *referenced/copied wholesale* (three C-speed array
copies, no per-item Python work), while only a hash-sampled fraction of
the key space is ever *queried*.  ``max_items`` bounds memory: past it
the auditor freezes its recording frontier and keeps auditing the
recorded prefix only (counted in ``audit_queries_skipped_total``).

Wire-up (see docs/OBSERVABILITY.md, "Watching the watcher")::

    auditor = AccuracyAuditor(epsilon=0.01, sample_fraction=0.1, seed=7)
    service.attach_auditor(auditor)          # shadow-records every batch
    auditor.bind(service)                    # the replay target
    ...ingest...
    report = auditor.run_audit(queries=64)   # or auditor.start(interval)

The auditor duck-types its service: anything with ``estimate_at`` /
``estimate_since`` (optionally ``explain=True`` returning a plan with a
``certificate``) audits, including one tenant of a
:class:`~repro.service.MultiTenantService` (pass ``tenant=``).
"""

from __future__ import annotations

import random
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.telemetry.registry import TELEMETRY as _TEL

#: Buckets for the normalised-error histogram: the interesting range is
#: tiny (eps is typically 1e-3..1e-1), so the grid is geometric from 1e-6.
OBSERVED_ERROR_BUCKETS = (
    1e-6, 1e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0,
)

# Declared at import time for the docs-catalog lint (docs/OBSERVABILITY.md).
_TEL.registry.declare(
    "audit_observed_error",
    "histogram",
    "Normalised |estimate - truth| / W of audited answers, by query kind.",
    buckets=OBSERVED_ERROR_BUCKETS,
)
_TEL.registry.declare(
    "audit_bound_violations_total",
    "counter",
    "Audited answers outside their (possibly widened) paper bound.",
)
_TEL.registry.declare(
    "audit_queries_total",
    "counter",
    "Audit replay queries issued against the live service, by kind.",
)
_TEL.registry.declare(
    "audit_queries_skipped_total",
    "counter",
    "Audit queries skipped (no data, saturated store, or query failure).",
)
_TEL.registry.declare(
    "audit_sampled_items_total",
    "counter",
    "Items shadow-recorded into audit ground-truth stores.",
)
_TEL.registry.declare(
    "audit_sampled_keys",
    "gauge",
    "Distinct keys currently tracked for audit replay.",
)
_TEL.registry.declare(
    "audit_runs_total",
    "counter",
    "Completed audit replay rounds.",
)

_ITEMS = _TEL.registry.get("audit_sampled_items_total").labels()
_KEYS_GAUGE = _TEL.registry.get("audit_sampled_keys").labels()
_RUNS = _TEL.registry.get("audit_runs_total").labels()

#: Knuth multiplicative hash mixer for deterministic key sampling.
_HASH_MIX = 0x9E3779B1


class _GroundTruth:
    """Exact per-tenant record of everything ingested (chunked arrays).

    Appending is three array copies; truth queries concatenate lazily
    (cached until the next append) and answer with vectorised masks —
    exact prefix/suffix weights in O(n) C time per audit query.
    """

    __slots__ = ("chunks_v", "chunks_t", "chunks_w", "items", "frontier",
                 "saturated", "sampled_keys", "_cat")

    def __init__(self):
        self.chunks_v: List[np.ndarray] = []
        self.chunks_t: List[np.ndarray] = []
        self.chunks_w: List[np.ndarray] = []
        self.items = 0
        self.frontier = -np.inf  # max recorded timestamp
        self.saturated = False
        self.sampled_keys: List = []
        self._cat: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def append(self, values: np.ndarray, timestamps: np.ndarray,
               weights: Optional[np.ndarray]) -> None:
        self.chunks_v.append(values)
        self.chunks_t.append(timestamps)
        self.chunks_w.append(
            weights if weights is not None
            else np.ones(values.shape[0], dtype=np.float64)
        )
        self.items += int(values.shape[0])
        if timestamps.size:
            self.frontier = max(self.frontier, float(timestamps.max()))
        self._cat = None

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._cat is None:
            self._cat = (
                np.concatenate(self.chunks_v) if self.chunks_v else np.empty(0),
                np.concatenate(self.chunks_t) if self.chunks_t else np.empty(0),
                np.concatenate(self.chunks_w) if self.chunks_w else np.empty(0),
            )
        return self._cat

    def truth_at(self, key, timestamp: float) -> float:
        """Exact ATTP weight of ``key`` over the prefix up to ``timestamp``."""
        values, times, weights = self.arrays()
        return float(weights[(values == key) & (times <= timestamp)].sum())

    def truth_since(self, key, timestamp: float) -> float:
        """Exact BITP weight of ``key`` over the suffix from ``timestamp``."""
        values, times, weights = self.arrays()
        return float(weights[(values == key) & (times >= timestamp)].sum())

    def total_at(self, timestamp: float) -> float:
        """Exact total stream weight over the prefix up to ``timestamp``."""
        _, times, weights = self.arrays()
        return float(weights[times <= timestamp].sum())

    def total_since(self, timestamp: float) -> float:
        """Exact total stream weight over the suffix from ``timestamp``."""
        _, times, weights = self.arrays()
        return float(weights[times >= timestamp].sum())


class AccuracyAuditor:
    """Shadow-sample ingest, replay queries, compare against exact truth.

    Parameters
    ----------
    epsilon, delta:
        The audited structures' paper bound: an answer is in-bound when
        ``|estimate - truth| <= epsilon * W`` (W the exact prefix/suffix
        weight).  ``delta`` is the allowed failure probability for
        randomised structures (CountMin): per-query violations are
        *counted*, and :meth:`run_audit` reports the violation fraction
        so the operator can compare it against delta.
    sample_fraction:
        Fraction of the key space tracked for replay (deterministic
        multiplicative-hash sampling — the same key always samples the
        same way, so every occurrence of a tracked key is counted).
    max_keys:
        Bound on tracked keys per tenant.
    max_items:
        Bound on recorded items per tenant; past it recording stops,
        the frontier freezes, and only the recorded prefix is audited.
    seed:
        Drives both key sampling and replay-query choice.
    partial:
        Per-query degraded-mode override passed to the service
        (default ``None`` = the service's policy).  Chaos soaks run
        with ``"allow"`` services, so certificated partial answers come
        back and are judged against their widened bound.
    tolerance:
        Absolute slack added to every bound check (float fuzz).

    Timestamps are assumed non-decreasing across batches per tenant (the
    paper's stream model); the recording frontier relies on it once
    ``max_items`` saturates.
    """

    def __init__(
        self,
        epsilon: float,
        delta: float = 0.01,
        *,
        sample_fraction: float = 0.05,
        max_keys: int = 256,
        max_items: int = 2_000_000,
        seed: int = 0,
        partial: Optional[str] = None,
        tolerance: float = 1e-9,
    ):
        if not 0 < epsilon < 1:
            raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
        if not 0 < sample_fraction <= 1:
            raise ValueError(
                f"sample_fraction must be in (0, 1], got {sample_fraction}"
            )
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.sample_fraction = float(sample_fraction)
        self.max_keys = int(max_keys)
        self.max_items = int(max_items)
        self.seed = int(seed)
        self.partial = partial
        self.tolerance = float(tolerance)
        self._cut = max(1, int(round(sample_fraction * 0x10000)))
        self._truth: Dict[Optional[str], _GroundTruth] = {}
        self._unsupported: set = set()
        self._services: Dict[Optional[str], object] = {}
        self._tenancy = None
        self._lock = threading.Lock()
        self._rng = random.Random(seed)
        self._violations = 0
        self._audited = 0
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- wiring --------------------------------------------------------------

    def bind(self, service, tenant: Optional[str] = None) -> None:
        """Set the replay target for ``tenant`` (None = single-service).

        For a :class:`~repro.service.MultiTenantService` use
        :meth:`bind_tenancy` instead — one bind covers every tenant.
        """
        self._services[tenant] = service

    def bind_tenancy(self, tenancy) -> None:
        """Replay every tenant's queries through one multi-tenant service."""
        self._tenancy = tenancy

    # -- ingest shadow path ----------------------------------------------------

    def observe_batch(self, values, timestamps, weights=None,
                      tenant: Optional[str] = None) -> None:
        """Shadow-record one accepted ingest batch (cheap: array copies).

        Called by the services' ingest paths when an auditor is attached
        (:meth:`~repro.service.ShardedSketchService.attach_auditor`).
        Never raises into the ingest path.
        """
        try:
            v = np.asarray(values)
            t = np.asarray(timestamps, dtype=np.float64)
            w = None if weights is None else np.asarray(
                weights, dtype=np.float64
            )
            with self._lock:
                truth = self._truth.get(tenant)
                if truth is None:
                    truth = self._truth[tenant] = _GroundTruth()
                if truth.saturated:
                    return
                if truth.items + v.shape[0] > self.max_items:
                    truth.saturated = True
                    return
                # copies: the caller may reuse / mutate its arrays
                truth.append(v.copy(), t.copy(),
                             None if w is None else w.copy())
                self._admit_keys(truth, v)
                if _TEL.enabled:
                    _ITEMS.inc(v.shape[0])
                    _KEYS_GAUGE.set(sum(
                        len(gt.sampled_keys) for gt in self._truth.values()
                    ))
        except Exception:
            pass

    def _admit_keys(self, truth: _GroundTruth, values: np.ndarray) -> None:
        """Deterministically sample new keys from ``values`` (vectorised)."""
        room = self.max_keys - len(truth.sampled_keys)
        if room <= 0:
            return
        if np.issubdtype(values.dtype, np.integer):
            mixed = (values.astype(np.int64) * _HASH_MIX) ^ self.seed
            mask = (mixed >> 7) & 0xFFFF < self._cut
            candidates = np.unique(values[mask])
            if truth.sampled_keys:
                candidates = candidates[
                    ~np.isin(candidates, np.asarray(truth.sampled_keys))
                ]
            truth.sampled_keys.extend(candidates[:room].tolist())
            return
        seen = set(truth.sampled_keys)
        for key in values[:1024]:
            key = key.item() if hasattr(key, "item") else key
            if ((hash(key) * _HASH_MIX) ^ self.seed) >> 7 & 0xFFFF >= self._cut:
                continue
            if key not in seen:
                truth.sampled_keys.append(key)
                seen.add(key)
                room -= 1
                if room <= 0:
                    return

    # -- replay --------------------------------------------------------------

    def _service_for(self, tenant: Optional[str]):
        service = self._services.get(tenant)
        if service is not None:
            return service, ()
        if self._tenancy is not None and tenant is not None:
            return self._tenancy, (tenant,)
        return None, ()

    def run_audit(self, queries: int = 32,
                  kinds: Tuple[str, ...] = ("attp", "bitp")) -> dict:
        """Replay ``queries`` sampled point queries; returns a round report.

        Each query picks a tracked tenant, key and in-range timestamp,
        asks the live service (``explain=True``), computes the exact
        truth, and emits ``audit_observed_error`` /
        ``audit_bound_violations_total``.  Failures (shard down under a
        ``reject`` policy, cold tenant gone) are counted as skips, never
        raised — auditing must not destabilise the audited.
        """
        report = {
            "queries": 0, "skipped": 0, "violations": 0,
            "max_observed_error": 0.0, "errors": [],
        }
        with self._lock:
            tenants = [
                tenant for tenant, truth in self._truth.items()
                if truth.sampled_keys and truth.items
            ]
        if not tenants:
            self._skip(queries, "no_data")
            report["skipped"] = queries
            report["p99_observed_error"] = 0.0
            del report["errors"]
            return report
        for index in range(queries):
            tenant = tenants[index % len(tenants)]
            kind = kinds[index % len(kinds)]
            if (tenant, kind) in self._unsupported:
                # a structure is usually ATTP xor BITP — redirect the
                # budget to a kind this tenant's sketches can answer
                supported = [k for k in kinds
                             if (tenant, k) not in self._unsupported]
                if not supported:
                    self._skip(1, "unsupported")
                    report["skipped"] += 1
                    continue
                kind = supported[index % len(supported)]
            outcome = self._audit_one(tenant, kind)
            if outcome is None:
                report["skipped"] += 1
                continue
            observed, violated = outcome
            report["queries"] += 1
            report["errors"].append(observed)
            report["max_observed_error"] = max(
                report["max_observed_error"], observed
            )
            if violated:
                report["violations"] += 1
        with self._lock:
            self._audited += report["queries"]
            self._violations += report["violations"]
        if _TEL.enabled:
            _RUNS.inc()
        if report["queries"]:
            errors = sorted(report["errors"])
            rank = max(0, int(0.99 * len(errors)) - 1)
            report["p99_observed_error"] = errors[min(rank + 1,
                                                      len(errors) - 1)]
        else:
            report["p99_observed_error"] = 0.0
        del report["errors"]
        return report

    def _audit_one(self, tenant: Optional[str],
                   kind: str) -> Optional[Tuple[float, bool]]:
        service, prefix = self._service_for(tenant)
        with self._lock:
            truth = self._truth.get(tenant)
            if service is None or truth is None or not truth.sampled_keys:
                self._skip(1, "no_data")
                return None
            key = self._rng.choice(truth.sampled_keys)
            _, times, _ = truth.arrays()
            timestamp = float(self._rng.choice(times))
            if timestamp > truth.frontier:
                timestamp = truth.frontier
            if kind == "attp":
                exact = truth.truth_at(key, timestamp)
                total = truth.total_at(timestamp)
            else:
                if truth.saturated:
                    # the suffix extends past the recorded frontier: the
                    # exact answer is unknowable, skip honestly
                    self._skip(1, "saturated")
                    return None
                exact = truth.truth_since(key, timestamp)
                total = truth.total_since(timestamp)
        method = "estimate_at" if kind == "attp" else "estimate_since"
        try:
            answer = getattr(service, method)(
                *prefix, key, timestamp, explain=True
            )
        except Exception as exc:
            if isinstance(exc, (AttributeError, NotImplementedError)) or (
                "support" in str(exc)
            ):
                self._unsupported.add((tenant, kind))
                self._skip(1, "unsupported")
            else:
                self._skip(1, "query_failed")
            return None
        estimate, plan = answer if isinstance(answer, tuple) else (answer, None)
        certificate = getattr(plan, "certificate", None)
        error = abs(float(estimate) - exact)
        observed = error / max(total, 1.0)
        bound = self.epsilon * max(total, 1.0) + self.tolerance
        if certificate is not None:
            widened = getattr(certificate, "widened_error_bound", None)
            if widened is not None:
                # widened_error_bound = sum of covered per-shard bounds +
                # missing items, already in absolute units
                bound = max(bound, float(widened) + self.tolerance)
        violated = error > bound
        if _TEL.enabled:
            _TEL.registry.histogram(
                "audit_observed_error",
                "Normalised |estimate - truth| / W of audited answers, "
                "by query kind.",
                buckets=OBSERVED_ERROR_BUCKETS,
                kind=kind,
            ).observe(observed)
            _TEL.registry.counter(
                "audit_queries_total",
                "Audit replay queries issued against the live service, "
                "by kind.",
                kind=kind,
            ).inc()
            if violated:
                _TEL.registry.counter(
                    "audit_bound_violations_total",
                    "Audited answers outside their (possibly widened) "
                    "paper bound.",
                ).inc()
        return observed, violated

    def _skip(self, count: int, reason: str) -> None:
        if _TEL.enabled and count:
            _TEL.registry.counter(
                "audit_queries_skipped_total",
                "Audit queries skipped (no data, saturated store, or "
                "query failure).",
                reason=reason,
            ).inc(count)

    # -- introspection ---------------------------------------------------------

    def status(self) -> dict:
        """Lifetime summary: tracked tenants/keys/items, audits, violations."""
        with self._lock:
            return {
                "epsilon": self.epsilon,
                "delta": self.delta,
                "sample_fraction": self.sample_fraction,
                "tenants": {
                    str(tenant): {
                        "items": truth.items,
                        "sampled_keys": len(truth.sampled_keys),
                        "frontier": (
                            truth.frontier
                            if truth.frontier != -np.inf else None
                        ),
                        "saturated": truth.saturated,
                    }
                    for tenant, truth in self._truth.items()
                },
                "audited": self._audited,
                "violations": self._violations,
                "violation_fraction": (
                    self._violations / self._audited if self._audited else 0.0
                ),
            }

    # -- lifecycle -------------------------------------------------------------

    def start(self, interval: float = 30.0,
              queries_per_run: int = 32) -> "AccuracyAuditor":
        """Run :meth:`run_audit` every ``interval`` seconds on a daemon
        thread (idempotent); returns self."""
        if self._thread is not None:
            return self
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(interval):
                try:
                    self.run_audit(queries=queries_per_run)
                except Exception:
                    pass

        self._thread = threading.Thread(
            target=loop, name="accuracy-auditor", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the replay thread (idempotent; ground truth kept)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None

    def __enter__(self) -> "AccuracyAuditor":
        """No-op entry (attach/bind explicitly); enables ``with`` cleanup."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Stop any replay thread on context exit."""
        self.stop()
