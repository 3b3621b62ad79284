"""Metric time series: a registry poller with ring-buffer history.

The registry (:mod:`repro.telemetry.registry`) holds *current* values —
one number per counter, one triple per histogram.  An operator watching a
live service needs the other axis: how those values move.  This module
adds it without any external dependency:

* :class:`MetricPoller` — a daemon thread that snapshots every family in
  the registry every ``interval`` seconds into bounded ring buffers
  (:class:`TimeSeries`), so memory stays O(series × capacity) no matter
  how long the process runs;
* **derived series** — each counter additionally yields a windowed
  per-second *rate* series, and each histogram yields per-window
  *delta quantiles* (the p50/p95/p99 of only the observations that landed
  in the window, not the lifetime blur);
* the ``/timeseries`` JSON endpoint and the self-contained ``/dashboard``
  HTML sparkline view served by
  :class:`~repro.telemetry.IntrospectionServer` when a poller is attached
  (see :meth:`repro.service.ShardedSketchService.serve_introspection`).

Counter resets (``MetricsRegistry.reset()`` between bench repetitions,
say) are handled Prometheus-style: a value that went *down* is treated as
a restart, the post-reset value is the window's delta, and rates never go
negative.  Histogram windows with zero new observations append no
quantile point — a flat-lined latency series means "no traffic", not
"zero latency".

Typical session::

    from repro.telemetry import MetricPoller

    poller = MetricPoller(interval=2.0, capacity=300)
    poller.start()
    ...
    print(poller.series())          # JSON-friendly payload
    html = poller.dashboard_html()  # sparkline dashboard
    poller.stop()

``tick()`` may also be called manually (no thread) — the chaos harness
and the tests drive the poller deterministically that way.
"""

from __future__ import annotations

import html as _html
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.telemetry.registry import TELEMETRY as _TEL
from repro.telemetry.registry import MetricsRegistry

# Declared at import time so the docs-catalog lint sees the poller's own
# families even before a poller exists (docs/OBSERVABILITY.md).
_TEL.registry.declare(
    "poller_ticks_total",
    "counter",
    "Registry snapshots taken by metric pollers.",
)
_TEL.registry.declare(
    "poller_tick_seconds",
    "histogram",
    "Wall time of one poller snapshot over the whole registry.",
)
_TEL.registry.declare(
    "poller_series",
    "gauge",
    "Live time series currently retained by metric pollers.",
)
_TEL.registry.declare(
    "poller_series_dropped_total",
    "counter",
    "New series rejected because a poller hit its max_series bound.",
)

_TICKS = _TEL.registry.get("poller_ticks_total").labels()
_TICK_SECONDS = _TEL.registry.get("poller_tick_seconds").labels()
_SERIES_GAUGE = _TEL.registry.get("poller_series").labels()
_SERIES_DROPPED = _TEL.registry.get("poller_series_dropped_total").labels()

#: Quantiles derived per histogram window, as (label, q) pairs.
DEFAULT_QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


class TimeSeries:
    """One bounded ring buffer of ``(unix_time, value)`` points.

    ``kind`` is the sample semantics: ``"counter"`` / ``"gauge"`` (raw
    registry values), ``"rate"`` (derived per-second counter rate over
    the poll window) or ``"quantile"`` (derived histogram-delta quantile,
    with the quantile named in ``labels["quantile"]``).
    """

    __slots__ = ("name", "labels", "kind", "points")

    def __init__(self, name: str, labels: Dict[str, str], kind: str,
                 capacity: int):
        self.name = name
        self.labels = dict(labels)
        self.kind = kind
        self.points: deque = deque(maxlen=capacity)

    def append(self, when: float, value: float) -> None:
        """Append one point, evicting the oldest past capacity."""
        self.points.append((when, float(value)))

    def as_dict(self) -> dict:
        """JSON-friendly form: name, labels, kind, and the points."""
        return {
            "name": self.name,
            "labels": self.labels,
            "kind": self.kind,
            "points": [[when, value] for when, value in self.points],
        }


def delta_quantile(bounds: Sequence[float], deltas: Sequence[int],
                   q: float) -> float:
    """Quantile of one histogram *window* by in-bucket interpolation.

    ``deltas`` are per-bucket observation counts for the window (same
    layout as ``Histogram.bucket_counts``: one slot per finite bound plus
    the ``+inf`` overflow).  Mirrors ``Histogram.quantile`` — zero-count
    buckets are skipped, overflow clamps to the largest finite bound —
    but over the window's deltas instead of the lifetime totals.
    Returns 0.0 for an empty window.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = sum(deltas)
    if total <= 0:
        return 0.0
    rank = q * total
    cumulative = 0
    for index, bucket_count in enumerate(deltas):
        if bucket_count <= 0:
            continue
        if cumulative + bucket_count >= rank:
            if index >= len(bounds):  # overflow bucket
                return bounds[-1]
            lower = bounds[index - 1] if index > 0 else 0.0
            upper = bounds[index]
            fraction = (rank - cumulative) / bucket_count
            return lower + (upper - lower) * fraction
        cumulative += bucket_count
    return bounds[-1]


class MetricPoller:
    """Snapshot the metrics registry into bounded time series.

    Parameters
    ----------
    interval:
        Seconds between snapshots when running threaded (:meth:`start`).
    capacity:
        Points retained per series (ring buffer; oldest evicted).
    registry:
        The registry to watch (default: the process-global one).
    quantiles:
        ``(label, q)`` pairs derived per histogram window.
    max_series:
        Hard bound on retained series; once hit, *new* label sets are
        dropped (counted in ``poller_series_dropped_total``) rather than
        growing without bound under label churn.
    clock:
        Timestamp source for points (default ``time.time``); injectable
        for deterministic tests.

    A tick walks every family and every labelled child: counters and
    gauges append their raw value, counters also derive a windowed
    per-second rate, histograms derive per-window delta quantiles.  A
    counter or histogram observed *below* its previous snapshot is
    treated as reset (``registry.reset()``): the new value becomes the
    window delta, so rates and quantiles stay non-negative and a series
    that merges churning labels (the tenancy layer's ``__other__``)
    stays monotone as long as the underlying child does.

    Ticks are cheap (one pass over the registry, a few comparisons per
    child) and hold only the poller's own lock — never a registry-wide
    one — so polling does not stall ingest.
    """

    def __init__(
        self,
        interval: float = 5.0,
        capacity: int = 240,
        registry: Optional[MetricsRegistry] = None,
        quantiles: Sequence[Tuple[str, float]] = DEFAULT_QUANTILES,
        max_series: int = 1024,
        clock: Callable[[], float] = time.time,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        self.interval = float(interval)
        self.capacity = int(capacity)
        self.max_series = int(max_series)
        self._registry = registry or _TEL.registry
        self._quantiles = tuple(quantiles)
        self._clock = clock
        self._series: Dict[Tuple, TimeSeries] = {}
        self._prev_counter: Dict[Tuple, Tuple[float, float]] = {}
        self._prev_hist: Dict[Tuple, Tuple[List[int], int, float]] = {}
        self._listeners: List[Callable[[float], None]] = []
        self._ticks = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- wiring --------------------------------------------------------------

    def add_listener(self, listener: Callable[[float], None]) -> None:
        """Call ``listener(now)`` after every tick (alert engines hook here).

        Listener exceptions are swallowed: a broken rule must not stop
        the poller.
        """
        self._listeners.append(listener)

    # -- polling -------------------------------------------------------------

    def tick(self, now: Optional[float] = None) -> int:
        """Take one snapshot; returns the number of series updated.

        Safe to call concurrently with a running poll thread (the
        poller's lock serialises snapshots) and with registry writers
        (children are read with the same discipline the exporter uses).
        """
        started = time.perf_counter()
        if now is None:
            now = self._clock()
        updated = 0
        with self._lock:
            for family in self._registry.families():
                kind, children = family.kind, family.children
                # The family's label keys are already sorted tuples, so a
                # series key costs one tuple; label dicts are built only
                # when a series is first created.
                for label_key in sorted(children):
                    child = children.get(label_key)
                    if child is None:  # removed since the sort
                        continue
                    key = (family.name, label_key)
                    if kind == "counter":
                        updated += self._tick_counter(key, child, now)
                    elif kind == "gauge":
                        updated += self._tick_gauge(key, child, now)
                    else:
                        updated += self._tick_histogram(key, child, now)
            self._ticks += 1
            live = len(self._series)
        if _TEL.enabled:
            _TICKS.inc()
            _SERIES_GAUGE.set(live)
            _TICK_SECONDS.observe(time.perf_counter() - started)
        for listener in self._listeners:
            try:
                listener(now)
            except Exception:
                pass
        return updated

    def _get_series(self, key: Tuple, kind: str,
                    extra: Optional[Dict[str, str]] = None) -> Optional[TimeSeries]:
        """The series under ``key`` — ``(name, label_key, *suffix)`` —
        created on first use with ``extra`` labels added."""
        series = self._series.get(key)
        if series is None:
            if len(self._series) >= self.max_series:
                if _TEL.enabled:
                    _SERIES_DROPPED.inc()
                return None
            labels = dict(key[1])
            labels.update(extra or {})
            series = TimeSeries(key[0], labels, kind, self.capacity)
            self._series[key] = series
        return series

    def _tick_counter(self, key, child, now) -> int:
        value = child.value
        updated = 0
        series = self._get_series(key, "counter")
        if series is not None:
            series.append(now, value)
            updated += 1
        prev = self._prev_counter.get(key)
        self._prev_counter[key] = (now, value)
        if prev is None:
            return updated
        prev_time, prev_value = prev
        elapsed = now - prev_time
        if elapsed <= 0:
            return updated
        delta = value - prev_value
        if delta < 0:  # registry.reset() between ticks: treat as restart
            delta = value
        rate = self._get_series(key + ("rate",), "rate")
        if rate is not None:
            rate.append(now, delta / elapsed)
            updated += 1
        return updated

    def _tick_gauge(self, key, child, now) -> int:
        series = self._get_series(key, "gauge")
        if series is None:
            return 0
        series.append(now, child.value)
        return 1

    def _tick_histogram(self, key, child, now) -> int:
        with child._lock:  # noqa: SLF001 — consistent triple read
            counts = list(child.bucket_counts)
            count = child.count
        prev = self._prev_hist.get(key)
        self._prev_hist[key] = (counts, count, 0.0)
        if prev is None or count == prev[1]:
            return 0  # first sight, or no traffic in the window
        prev_counts, prev_count, _ = prev
        if count < prev_count:  # reset: this lifetime *is* the window
            deltas = counts
        else:
            deltas = [now_c - then_c
                      for now_c, then_c in zip(counts, prev_counts)]
        if sum(deltas) <= 0:
            return 0  # no traffic in the window: append nothing
        updated = 0
        for label, q in self._quantiles:
            series = self._get_series(
                key + ("quantile", label), "quantile", {"quantile": label}
            )
            if series is not None:
                series.append(now, delta_quantile(child.bounds, deltas, q))
                updated += 1
        return updated

    # -- export --------------------------------------------------------------

    @property
    def ticks(self) -> int:
        """Snapshots taken so far."""
        return self._ticks

    def series(self) -> dict:
        """JSON payload for ``/timeseries``: every retained series."""
        with self._lock:
            entries = [series.as_dict()
                       for _, series in sorted(self._series.items(),
                                               key=lambda item: item[0])]
            ticks = self._ticks
        return {
            "interval_seconds": self.interval,
            "capacity": self.capacity,
            "ticks": ticks,
            "series_count": len(entries),
            "series": entries,
        }

    def latest(self, name: str, kind: Optional[str] = None,
               labels: Optional[Dict[str, str]] = None) -> List[Tuple[dict, float, float]]:
        """Latest points of every series of ``name``: ``(labels, t, v)``.

        ``kind`` filters to one sample semantics (``"rate"``, say);
        ``labels`` requires a subset match.  The alert engine's data
        plane.
        """
        wanted = set((labels or {}).items())
        out = []
        with self._lock:
            for series in self._series.values():
                if series.name != name or not series.points:
                    continue
                if kind is not None and series.kind != kind:
                    continue
                if wanted and not wanted.issubset(set(series.labels.items())):
                    continue
                when, value = series.points[-1]
                out.append((series.labels, when, value))
        return out

    # -- dashboard -----------------------------------------------------------

    def dashboard_html(self) -> str:
        """A self-contained HTML sparkline dashboard (stdlib only).

        One inline-SVG sparkline per series, grouped by metric name, with
        min/max/last annotations — no JavaScript, no external assets, so
        it renders from an air-gapped ``curl`` dump just as well as from
        a browser pointed at ``/dashboard`` (the page meta-refreshes at
        the poll interval).
        """
        payload = self.series()
        groups: Dict[str, List[dict]] = {}
        for entry in payload["series"]:
            groups.setdefault(entry["name"], []).append(entry)
        refresh = max(1, int(self.interval))
        parts = [
            "<!doctype html><html><head>",
            '<meta charset="utf-8">',
            f'<meta http-equiv="refresh" content="{refresh}">',
            "<title>repro telemetry dashboard</title>",
            "<style>body{font:13px monospace;background:#111;color:#ddd;"
            "margin:1em}h2{color:#8cf;border-bottom:1px solid #333;"
            "font-size:14px}table{border-collapse:collapse}"
            "td{padding:2px 10px 2px 0;vertical-align:middle}"
            ".lb{color:#9a9}.va{color:#fd7}svg{background:#1a1a1a}</style>",
            "</head><body>",
            f"<p>metric poller: {payload['ticks']} ticks, "
            f"{payload['series_count']} series, "
            f"interval {self.interval:g}s</p>",
        ]
        for name in sorted(groups):
            parts.append(f"<h2>{_html.escape(name)}</h2><table>")
            for entry in groups[name]:
                label_text = ",".join(
                    f"{k}={v}" for k, v in sorted(entry["labels"].items())
                )
                label_text = _html.escape(label_text or "-")
                points = entry["points"]
                values = [value for _, value in points]
                last = values[-1] if values else 0.0
                parts.append(
                    "<tr>"
                    f'<td class="lb">{label_text} ({entry["kind"]})</td>'
                    f"<td>{_sparkline_svg(values)}</td>"
                    f'<td class="va">last {last:g}'
                    + (
                        f" · min {min(values):g} · max {max(values):g}"
                        if values else ""
                    )
                    + "</td></tr>"
                )
            parts.append("</table>")
        parts.append("</body></html>")
        return "".join(parts)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "MetricPoller":
        """Start the daemon poll thread (idempotent); returns self."""
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="metric-poller", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.tick()
            except Exception:  # a scrape hiccup must not kill the thread
                pass

    def stop(self) -> None:
        """Stop the poll thread and join it (idempotent; history kept)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None

    def __enter__(self) -> "MetricPoller":
        """Start on context entry."""
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        """Stop on context exit."""
        self.stop()


def _sparkline_svg(values: List[float], width: int = 160,
                   height: int = 26) -> str:
    """Render one series as an inline SVG polyline sparkline."""
    if not values:
        return f'<svg width="{width}" height="{height}"></svg>'
    low = min(values)
    high = max(values)
    spread = (high - low) or 1.0
    n = len(values)
    step = width / max(1, n - 1)
    points = " ".join(
        f"{index * step:.1f},"
        f"{height - 2 - (value - low) / spread * (height - 4):.1f}"
        for index, value in enumerate(values)
    )
    if n == 1:
        points += f" {width:.1f},{height - 2 - (values[0] - low) / spread * (height - 4):.1f}"
    return (
        f'<svg width="{width}" height="{height}">'
        f'<polyline fill="none" stroke="#6cf" stroke-width="1.2" '
        f'points="{points}"/></svg>'
    )
