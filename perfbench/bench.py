"""One benchmark run: set up, ingest while reading, drain, check, measure.

Two threads drive the service, matching a 2-CPU box:

* the **producer** (the calling thread) is a closed loop: it calls
  ``ingest_batch`` back to back with the default ``block`` backpressure, so
  a slower service receives less load;
* the **reader** is an open loop: queries fall due at a fixed rate whatever
  the service does, each timed from when it was *due*, so a stall also
  delays the queries queued behind it.  Between queries it polls, without
  blocking, whether sampled ingest calls have become visible.

A traced run (``traced=True``) repeats the run with the program's telemetry
on and the :mod:`layers` proxies installed, and reports per-layer numbers;
the untraced run reports the end-to-end numbers.
"""

from __future__ import annotations

import bisect
import collections
import shutil
import statistics
import threading
import time
from pathlib import Path

import numpy as np

import layers
import oracle
from repro.core.base import apply_stream_batch
from repro.service import MultiTenantService, ShardedSketchService
from repro.telemetry import SPANS, TELEMETRY
from streams import CyclicStream, T0
from workloads import Workload

SETUP_REPEATS = 61
REOPEN_PROBES = 12
LAG_SAMPLE_EVERY = 4
POLL_SECONDS = 0.001
POLL_TENANT_RECEIPTS = 16
AUDIT_CAP = 3000
TENANT_MIX_SEED = 20210620


def tail_quantile(samples):
    """``(value, percentile, n)`` at the highest percentile with >= 10 beyond.

    With fewer than 20 samples no such percentile exceeds the median, so
    the maximum is reported with its percentile set to 100.
    """
    n = len(samples)
    if n == 0:
        return float("nan"), 0.0, 0
    if n < 20:
        return float(max(samples)), 100.0, n
    q = 1.0 - 10.0 / n
    return float(np.quantile(np.asarray(samples), q)), 100.0 * q, n


def median(samples) -> float:
    return float(statistics.median(samples)) if samples else float("nan")


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Run:
    """State shared by the producer, the reader and the checks of one run."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 workdir: Path, traced: bool):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.traced = traced
        self.tenancy = workload.tenants is not None
        self.stream = CyclicStream(workload.stream, seed)
        self.base_factory = workload.factory()
        self.registry = layers.StatsRegistry() if traced else None
        self.fs = layers.CountingFilesystem() if traced and workload.durable else None
        self.reader_rng = np.random.default_rng([seed, 2])
        if self.tenancy:
            count = workload.tenants["count"]
            self.tenant_ids = [f"tenant-{i:02d}" for i in range(count)]
            ranks = np.arange(1, count + 1, dtype=float)
            p = ranks ** -workload.tenants["zipf_s"]
            # The tenant traffic mix is part of the workload, not of the
            # seed: a fixed Zipf draw, so every seed spills and reloads the
            # same tenants in the same order while its items differ.
            mix = np.random.default_rng(TENANT_MIX_SEED)
            self.tenant_of_batch = mix.choice(count, size=1 << 18, p=p / p.sum())
            self.tenant_of_query = mix.choice(count, size=1 << 16, p=p / p.sum())
            # per tenant: global start of each batch, and cumulative items
            self.t_starts = {t: [] for t in self.tenant_ids}
            self.t_cums = {t: [] for t in self.tenant_ids}
            self.t_receipts = {t: [] for t in self.tenant_ids}
            self.t_confirmed = {t: 0 for t in self.tenant_ids}
        self.seqnos: list = []
        self.seq_cums: list = []
        self.pending = collections.deque()
        self.items = 0  # accepted items, all calls
        self.batches = 0
        self.failed = 0
        self.errors: list = []
        self.backlog_max = 0
        self.service = None

    # -- construction --------------------------------------------------------

    def factory(self):
        base = self.base_factory
        if not self.traced:
            return base
        return lambda: layers.CoreProxy(base())

    def service_options(self) -> dict:
        options = {k: v for k, v in self.w.service.items() if k != "num_shards"}
        if self.traced:
            options["sketch_wrapper"] = self.registry.wrapper
        return options

    def build(self, directory: Path):
        w = self.w
        if self.tenancy:
            options = self.service_options()
            options.pop("backend", None)
            return MultiTenantService(
                factory=self.factory(),
                directory=directory,
                num_shards=w.service["num_shards"],
                max_resident_tenants=w.tenants["max_resident"],
                fs=self.fs,
                service_options=options,
            )
        kwargs = self.service_options()
        if w.durable:
            kwargs.update(directory=directory, fs=self.fs)
        return ShardedSketchService(self.factory(), w.service["num_shards"], **kwargs)

    def reopen(self, directory: Path):
        w = self.w
        if self.tenancy:
            options = self.service_options()
            options.pop("backend", None)
            return MultiTenantService.open(
                directory,
                factory=self.factory(),
                max_resident_tenants=w.tenants["max_resident"],
                fs=self.fs,
                service_options=options,
            )
        kwargs = self.service_options()
        kwargs.pop("backend", None)
        return ShardedSketchService.open(self.factory(), directory, fs=self.fs,
                                         **kwargs)

    def register(self, service) -> None:
        if self.tenancy:
            service.register_tenants(self.tenant_ids)

    # -- ingest --------------------------------------------------------------

    def next_batch(self):
        """The next producer batch: ``(tenant or None, start, keys, ts)``."""
        start = self.batches * self.w.batch_items
        stop = start + self.w.batch_items
        tenant = None
        if self.tenancy:
            index = self.tenant_of_batch[self.batches % len(self.tenant_of_batch)]
            tenant = self.tenant_ids[index]
        return tenant, start, self.stream.keys(start, stop), self.stream.timestamps(start, stop)

    def ingest(self, service, tenant, keys, ts):
        if tenant is None:
            return service.ingest_batch(keys, ts)
        return service.ingest_batch(tenant, keys, ts)

    def record(self, tenant, start, receipt, returned_at) -> None:
        """Producer bookkeeping after one accepted call (reader reads it)."""
        self.items += receipt.accepted
        self.failed += receipt.dropped > 0
        if tenant is None:
            # seq_cums first: the reader indexes it by a position in seqnos
            self.seq_cums.append(start + receipt.accepted)
            self.seqnos.append(receipt.seqno)
        else:
            cums = self.t_cums[tenant]
            self.t_starts[tenant].append(start)
            cums.append((cums[-1] if cums else 0) + receipt.accepted)
            self.t_receipts[tenant].append(receipt)
        self.batches += 1
        if self.batches % LAG_SAMPLE_EVERY == 0:
            self.pending.append((receipt, returned_at))

    # -- visibility ----------------------------------------------------------

    def frontier(self) -> int:
        """Items of the global stream visible to queries right now."""
        wm = self.service.watermark()
        i = bisect.bisect_right(self.seqnos, wm) - 1
        return self.seq_cums[i] if i >= 0 else 0

    def tenant_frontier(self, tenant) -> int:
        receipts = self.t_receipts[tenant]
        n = len(receipts)
        if n and self.service.wait_for(receipts[n - 1], timeout=0):
            self.t_confirmed[tenant] = self.t_cums[tenant][n - 1]
        return self.t_confirmed[tenant]

    def poll(self, lags) -> None:
        pending = self.pending
        if not pending:
            return
        if self.tenancy:
            # receipts of different tenants become visible out of order
            for entry in list(pending)[:POLL_TENANT_RECEIPTS]:
                if self.service.wait_for(entry[0], timeout=0):
                    lags.append(time.perf_counter() - entry[1])
                    pending.remove(entry)
        else:
            wm = self.service.watermark()
            while pending and pending[0][0].seqno <= wm:
                lags.append(time.perf_counter() - pending.popleft()[1])
        if self.traced:
            if self.tenancy:
                depth = self.items - sum(e.items for e in self.registry.entries)
            else:
                depth = sum(self.service.health()["queue_depths"].values())
            self.backlog_max = max(self.backlog_max, depth)

    def tenant_submitted(self, tenant) -> int:
        """Upper bound on a tenant's items the service may hold right now.

        The producer's call in flight may already be applied before
        :meth:`record` counts it, so a suffix window can end past the last
        recorded batch.  Batches before ``self.batches`` are fully
        recorded; the in-flight one is batch number ``self.batches``.
        """
        current = self.batches
        n = bisect.bisect_left(self.t_starts[tenant], current * self.w.batch_items)
        recorded = self.t_cums[tenant][n - 1] if n else 0
        index = self.tenant_of_batch[current % len(self.tenant_of_batch)]
        in_flight = self.tenant_ids[index] == tenant
        return recorded + (self.w.batch_items if in_flight else 0)

    def tenant_keys(self, tenant):
        """``(keys, timestamps)`` of everything a tenant accepted, in order."""
        index = np.concatenate(
            [np.arange(s, s + self.w.batch_items) for s in self.t_starts[tenant]])
        return self.stream.base[index % self.stream.length], index.astype(float) + T0

    def tenant_item(self, tenant, index):
        """Global item index of a tenant's ``index``-th item."""
        cums = self.t_cums[tenant]
        b = bisect.bisect_right(cums, index)
        before = cums[b - 1] if b else 0
        return self.t_starts[tenant][b] + (index - before)

    # -- queries -------------------------------------------------------------

    def query(self, j: int):
        """Issue query number ``j``; returns an audit record or None."""
        rng = self.reader_rng
        svc = self.service
        if self.tenancy:
            tenant = self.tenant_ids[self.tenant_of_query[j % len(self.tenant_of_query)]]
            lo = self.tenant_frontier(tenant)
            if lo == 0:
                return None
            frac = (0.0, 0.25, 0.5, 0.75)[int(rng.integers(4))]
            t = float(T0 + self.tenant_item(tenant, int(frac * lo)))
            if j % 2 == 0:
                answer = svc.heavy_hitters_since(tenant, t, self.w.tenants["phi"])
                key = None
            else:
                key = int(self.stream.base[self.tenant_item(tenant, int(rng.integers(lo)))
                                           % self.stream.length])
                answer = svc.estimate_since(tenant, key, t)
            return ("since", tenant, t, key, answer, lo, self.tenant_submitted(tenant))
        n = self.frontier()
        if n == 0:
            return None
        index = int(rng.integers(n))
        t = T0 + index
        key = int(self.stream.base[int(rng.integers(n)) % self.stream.length])
        if self.w.structure == "ChainCountMin":
            if j % 2 == 1:
                return ("weight", None, t, None, svc.total_weight_at(t), index + 1, None)
            return ("point", None, t, key, svc.estimate_at(key, t), index + 1, None)
        sketch = svc.merged_sketch_at(t)
        return ("point", None, t, key, sketch.query(key), index + 1, None)

    def reader(self, stop_at: float, out: dict) -> None:
        period = 1.0 / self.w.query_rate
        due = time.perf_counter()
        j = 0
        lat, late, calls, lags, audits = [], [], [], [], []
        failed = attempted = 0
        while due < stop_at:
            self.poll(lags)
            if time.perf_counter() < due:
                time.sleep(min(POLL_SECONDS, max(0.0, due - time.perf_counter())))
                continue
            start = time.perf_counter()
            try:
                record = self.query(j)
            except Exception as exc:  # a failed query counts; keep reading
                failed += 1
                attempted += 1
                self.errors.append(f"query: {exc!r}")
                record = None
            else:
                if record is not None:
                    attempted += 1
            done = time.perf_counter()
            if record is not None:
                lat.append(done - due)
                late.append(start - due)
                calls.append(done - start)
                if len(audits) < AUDIT_CAP:
                    audits.append(record)
            j += 1
            due += period
        out.update(lat=lat, late=late, calls=calls, lags=lags, audits=audits,
                   failed=failed, attempted=attempted)

    # -- the run -------------------------------------------------------------

    def setup(self):
        """Build the service ``SETUP_REPEATS`` times; keep the last one.

        Each build is timed from construction until its first batch is
        accepted; all but the last are closed and deleted.
        """
        times = []
        first = self.next_batch()
        for repeat in range(SETUP_REPEATS):
            directory = self.workdir / f"svc-{repeat}"
            start = time.perf_counter()
            service = self.build(directory)
            self.register(service)
            receipt = self.ingest(service, first[0], first[2], first[3])
            times.append(time.perf_counter() - start)
            if repeat < SETUP_REPEATS - 1:
                service.close()
                shutil.rmtree(directory, ignore_errors=True)
                if self.registry is not None:
                    self.registry.entries.clear()
        self.service = service
        self.directory = directory
        self.record(first[0], first[1], receipt, time.perf_counter())
        return times

    def run(self) -> dict:
        setup_times = self.setup()
        if self.traced:
            TELEMETRY.registry.reset()
            SPANS.clear()
            if self.fs is not None:
                self.fs.snapshots = self.fs.snapshot_bytes = 0
        svc = self.service
        reader_out: dict = {}
        loop_start = time.perf_counter()
        deadline = loop_start + self.seconds
        reader = threading.Thread(target=self.reader, args=(deadline, reader_out),
                                  name="bench-reader")
        reader.start()
        call_lat = []
        bench_s = 0.0
        loop_items = 0
        try:
            while time.perf_counter() < deadline:
                b0 = time.perf_counter()
                tenant, start, keys, ts = self.next_batch()
                c0 = time.perf_counter()
                try:
                    receipt = self.ingest(svc, tenant, keys, ts)
                except Exception as exc:
                    self.failed += 1
                    self.errors.append(f"ingest: {exc!r}")
                    break
                c1 = time.perf_counter()
                call_lat.append(c1 - c0)
                self.record(tenant, start, receipt, c1)
                loop_items += receipt.accepted
                bench_s += (c0 - b0) + (time.perf_counter() - c1)
            d0 = time.perf_counter()
            svc.drain()
            d1 = time.perf_counter()
        finally:
            reader.join()
        wall = d1 - loop_start
        result = {
            "setup_times": setup_times,
            "wall": wall,
            "loop_items": loop_items,
            "call_lat": call_lat,
            "call_s": float(sum(call_lat)),
            "bench_s": bench_s,
            "drain_s": d1 - d0,
            "reader": reader_out,
        }
        if self.traced:
            result["layers"] = self.read_layers(result)
        result["state_bytes"] = self.state_bytes()
        result["checks"] = self.check_totals()
        result["verdict"] = self.audit(reader_out["audits"])
        if self.w.durable:
            result.update(self.reopen_check())
        else:
            svc.close()
        result["ops"] = self.batches + reader_out["attempted"]
        result["failed_ops"] = self.failed + reader_out["failed"]
        result["errors"] = self.errors
        return result

    def state_bytes(self) -> int:
        if self.tenancy:
            # every tenant, resident or spilled (its size when last measured)
            svc = self.service
            return sum(int(svc.resident_bytes(t, refresh=True))
                       for t in self.tenant_ids if self.t_cums[t])
        return int(self.service.resident_bytes())

    # -- checks --------------------------------------------------------------

    def check_totals(self) -> list:
        """Final-weight checks: the structure holds every accepted item."""
        svc = self.service
        failures = []
        n = self.items
        t_last = T0 + n - 1
        if self.tenancy:
            # BitpTreeMisraGries has no total-weight query: check that the
            # tenancy layer applied exactly what each tenant accepted
            for tenant in self.tenant_ids:
                cums = self.t_cums[tenant]
                accepted = cums[-1] if cums else 0
                ingested = svc.registry.get(tenant).items_ingested
                if ingested != accepted or (cums and not svc.wait_for(
                        self.t_receipts[tenant][-1], timeout=0)):
                    failures.append(f"{tenant}: {ingested} ingested, {accepted} accepted")
            return failures
        applied = sum(s["items_applied"] for s in svc.stats()["shards"])
        if applied != n:
            failures.append(f"applied {applied} != accepted {n}")
        if self.w.structure == "ChainCountMin":
            weight = svc.total_weight_at(t_last)
            verdict = oracle.Verdict()
            oracle.check_weight_history(verdict, weight, n)
            if not verdict.passed():
                failures.append(f"total_weight_at {weight} vs {n} accepted")
        else:
            weight = svc.merged_sketch_at(t_last).total_weight
            if weight != n:
                failures.append(f"total weight {weight} != accepted {n}")
        return failures

    def audit(self, audits) -> oracle.Verdict:
        p = self.w.params
        verdict = oracle.Verdict()
        if self.tenancy:
            arrays = {t: self.tenant_keys(t)[0] for t in self.tenant_ids if self.t_starts[t]}
            for _, tenant, t, key, answer, lo, hi in audits:
                keys = arrays[tenant]
                start = self._tenant_index_at(tenant, t)
                window_lo, window_hi = keys[start:lo], keys[start:hi]
                if key is None:
                    oracle.check_mg_heavy_hitters(
                        verdict, answer, window_lo, window_hi, self.w.tenants["phi"],
                        p["eps"], p["block_size"], note=(tenant, t))
                else:
                    oracle.check_mg_since(
                        verdict, answer, int(np.count_nonzero(window_lo == key)),
                        int(np.count_nonzero(window_hi == key)), len(window_hi),
                        p["eps"], p["block_size"], note=(tenant, t, key))
            return verdict
        verdict.delta = oracle.countmin_delta(p["depth"])
        eps = p.get("eps", p.get("eps_ckpt"))
        for kind, _, t, key, answer, n, _ in audits:
            if kind == "weight":
                oracle.check_weight_history(verdict, answer, n, note=t)
            else:
                oracle.check_chain_point(verdict, answer, self.stream.count(key, n), n,
                                         eps, p["width"], note=(t, key))
        return verdict

    def _tenant_index_at(self, tenant, t) -> int:
        """Index of a tenant's first item with timestamp >= ``t``."""
        target = CyclicStream.index_of(t)
        starts, cums = self.t_starts[tenant], self.t_cums[tenant]
        b = bisect.bisect_right(starts, target) - 1
        if b < 0:
            return 0
        before = cums[b - 1] if b else 0
        return before + min(target - starts[b], cums[b] - before)

    def probes(self):
        """Deterministic reopen probes over the ingested data."""
        rng = np.random.default_rng([self.seed, 3])
        out = []
        if self.tenancy:
            tenants = [t for t in self.tenant_ids if self.t_cums[t]]
            for i in range(REOPEN_PROBES):
                tenant = tenants[i % len(tenants)]
                count = self.t_cums[tenant][-1]
                index = self.tenant_item(tenant, int(rng.integers(count)))
                key = int(self.stream.base[index % self.stream.length])
                out.append((tenant, T0 + index, key))
            return out
        for _ in range(REOPEN_PROBES):
            index = int(rng.integers(self.items))
            key = int(self.stream.base[int(rng.integers(self.items)) % self.stream.length])
            out.append((None, T0 + index, key))
        return out

    def answer(self, svc, probe):
        tenant, t, key = probe
        if tenant is None:
            return svc.merged_sketch_at(t).query(key)
        return (svc.estimate_since(tenant, key, t),
                sorted(svc.heavy_hitters_since(tenant, t, self.w.tenants["phi"])))

    def reopen_check(self) -> dict:
        """Close, measure the disk, reopen; answers must match exactly."""
        probes = self.probes()
        before = [self.answer(self.service, p) for p in probes]
        if self.traced:
            reload_s = layers.hist("recovery_seconds")[0]
        self.service.close()
        disk = dir_bytes(self.directory)
        start = time.perf_counter()
        svc = self.reopen(self.directory)
        after = [self.answer(svc, probes[0])]
        reopen_s = time.perf_counter() - start
        after += [self.answer(svc, p) for p in probes[1:]]
        svc.close()
        out = {"reopen_s": reopen_s, "disk_bytes": disk,
               "reopen_mismatches": sum(a != b for a, b in zip(before, after))}
        if self.traced:
            out["reload_s"] = reload_s
        return out

    # -- per-layer -----------------------------------------------------------

    def read_layers(self, res: dict) -> dict:
        hits = layers.counter("service_query_cache_hits_total")
        misses = layers.counter("service_query_cache_misses_total")
        stats = [entry.as_dict() for entry in self.registry.entries]
        total = layers.sum_stats(stats)
        reader = res["reader"]
        program_ingest = layers.span_seconds("service.ingest_batch")
        enqueue = layers.span_seconds("service.enqueue")
        tenancy_front = res["call_s"] - program_ingest if self.tenancy else 0.0
        seals = (layers.counter("checkpoint_seals_total")
                 + layers.counter("merge_tree_block_seals_total"))
        snap_s, snaps = layers.hist("store_snapshot_seconds")
        out = {
            "core.update_batch_s": total["core_update_s"],
            "core.items_per_s": (total["core_items"] / total["core_update_s"]
                                 if total["core_update_s"] else 0.0),
            "core.query_s": total["core_query_s"],
            "core.checkpoints": seals,
            "worker.apply_s": total["apply_s"],
            "service.items_per_apply": (total["items"] / total["applies"]
                                        if total["applies"] else 0.0),
            "service.queue_wait_s": layers.hist("service_queue_wait_seconds")[0],
            "service.backlog_items_max": float(self.backlog_max),
            "coordinator.wait_s": float(sum(reader["calls"])) - total["core_query_s"],
            "coordinator.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "service.ingest_batch_s": res["call_s"],
            "service.drain_s": res["drain_s"],
            "store.apply_s": (total["apply_s"] - total["core_update_s"]
                              if self.w.durable else 0.0),
            "store.snapshots": float(snaps),
            "store.snapshot_s": snap_s,
            "store.snapshot_bytes": (self.fs.snapshot_bytes / self.fs.snapshots
                                     if self.fs is not None and self.fs.snapshots else 0.0),
            "wal.append_s": layers.hist("wal_append_seconds")[0],
            "wal.bytes": layers.counter("wal_bytes_appended_total"),
            "tenancy.spills": layers.counter("service_tenant_spills_total"),
            "tenancy.reloads": layers.counter("service_tenant_reloads_total"),
            "tenancy.rejects": layers.counter("service_tenant_rejects_total"),
            "bench.producer_s": res["bench_s"],
            "tenancy.front_s": tenancy_front,
            "router.front_s": (program_ingest if self.tenancy else res["call_s"]) - enqueue,
            "worker.enqueue_s": enqueue,
        }
        out["trace.wall_s"] = res["wall"]
        ledger = ("bench.producer_s", "tenancy.front_s", "router.front_s",
                  "worker.enqueue_s", "service.drain_s")
        out["trace.unattributed_s"] = res["wall"] - sum(out[k] for k in ledger)
        out["_stats"] = stats
        return out


REPLAY_CHUNK = 1 << 20


def _stream_chunks(run: Run):
    """The run's ingested items, in order, chunk by chunk."""
    for start in range(0, run.items, REPLAY_CHUNK):
        stop = min(run.items, start + REPLAY_CHUNK)
        yield run.stream.keys(start, stop), run.stream.timestamps(start, stop)


def _replay(structure, chunks, sizes) -> tuple:
    """Apply consecutive ``sizes``-item batches cut from ``chunks``; time them."""
    elapsed, applied = 0.0, 0
    sizes = iter(sizes)
    size = next(sizes, None)
    keys, ts = np.empty(0, dtype=np.int64), np.empty(0)
    for chunk_keys, chunk_ts in chunks:
        if size is None:
            break
        keys, ts = np.concatenate([keys, chunk_keys]), np.concatenate([ts, chunk_ts])
        position = 0
        while size is not None and len(keys) - position >= size:
            stop = position + size
            start = time.perf_counter()
            apply_stream_batch(structure, keys[position:stop], ts[position:stop])
            elapsed += time.perf_counter() - start
            applied += size
            position = stop
            size = next(sizes, None)
        keys, ts = keys[position:], ts[position:]
    return elapsed, applied


def bare_replay(run: Run, stats: list) -> dict:
    """Replay each shard's recorded fused applies into a bare structure.

    No service, no store, one thread: the structure's own cost for exactly
    the batches the traced run applied.
    """
    if run.tenancy:
        by_label = collections.defaultdict(list)
        for entry in stats:
            by_label[entry["label"]].extend(entry["sizes"])
        jobs = [([run.tenant_keys(t)], by_label[run.service.registry.get(t).slug])
                for t in run.tenant_ids if run.t_starts[t]]
    else:  # one shard: it applied the whole stream, in order
        jobs = [(_stream_chunks(run), entry["sizes"]) for entry in stats]
    elapsed = 0.0
    items = 0
    for chunks, sizes in jobs:
        seconds, applied = _replay(run.base_factory(), chunks, sizes)
        elapsed += seconds
        items += applied
    return {"bare.update_batch_s": elapsed,
            "bare.items_per_s": items / elapsed if elapsed else 0.0}
