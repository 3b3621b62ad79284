"""The three workloads: paper structure, ε, stream and fixed service options.

Each workload is one paper structure behind a public service façade.  The
options below are part of the benchmark definition: a change that claims a
gain must not edit them.  ``perfbench/design.json`` records the same table
with the reason each workload exists.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from repro.core.checkpoint_chain import CheckpointChain
from repro.core.elementwise import ChainCountMin
from repro.persistent.heavy_hitters import BitpTreeMisraGries
from repro.sketches.countmin import CountMinSketch


def chain_countmin(width, depth, eps_ckpt):
    return ChainCountMin(width=width, depth=depth, eps_ckpt=eps_ckpt)


def checkpoint_chain_countmin(width, depth, eps):
    return CheckpointChain(functools.partial(CountMinSketch, width, depth), eps=eps)


def bitp_tree_mg(eps, block_size):
    return BitpTreeMisraGries(eps=eps, block_size=block_size)


STRUCTURES = {
    "ChainCountMin": chain_countmin,
    "CheckpointChain(CountMin)": checkpoint_chain_countmin,
    "BitpTreeMisraGries": bitp_tree_mg,
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (all fields are recorded in provenance)."""

    name: str
    structure: str
    params: dict
    stream: str
    #: ShardedSketchService keyword options (per tenant service for tenants).
    service: dict
    durable: bool
    tenants: Optional[dict] = None
    #: Items per producer ``ingest_batch`` call, the same on every workload
    #: (``design.json`` records the sweep that chose it).
    batch_items: int = 1024
    #: Open-loop reader rate (queries per second), the same on every workload.
    query_rate: float = 5.0

    def factory(self):
        return functools.partial(STRUCTURES[self.structure], **self.params)

    def describe(self) -> dict:
        return {
            "structure": self.structure,
            "params": dict(self.params),
            "stream": self.stream,
            "service": dict(self.service),
            "durable": self.durable,
            "batch_items": self.batch_items,
            "query_rate": self.query_rate,
            "tenants": None if self.tenants is None else dict(self.tenants),
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="attp-elementwise",
            structure="ChainCountMin",
            params={"width": 2048, "depth": 4, "eps_ckpt": 1e-3},
            stream="client-id",
            service={"num_shards": 1, "backend": "thread"},
            durable=False,
        ),
        Workload(
            name="attp-chain-durable",
            structure="CheckpointChain(CountMin)",
            params={"width": 2048, "depth": 4, "eps": 0.01},
            stream="client-id",
            service={"num_shards": 1, "backend": "thread"},
            durable=True,
        ),
        Workload(
            name="bitp-tenants",
            structure="BitpTreeMisraGries",
            params={"eps": 4e-3, "block_size": 64},
            stream="object-id",
            service={"num_shards": 1, "backend": "thread"},
            durable=True,
            tenants={"count": 12, "max_resident": 4, "zipf_s": 1.2,
                     "phi": 0.01},
        ),
    )
}
