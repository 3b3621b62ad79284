"""Exact ground truth and the paper bounds each sampled answer must meet.

Every audited answer is judged against its structure's theorem, with the
exact value computed from the generated stream:

* ``ChainCountMin.estimate_at`` (Lemma 4.2) and a point estimate on a
  ``CheckpointChain(CountMin)`` snapshot (Lemma 4.1): the chain loses at
  most ``eps * W(t)`` (deterministic), CountMin adds at most
  ``(e / width) * W(t)`` with probability ``1 - exp(-depth)``;
* ``ChainCountMin.total_weight_at``: the geometric weight history
  (``delta = 0.01``) under-reports ``W(t)`` by less than a factor 1.01;
* ``BitpTreeMisraGries`` (Section 5): Misra-Gries under-counts the cover by
  at most ``eps/2`` of its weight, the cover drops at most ``eps/2`` of the
  window and over-covers by at most one leaf block at the old edge; heavy
  hitters are returned with the ``eps`` recall margin, so no key heavy over
  the window may be missing.

Bounds that hold only with probability ``1 - delta`` are tallied apart: the
run fails only when their violations exceed a binomial allowance
(:func:`allowed_violations`).  A deterministic bound has no allowance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Relative under-report allowed by ``GeometricHistory(delta=0.01)``.
WEIGHT_HISTORY_DELTA = 0.01
_TOL = 1e-9


@dataclass
class Verdict:
    """Tally of audited answers."""

    audited: int = 0
    violations: int = 0
    hard_violations: int = 0
    probabilistic: int = 0
    probabilistic_violations: int = 0
    delta: float = 0.0
    examples: list = field(default_factory=list)

    def record(self, ok_hard: bool, ok_prob: bool = True, prob: bool = False,
               note=None) -> None:
        self.audited += 1
        if prob:
            self.probabilistic += 1
        if not ok_hard:
            self.hard_violations += 1
        if prob and not ok_prob:
            self.probabilistic_violations += 1
        if not (ok_hard and ok_prob):
            self.violations += 1
            if len(self.examples) < 5:
                self.examples.append(note)

    @property
    def ratio(self) -> float:
        return self.violations / self.audited if self.audited else 0.0

    def passed(self) -> bool:
        return self.hard_violations == 0 and self.probabilistic_violations <= (
            allowed_violations(self.probabilistic, self.delta)
        )


def allowed_violations(n: int, delta: float) -> int:
    """Violations tolerated among ``n`` answers each failing w.p. ``delta``.

    The mean plus four standard deviations of Binomial(n, delta), rounded
    up: a correct structure exceeds it with probability well under 1e-4.
    """
    if n == 0 or delta <= 0:
        return 0
    return math.ceil(n * delta + 4.0 * math.sqrt(n * delta * (1.0 - delta)))


def countmin_delta(depth: int) -> float:
    return math.exp(-depth)


def check_chain_point(verdict: Verdict, estimate: float, exact: int, weight: int,
                      eps: float, width: int, note=None) -> None:
    """A chained CountMin point estimate at ``t`` (Lemma 4.1 / 4.2)."""
    slack = _TOL * max(weight, 1)
    lower = exact - eps * weight - slack
    upper = exact + (math.e / width) * weight + slack
    verdict.record(estimate >= lower, estimate <= upper, prob=True,
                   note=(note, estimate, exact, weight))


def check_weight_history(verdict: Verdict, estimate: float, weight: int,
                         note=None) -> None:
    """``total_weight_at(t)`` from a geometric history of ``W``."""
    ok = weight / (1.0 + WEIGHT_HISTORY_DELTA) - _TOL <= estimate <= weight + _TOL
    verdict.record(ok, note=(note, estimate, weight))


def check_mg_since(verdict: Verdict, estimate: float, exact_lo: int, exact_hi: int,
                   weight_hi: int, eps: float, block: int, note=None) -> None:
    """A BITP merge-tree Misra-Gries suffix estimate.

    The window's newest end is only known to lie between two applied
    frontiers (``lo`` and ``hi``), so the bound is taken over both.
    """
    lower = exact_lo - eps * (weight_hi + block) - _TOL
    upper = exact_hi + block + _TOL
    verdict.record(lower <= estimate <= upper,
                   note=(note, estimate, exact_lo, exact_hi, weight_hi))


def check_mg_heavy_hitters(verdict: Verdict, answer, window_lo: np.ndarray,
                           window_hi: np.ndarray, phi: float, eps: float,
                           block: int, note=None) -> None:
    """BITP heavy hitters: full recall, and no key far below ``phi``."""
    returned = set(int(k) for k in answer)
    weight_lo, weight_hi = len(window_lo), len(window_hi)
    keys_lo, counts_lo = np.unique(window_lo, return_counts=True)
    must = set(keys_lo[counts_lo >= phi * weight_hi].tolist())
    ok = must <= returned
    if ok and returned:
        keys_hi, counts_hi = np.unique(window_hi, return_counts=True)
        count_of = dict(zip(keys_hi.tolist(), counts_hi.tolist()))
        floor = (phi - eps) * (1.0 - eps) * weight_lo - block
        ok = all(count_of.get(key, 0) >= floor for key in returned)
    verdict.record(ok, note=(note, sorted(returned), sorted(must)))
