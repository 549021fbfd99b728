"""White-box soundness tests for the SOI algorithm's bounds.

Lemma 1 justifies the termination test ``LBk >= UB``; these tests verify
the two bound computations *during* a run, not just the final answer:

* at every block boundary of the filter, ``UB`` must dominate the true
  interest of every still-unseen segment;
* at every block boundary, ``LBk`` must lower-bound the true interest of
  the k-th best street.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import soi as soi_module
from repro.core.interest import (
    segment_interest,
    segment_mass_bruteforce,
)
from repro.core.soi import AccessStrategy, SOIEngine

from tests.conftest import random_networks, random_pois


def _true_segment_interests(network, pois, keywords, eps):
    out = {}
    for segment in network.iter_segments():
        mass = segment_mass_bruteforce(segment, pois, keywords, eps)
        out[segment.id] = segment_interest(mass, segment.length, eps)
    return out


def _kth_street_interest(network, seg_interests, k):
    best: dict[int, float] = {}
    for sid, value in seg_interests.items():
        street_id = network.segment(sid).street_id
        best[street_id] = max(best.get(street_id, 0.0), value)
    values = sorted(best.values(), reverse=True)
    return values[k - 1] if len(values) >= k else 0.0


class _BoundaryCheckedRun(soi_module._SOIRun):
    """Runs the real block-synchronous filter, asserting the bounds at
    every block boundary (each termination check is one)."""

    truth: dict[int, float] = {}
    kth = 0.0

    def _compute_ub(self) -> float:
        ub = super()._compute_ub()
        lbk = self._compute_lbk()
        store, layout = self.store, self.layout
        seen = store.seen_epoch == store.epoch
        # UB dominates every unseen segment's true interest.
        for dense, segment in enumerate(layout.segments):
            if not seen[dense]:
                value = self.truth[segment.id]
                assert value <= ub + 1e-9, (
                    f"unseen segment {segment.id} has interest {value} "
                    f"> UB {ub}")
        # LBk never exceeds the true k-th street interest.
        assert lbk <= self.kth + 1e-9
        self.boundaries += 1
        return ub


@given(network=random_networks(), pois=random_pois(min_size=3, max_size=20),
       strategy=st.sampled_from(list(AccessStrategy)))
@settings(max_examples=25)
def test_bounds_sound_at_every_step(network, pois, strategy):
    keywords = frozenset({"shop", "food"})
    eps = 0.001
    k = 3
    truth = _true_segment_interests(network, pois, keywords, eps)

    engine = SOIEngine(network, pois, cell_size=0.0015)
    run = _BoundaryCheckedRun(engine, keywords, k, eps, strategy,
                              True, False)
    run.truth = truth
    run.kth = _kth_street_interest(network, truth, k)
    run.boundaries = 0
    run.execute()
    assert run.boundaries == run.stats.termination_checks >= 1


@given(network=random_networks(), pois=random_pois(min_size=1, max_size=20))
@settings(max_examples=25)
def test_partial_masses_never_exceed_truth(network, pois):
    """A partial segment's accumulated mass is a lower bound on its true
    mass (UpdateInterest only ever adds confirmed POIs)."""
    keywords = frozenset({"shop"})
    eps = 0.001
    engine = SOIEngine(network, pois, cell_size=0.0015)
    run = soi_module._SOIRun(engine, keywords, 2, eps,
                             AccessStrategy.ALTERNATE, True, False)
    run._build_source_lists()
    # apply a few blocks of cell accesses only, leaving many segments
    # partial
    no_segments = np.zeros(0, dtype=np.int64)
    for _ in range(3):
        cells = run.sl1.pop_block(2)
        if not cells.shape[0]:
            break
        run._apply_block(cells, no_segments)
    store, layout = run.store, run.layout
    for dense in np.flatnonzero(store.seen_epoch == store.epoch).tolist():
        segment = layout.segments[dense]
        true_mass = segment_mass_bruteforce(segment, pois, keywords, eps)
        assert store.mass[dense] <= true_mass + 1e-9
        if store.final_epoch[dense] == store.epoch:
            assert store.mass[dense] == pytest.approx(true_mass)
