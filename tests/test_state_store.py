"""The flat segment-state store and the incremental top-k threshold.

:class:`~repro.core.state_store.TopKThreshold` must return exactly the
float ``heapq.nlargest(k, values)[-1]`` would, after any interleaving of
per-key updates (values per key only ever improve — the SOI lower bounds
are monotone).  The store's pooled reuse and the filter's work budgets
are checked too; the answers themselves are pinned against brute force
in ``test_core_soi_property`` and ``test_core_soi_baseline``.

The whole module runs twice — plain and with the runtime invariant
contracts enabled (``REPRO_CHECK=1`` semantics) — via the autouse
fixture, mirroring ``test_perf_equivalence``.
"""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import contracts
from repro.core.soi import SOIEngine
from repro.core.state_store import TopKThreshold

from tests.conftest import KEYWORD_POOL, random_networks, random_pois

EPS = 0.0005


@pytest.fixture(params=[False, True], ids=["plain", "contracts"],
                autouse=True)
def _maybe_contracts(request):
    """Run every test in this module with contracts off and on."""
    previous = contracts.ENABLED
    if request.param:
        contracts.enable_contracts()
    try:
        yield
    finally:
        contracts.enable_contracts(previous)


queries = st.sets(st.sampled_from(KEYWORD_POOL), min_size=1, max_size=3)


# -- TopKThreshold -----------------------------------------------------------

def test_topk_threshold_none_below_k_keys():
    topk = TopKThreshold(3)
    assert topk.current() is None
    assert topk.update(1, 0.5)
    assert topk.update(2, 0.25)
    assert topk.current() is None  # two distinct keys < k
    assert topk.update(1, 0.75)    # improving key 1 adds no third key
    assert topk.current() is None
    assert topk.update(3, 0.1)
    assert topk.current() == 0.1


def test_topk_threshold_rejects_non_improving_updates():
    topk = TopKThreshold(1)
    assert topk.update(7, 1.0)
    assert not topk.update(7, 1.0)   # equal: not an improvement
    assert not topk.update(7, 0.5)   # smaller: ignored entirely
    assert topk.current() == 1.0
    assert len(topk) == 1


def test_topk_threshold_requires_positive_k():
    with pytest.raises(ValueError):
        TopKThreshold(0)


@given(k=st.integers(min_value=1, max_value=6),
       updates=st.lists(
           st.tuples(st.integers(min_value=0, max_value=12),
                     st.floats(min_value=0.0, max_value=100.0,
                               allow_nan=False)),
           max_size=120))
@settings(max_examples=120)
def test_topk_threshold_matches_nlargest_reference(k, updates):
    """After every update, ``current()`` == the nlargest rescan result."""
    topk = TopKThreshold(k)
    best: dict[int, float] = {}
    for key, value in updates:
        improved = value > best.get(key, 0.0)
        assert topk.update(key, value) is improved
        if improved:
            best[key] = value
        if len(best) < k:
            assert topk.current() is None
        else:
            assert topk.current() == heapq.nlargest(k, best.values())[-1]
    assert len(topk) == len(best)


def test_topk_threshold_compaction_stays_exact():
    """Many improvements to few keys force the lazy-heap compaction."""
    k = 2
    topk = TopKThreshold(k)
    best: dict[int, float] = {}
    for step in range(1, 800):
        key = step % 3
        value = float(step)
        topk.update(key, value)
        best[key] = max(best.get(key, 0.0), value)
        if len(best) >= k:
            assert topk.current() == heapq.nlargest(k, best.values())[-1]
    assert len(topk._heap) <= 4 * k + 64  # the compaction bound held


# -- session-pooled store reuse ----------------------------------------------

def test_warm_session_reuses_state_store(small_engine):
    engine = small_engine
    engine.invalidate_sessions()
    _res, cold = engine.top_k_with_stats(["food"], k=5, eps=EPS)
    _res, warm = engine.top_k_with_stats(["food"], k=5, eps=EPS)
    assert not cold.store_reused
    assert warm.store_reused
    session = engine.sessions.get(frozenset({"food"}))
    assert session is not None and session.store_reuses >= 1


# -- counter budgets ---------------------------------------------------------

@given(network=random_networks(), pois=random_pois(min_size=1),
       keywords=queries, k=st.integers(min_value=1, max_value=5))
@settings(max_examples=25)
def test_termination_check_budget(network, pois, keywords, k):
    """The LBk >= UB check runs at most once per _CHECK_EVERY iterations
    (plus the final top-of-loop check), never per-iteration."""
    engine = SOIEngine(network, pois)
    _res, stats = engine.top_k_with_stats(keywords, k=k, eps=EPS)
    assert stats.termination_checks <= stats.iterations // 4 + 2


@given(network=random_networks(), pois=random_pois(min_size=1),
       keywords=queries, k=st.integers(min_value=1, max_value=5))
@settings(max_examples=25)
def test_lbk_heap_update_budget(network, pois, keywords, k):
    """Heap updates happen only on strict per-street improvements, which
    a cell visit or a finalisation can produce at most once each."""
    engine = SOIEngine(network, pois)
    _res, stats = engine.top_k_with_stats(keywords, k=k, eps=EPS)
    budget = stats.cell_visits + stats.segments_seen + stats.refinement_finalized
    assert stats.lbk_heap_updates <= budget
