"""The block-synchronous filter: answers independent of blocks and order.

Algorithm 1 pulls its source lists in blocks and checks Lemma 1 once per
block.  Checking less often only delays the stop and the refine computes
every reported mass exactly, so every access strategy, every block size
and the BL baseline must return ``==`` payloads (street ids, interests and
best segments), weighted queries included.  The edge cases of a block —
a ``k`` beyond the streets that have any interest, a list running dry
inside a block, a one-cell network and a block that overshoots the stop —
are pinned individually.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import soi as soi_module
from repro.core.soi import AccessStrategy, SOIEngine
from repro.core.soi_baseline import BaselineSOI
from repro.data.poi import POI, POISet
from repro.datagen.presets import build_preset
from repro.eval.experiments import PAPER_QUERY_KEYWORDS
from repro.network.builder import RoadNetworkBuilder
from repro.serve.server import SOIRequest, serve_request

from tests.conftest import KEYWORD_POOL, random_networks

EPS = 0.0005

queries = st.sets(st.sampled_from(KEYWORD_POOL), min_size=1, max_size=3)


@st.composite
def weighted_pois(draw, max_size: int = 30) -> POISet:
    """POIs with varied weights, so weighted masses are not integers and
    their summation order shows."""
    coordinate = st.floats(min_value=0.0, max_value=0.016,
                           allow_nan=False, allow_infinity=False)
    items = draw(st.lists(
        st.tuples(coordinate, coordinate,
                  st.frozensets(st.sampled_from(KEYWORD_POOL), min_size=1,
                                max_size=3),
                  st.floats(min_value=0.01, max_value=10.0)),
        min_size=1, max_size=max_size))
    return POISet(POI(i, x, y, kws, weight=w)
                  for i, (x, y, kws, w) in enumerate(items))


def _payload(results):
    return [(r.street_id, r.interest, r.best_segment_id) for r in results]


@given(network=random_networks(), pois=weighted_pois(), keywords=queries,
       k=st.integers(min_value=1, max_value=6), weighted=st.booleans())
@settings(max_examples=40, deadline=None)
def test_all_access_strategies_return_equal_payloads(network, pois, keywords,
                                                     k, weighted):
    engine = SOIEngine(network, pois)
    reference = _payload(BaselineSOI(engine).top_k(keywords, k, EPS,
                                                   weighted=weighted))
    for strategy in AccessStrategy:
        for use_session in (False, True):
            results = engine.top_k(keywords, k, EPS, strategy=strategy,
                                   weighted=weighted,
                                   use_session=use_session)
            assert _payload(results) == reference, (strategy, use_session)


@given(network=random_networks(), pois=weighted_pois(), keywords=queries,
       k=st.integers(min_value=1, max_value=6), weighted=st.booleans(),
       strategy=st.sampled_from(list(AccessStrategy)))
@settings(max_examples=30, deadline=None)
def test_block_size_never_changes_the_answer(network, pois, keywords, k,
                                             weighted, strategy):
    engine = SOIEngine(network, pois)
    blocked, _stats = engine.top_k_with_stats(
        keywords, k, EPS, strategy=strategy, weighted=weighted,
        use_session=False)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(soi_module, "_BLOCK_START", 1)
        patch.setattr(soi_module, "_BLOCK_MAX", 1)
        per_pull, stats = engine.top_k_with_stats(
            keywords, k, EPS, strategy=strategy, weighted=weighted,
            use_session=False)
    assert _payload(blocked) == _payload(per_pull)
    assert stats.termination_checks >= stats.iterations


def test_k_above_positive_streets_returns_every_positive_street(small_city):
    engine = SOIEngine(small_city.network, small_city.pois)
    everything = BaselineSOI(engine).top_k(["shop"], k=10**6)
    assert 0 < len(everything) < len(small_city.network.streets)
    for strategy in AccessStrategy:
        results, stats = engine.top_k_with_stats(["shop"], 10**6,
                                                 strategy=strategy)
        assert results == everything
        # LBk stays 0 below k positive streets, so the filter stops only
        # once UB is 0: every SL1 cell popped or no unseen segment left.
        bindings = engine.session_for(["shop"]).store_bindings(
            engine.store_layout(EPS))
        assert (stats.cells_popped == bindings.sl1_cells.shape[0]
                or stats.segments_seen == len(small_city.network.segments))


def test_list_running_dry_mid_block_hands_over_to_the_next(small_city):
    engine = SOIEngine(small_city.network, small_city.pois)
    run = soi_module._SOIRun(engine, frozenset({"shop"}), 3, EPS,
                             AccessStrategy.CELLS_FIRST, True, False)
    run._build_source_lists()
    cells_left = len(run.sl1)
    assert cells_left > 2
    run.sl1.pop_block(cells_left - 2)  # leave two cells
    cells, segments, sources, _position = run._pop_block(8, 0)
    assert cells.shape[0] == 2 and segments.shape[0] == 6
    assert sources == ["SL1", "SL2"]
    assert len(run.sl1) == 0
    run._apply_block(cells, segments)
    store = run.store
    assert (store.final_epoch[segments] == store.epoch).all()


def _one_cell_city():
    builder = RoadNetworkBuilder()
    a = builder.add_vertex(0.0100, 0.0100)
    b = builder.add_vertex(0.0102, 0.0101)
    builder.add_street("Tiny Lane", [a, b])
    network = builder.build()
    pois = POISet([POI(0, 0.0101, 0.01005, frozenset({"shop"})),
                   POI(1, 0.0101, 0.0100, frozenset({"shop"})),
                   POI(2, 0.0300, 0.0300, frozenset({"shop"}))])
    return network, pois


def test_one_cell_network():
    network, pois = _one_cell_city()
    engine = SOIEngine(network, pois, cell_size=0.01, extent_margin=0.0)
    layout = engine.store_layout(EPS)
    assert layout.num_segments == 1 and layout.num_cells == 1
    for strategy in AccessStrategy:
        results, stats = engine.top_k_with_stats(["shop"], 3,
                                                 strategy=strategy)
        assert results == BaselineSOI(engine).top_k(["shop"], 3)
        assert [r.street_name for r in results] == ["Tiny Lane"]
        assert stats.iterations <= 2


def test_block_overshooting_the_stop_keeps_the_answer(small_city):
    """A k=1 query stops after a couple of blocks; the last block pulls
    past the point where a per-pull check would have stopped, and the
    answer is the same."""
    engine = SOIEngine(small_city.network, small_city.pois)
    blocked, stats = engine.top_k_with_stats(["shop"], 1, use_session=False)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(soi_module, "_BLOCK_START", 1)
        patch.setattr(soi_module, "_BLOCK_MAX", 1)
        per_pull, exact_stop = engine.top_k_with_stats(["shop"], 1,
                                                       use_session=False)
    assert stats.iterations > exact_stop.iterations
    assert stats.termination_checks < exact_stop.termination_checks
    assert blocked == per_pull == BaselineSOI(engine).top_k(["shop"], 1)


@pytest.mark.parametrize("preset", ["vienna", "berlin"])
def test_served_answers_equal_baseline_on_presets(preset):
    """``serve_request`` against BL with ``==`` on the fig-4 defaults
    (|Psi| sweep and k sweep of the paper's keywords)."""
    city = build_preset(preset, 1.0)
    engine = SOIEngine(city.network, city.pois)
    baseline = BaselineSOI(engine)
    for size in range(1, 5):
        keywords = tuple(PAPER_QUERY_KEYWORDS[:size])
        for k in (10, 25, 50, 100):
            served = serve_request(engine, None, SOIRequest(keywords, k))
            assert served == baseline.top_k(keywords, k), (keywords, k)
