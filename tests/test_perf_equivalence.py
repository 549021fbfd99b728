"""Bit-identity of the performance layer against the plain paths.

The optimised paths — the slot-mass kernel, session-served SOI queries
and the incremental greedy MMR evaluator — must produce results *bitwise*
equal to the scalar/uncached/naive implementations.  Every property here
asserts exact ``==`` on floats, over random Hypothesis cities, and the
whole module runs twice: once plain and once with the runtime invariant
contracts enabled (``REPRO_CHECK=1`` semantics).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import contracts
from repro.core.describe.greedy import GreedyDescriber, _validate
from repro.core.describe.measures import MMREvaluator, mmr_value
from repro.core.describe.profile import StreetProfile
from repro.core.describe.st_rel_div import STRelDivDescriber
from repro.core.interest import RelevantCellCache, segment_mass
from repro.core.results import SOIStats
from repro.core.soi import SOIEngine
from repro.core.soi_baseline import BaselineSOI
from repro.core.state_store import MassSlots, SignatureBindings
from repro.data.keywords import KeywordFrequencyVector
from repro.geometry.bbox import BBox
from repro.geometry.distance import point_segment_distance

from tests.conftest import (
    KEYWORD_POOL,
    random_networks,
    random_photos,
    random_pois,
)

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


# -- slot-mass kernel --------------------------------------------------------

def _scalar_cell_mass(segment, cache, cell, weighted):
    """One cell's contribution with the scalar kernel, left to right."""
    _positions, xs, ys, weights = cache.get(cell)
    total = 0.0
    for x, y, w in zip(xs.tolist(), ys.tolist(), weights.tolist()):
        if point_segment_distance(x, y, segment.ax, segment.ay,
                                  segment.bx, segment.by) <= EPS:
            total += w if weighted else 1.0
    return total


@given(network=random_networks(), pois=random_pois(min_size=1),
       keywords=queries)
def test_batched_mass_equals_per_cell_sum(network, pois, keywords):
    """One row-kernel call over a segment's cells equals evaluating each
    cell alone with the scalar kernel and summing in cell order."""
    engine = SOIEngine(network, pois)
    query = frozenset(keywords)
    cache = RelevantCellCache(engine.poi_index, query)
    for segment in network.iter_segments():
        cells = engine.cell_maps.cells_of_segment(segment.id, EPS)
        for weighted in (False, True):
            per_cell = 0.0
            for cell in cells:
                per_cell += _scalar_cell_mass(segment, cache, cell, weighted)
            batched = segment_mass(segment, engine.poi_index,
                                   engine.cell_maps, query, EPS, weighted,
                                   cache=cache)
            assert batched == per_cell


@given(network=random_networks(), pois=random_pois(min_size=1),
       keywords=queries, weighted=st.booleans())
def test_batched_mass_cache_stores_exact_values(network, pois, keywords,
                                                weighted):
    """Every memoised (segment, cell) slot mass equals a fresh per-cell
    value, and a refill over the known slots changes nothing."""
    engine = SOIEngine(network, pois)
    query = frozenset(keywords)
    cache = RelevantCellCache(engine.poi_index, query)
    layout = engine.store_layout(EPS)
    bind = SignatureBindings(layout, engine.poi_index, query)
    memo = MassSlots(layout.num_slots)
    relevant = np.flatnonzero(bind.rel_count[layout.slot_cell] > 0)
    memo.fill(relevant, layout, bind, EPS, weighted)
    assert memo.known_count() == relevant.shape[0]
    for slot in relevant.tolist():
        segment = layout.segments[int(layout.slot_seg[slot])]
        cell = _layout_cell(layout, engine, slot)
        assert memo.mass[slot] == _scalar_cell_mass(segment, cache, cell,
                                                    weighted)
    before = memo.mass.copy()
    stats = SOIStats()
    memo.fill(relevant, layout, bind, EPS, weighted, stats)
    assert stats.mass_cache_hits == relevant.shape[0]
    assert stats.kernel_calls == 0
    assert np.array_equal(memo.mass, before)


def _layout_cell(layout, engine, slot):
    lin = int(layout.cell_lin[int(layout.slot_cell[slot])])
    ny = engine.poi_index.grid.ny
    return (lin // ny, lin % ny)


# -- session-served SOI ------------------------------------------------------

@given(network=random_networks(), pois=random_pois(min_size=1),
       keywords=queries, k=st.integers(min_value=1, max_value=5))
def test_session_soi_identical_to_uncached(network, pois, keywords, k):
    engine = SOIEngine(network, pois)
    baseline = engine.top_k(keywords, k=k, eps=EPS, use_session=False)
    cold = engine.top_k(keywords, k=k, eps=EPS)
    warm = engine.top_k(keywords, k=k, eps=EPS)  # mass memo fully hot
    assert cold == baseline
    assert warm == baseline


@given(network=random_networks(), pois=random_pois(min_size=1),
       keywords=queries)
def test_session_sweep_identical_to_uncached(network, pois, keywords):
    """A k-sweep on one warm session matches per-query fresh runs."""
    engine = SOIEngine(network, pois)
    for k in (1, 3, 5):
        fresh = engine.top_k(keywords, k=k, eps=EPS, use_session=False)
        assert engine.top_k(keywords, k=k, eps=EPS) == fresh


@given(network=random_networks(), pois=random_pois(min_size=1),
       keywords=queries)
def test_session_baseline_identical_to_uncached(network, pois, keywords):
    engine = SOIEngine(network, pois)
    baseline = BaselineSOI(engine)
    fresh = baseline.all_segment_interests(keywords, eps=EPS,
                                           use_session=False)
    assert baseline.all_segment_interests(keywords, eps=EPS) == fresh
    # Warm rerun (mass memo populated) must also be exact.
    assert baseline.all_segment_interests(keywords, eps=EPS) == fresh


# -- incremental greedy MMR --------------------------------------------------

def _naive_greedy(profile: StreetProfile, k: int, lam: float,
                  w: float) -> list[int]:
    """The pre-optimisation reference: recompute mmr_value from scratch."""
    _validate(k, lam, w)
    n = len(profile)
    selected: list[int] = []
    remaining = set(range(n))
    while len(selected) < min(k, n):
        best_pos = -1
        best_value = -1.0
        for pos in sorted(remaining):
            value = mmr_value(profile, pos, selected, lam, w, k)
            if value > best_value:
                best_value = value
                best_pos = pos
        selected.append(best_pos)
        remaining.discard(best_pos)
    return selected


def _profile_of(photos) -> StreetProfile:
    extent = BBox(-0.001, -0.001, 0.021, 0.021)
    freq: dict[str, float] = {}
    for photo in photos:
        for keyword in photo.keywords:
            freq[keyword] = freq.get(keyword, 0.0) + 1.0
    return StreetProfile(photos=photos, phi=KeywordFrequencyVector(freq),
                         max_d=extent.diagonal, extent=extent)


@given(photos=random_photos(min_size=1),
       k=st.integers(min_value=1, max_value=6),
       lam=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
       w=st.sampled_from([0.0, 0.5, 1.0]))
def test_incremental_greedy_matches_naive(photos, k, lam, w):
    profile = _profile_of(photos)
    assert GreedyDescriber(profile).select(k, lam, w) == \
        _naive_greedy(profile, k, lam, w)


@given(photos=random_photos(min_size=1),
       pos_pairs=st.data())
def test_evaluator_matches_mmr_value_bitwise(photos, pos_pairs):
    profile = _profile_of(photos)
    n = len(profile)
    k, lam, w = 4, 0.5, 0.5
    evaluator = MMREvaluator(profile, lam, w, k)
    selected: list[int] = []
    order = pos_pairs.draw(st.permutations(range(n)))
    for pos in order[: min(3, n)]:
        for candidate in range(n):
            assert evaluator.value(candidate) == mmr_value(
                profile, candidate, selected, lam, w, k)
        selected.append(pos)
        evaluator.extend_selection(pos)


@settings(max_examples=20)
@given(photos=random_photos(min_size=2, max_size=20),
       k=st.integers(min_value=2, max_value=5))
def test_st_rel_div_still_matches_greedy(photos, k):
    """Both methods share the evaluator; summaries must stay identical."""
    profile = _profile_of(photos)
    greedy = GreedyDescriber(profile).select(k)
    st_sel = STRelDivDescriber(profile).select(k)
    assert st_sel == greedy


@given(photos=random_photos(min_size=2, max_size=15))
def test_interned_tag_sets_preserve_jaccard(photos):
    from repro.core.describe.measures import jaccard_distance, textual_div

    profile = _profile_of(photos)
    n = len(profile)
    for a in range(n):
        for b in range(n):
            assert textual_div(profile, a, b) == jaccard_distance(
                profile.keyword_sets[a], profile.keyword_sets[b])
