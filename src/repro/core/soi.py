"""The SOI algorithm (Algorithm 1) and its public entry point, SOIEngine.

The algorithm processes a k-SOI query top-k style: it pulls promising
street segments from three ranked source lists (see
:mod:`repro.core.source_lists`), maintains a *seen* lower bound ``LBk`` on
the interest of the k best streets so far and an *unseen* upper bound
``UB`` on the interest of any untouched segment, and stops pulling as soon
as ``LBk >= UB`` (Lemma 1).  A refinement phase then finalises the exact
interest of the seen segments — optionally pruning those whose optimistic
interest cannot reach the k-th best street.

Correctness notes (also summarised in DESIGN.md):

* Popping a cell from SL1 touches every segment of ``L_eps(c)``, so any
  still-unseen segment has only un-popped cells in its ``eps``-
  neighbourhood; hence ``top(SL1)`` bounds the relevant count of each of
  its cells, ``top(SL2)`` bounds how many such cells it has, and
  ``top(SL3)`` bounds its length from below.
* For weighted-POI queries every count bound is multiplied by the maximum
  POI weight, keeping ``UB`` and the refinement bounds sound.

Per-segment state lives in the flat columns of
:mod:`repro.core.state_store`; this is the only filter/refine
implementation.  Its answers are checked against full-scan oracles —
:class:`~repro.core.soi_baseline.BaselineSOI` and the brute-force
Definition 1–3 functions of :mod:`repro.core.interest` — by the property
tests under ``tests/`` and, under ``REPRO_CHECK=1``, by the runtime
contracts of :mod:`repro.analysis.contracts`.
"""

from __future__ import annotations

import threading
from enum import Enum
from typing import Iterable

import numpy as np

from repro.analysis import contracts
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as obs_tracer
from repro.obs.slowlog import SLOWLOG
from repro.obs.tracer import perf_now, trace_span
from repro.core.interest import (
    buffer_area,
    ordered_row_sums,
    segment_interest,
    validate_query,
)
from repro.core.results import SOIResult, SOIStats
from repro.core.source_lists import CellSourceList, SegmentSourceList
from repro.core.state_store import (
    MassSlots,
    SegmentStateStore,
    SignatureBindings,
    StoreLayout,
    TopKThreshold,
)
from repro.data.poi import POISet
from repro.geometry.bbox import BBox
from repro.index.cell_maps import SegmentCellMaps
from repro.index.csr import gather_rows, sorted_unique
from repro.index.poi_grid import POIGridIndex
from repro.network.model import RoadNetwork

DEFAULT_EPS = 0.0005
"""The distance threshold used throughout the paper's experiments
(0.0005 degrees, about 55 m)."""


class AccessStrategy(Enum):
    """How the filtering phase cycles through the source lists.

    The paper notes that correctness "is not affected by the access
    strategy" and that in practice it alternates between SL1 and SL3;
    the pseudocode itself round-robins SL1 -> SL2 -> SL3.  All variants
    are provided for the ablation benchmark.
    """

    ALTERNATE = "alternate"          # SL1 <-> SL3 (the paper's practice)
    ROUND_ROBIN = "round_robin"      # SL1 -> SL2 -> SL3 (the pseudocode)
    CELLS_FIRST = "cells_first"      # drain SL1, then segments
    SEGMENTS_FIRST = "segments_first"  # drain SL3, then cells

    @property
    def cycle(self) -> tuple[str, ...]:
        return {
            AccessStrategy.ALTERNATE: ("SL1", "SL3"),
            AccessStrategy.ROUND_ROBIN: ("SL1", "SL2", "SL3"),
            AccessStrategy.CELLS_FIRST: ("SL1",),
            AccessStrategy.SEGMENTS_FIRST: ("SL3",),
        }[self]


class SOIEngine:
    """Indexes a road network and a POI set; answers k-SOI queries.

    Builds the offline structures of Section 3.2.1 once (grid + local and
    global inverted indexes over POIs, cell/segment maps); the query-time
    ``eps`` augmentation is cached inside :class:`SegmentCellMaps`.

    Parameters
    ----------
    network, pois:
        The data to index.
    cell_size:
        Grid cell side; defaults to ``2 * DEFAULT_EPS``.
    extent_margin:
        How far beyond the joint network/POI MBR the grid extends, so that
        ``eps``-buffers near the border stay inside the grid.  Defaults to
        ``4 * cell_size``.
    """

    def __init__(
        self,
        network: RoadNetwork,
        pois: POISet,
        cell_size: float | None = None,
        extent_margin: float | None = None,
        session_pool_size: int | None = None,
    ) -> None:
        from repro.perf.session import DEFAULT_MAX_SESSIONS, QuerySessionPool

        self.network = network
        self.pois = pois
        self._cell_size = cell_size
        self._extent_margin = extent_margin
        self.index_generation = 0
        self._store_lock = threading.Lock()
        self._build_indexes()
        self.sessions = QuerySessionPool(
            self.poi_index,
            maxsize=(DEFAULT_MAX_SESSIONS if session_pool_size is None
                     else session_pool_size))

    @classmethod
    def from_prebuilt(
        cls,
        network: RoadNetwork,
        pois: POISet,
        poi_index: POIGridIndex,
        cell_maps: SegmentCellMaps,
        extent: BBox,
        sl3_entries: tuple[tuple[int, float], ...],
        index_generation: int = 0,
        session_pool_size: int | None = None,
    ) -> "SOIEngine":
        """An engine over *already built* index structures.

        The constructor path derives every structure from the raw data;
        this one wires externally supplied ones instead — it is how
        :func:`repro.serve.views.attach_engine` rebuilds a serving view
        over a shared-memory :class:`~repro.serve.snapshot.IndexSnapshot`
        without re-running index construction.  The caller is responsible
        for the structures being mutually consistent (same grid, same
        data); everything derived here (``_max_weight``, the SL2 cache
        seed) is recomputed from them exactly as ``__init__`` would.
        """
        from repro.perf.session import DEFAULT_MAX_SESSIONS, QuerySessionPool

        engine = cls.__new__(cls)
        engine.network = network
        engine.pois = pois
        engine._cell_size = poi_index.grid.cell_size
        engine._extent_margin = None
        engine.index_generation = index_generation
        engine.extent = extent
        engine.poi_index = poi_index
        engine.cell_maps = cell_maps
        engine._max_weight = (float(pois.weights.max()) if len(pois)
                              else 0.0)
        engine._sl3_entries = sl3_entries
        engine._store_layouts = {}
        engine._state_stores = {}
        engine._store_lock = threading.Lock()
        engine.sessions = QuerySessionPool(
            poi_index,
            maxsize=(DEFAULT_MAX_SESSIONS if session_pool_size is None
                     else session_pool_size))
        return engine

    @trace_span("index.build")
    def _build_indexes(self) -> None:
        cell_size = self._cell_size
        extent_margin = self._extent_margin
        if cell_size is None:
            cell_size = 2.0 * DEFAULT_EPS
        if extent_margin is None:
            extent_margin = 4.0 * cell_size
        network, pois = self.network, self.pois
        extent = network.bbox()
        if len(pois):
            extent = extent.union(
                BBox(float(pois.xs.min()), float(pois.ys.min()),
                     float(pois.xs.max()), float(pois.ys.max())))
        self.extent = extent.expanded(extent_margin)
        with trace_span("index.poi_grid"):
            self.poi_index = POIGridIndex(pois, self.extent, cell_size)
        with trace_span("index.cell_maps"):
            self.cell_maps = SegmentCellMaps(network, self.poi_index.grid)
        self._max_weight = float(pois.weights.max()) if len(pois) else 0.0
        # The SL3 order (length ascending) as the snapshot records it;
        # queries read the SL2/SL3 orders from the store layout.
        with trace_span("index.source_list_orders"):
            self._sl3_entries: tuple[tuple[int, float], ...] = tuple(sorted(
                ((seg.id, seg.length) for seg in network.iter_segments()),
                key=lambda e: (e[1], e[0])))
        self._store_layouts: dict[float, StoreLayout] = {}
        # Recycled per-run scratch stores, per eps; handed out exclusively.
        with self._store_lock:
            self._state_stores: dict[float, list[SegmentStateStore]] = {}

    def rebuild_indexes(
        self,
        cell_size: float | None = None,
        extent_margin: float | None = None,
    ) -> None:
        """Rebuild the offline structures (e.g. after re-tuning the grid).

        Passing ``cell_size``/``extent_margin`` overrides the construction
        parameters; omitted values keep the current ones.  Every retained
        :class:`~repro.perf.session.QuerySession` is invalidated — their
        cached materialisations point into the old index — and
        ``index_generation`` is bumped so that exported
        :class:`~repro.serve.snapshot.IndexSnapshot` blocks (which record
        the generation they captured) are recognised as stale by the
        serving layer.
        """
        if cell_size is not None:
            self._cell_size = cell_size
        if extent_margin is not None:
            self._extent_margin = extent_margin
        self._build_indexes()
        self.index_generation += 1
        self.sessions.invalidate(self.poi_index)

    def invalidate_sessions(self) -> None:
        """Drop all cached query sessions (alias for pool invalidation)."""
        self.sessions.invalidate()

    def session_for(self, keywords: Iterable[str]):
        """The :class:`~repro.perf.session.QuerySession` for a keyword set."""
        from repro.data.keywords import normalize_keywords

        return self.sessions.get(normalize_keywords(keywords))

    def store_layout(self, eps: float) -> StoreLayout:
        """The dense/CSR :class:`StoreLayout` for one ``eps`` (cached).

        Query-independent like the SL2/SL3 orders; rebuilt lazily after
        :meth:`rebuild_indexes` (which resets the cache).
        """
        layout = self._store_layouts.get(eps)
        if layout is None:
            with trace_span("index.store_layout", eps=eps):
                layout = StoreLayout(self.network, self.cell_maps, eps)
            self._store_layouts[eps] = layout
        return layout

    def acquire_state_store(
            self, layout: StoreLayout) -> tuple[SegmentStateStore, bool]:
        """A scratch store over ``layout`` for one run; True when recycled.

        The store is handed out exclusively — the caller returns it via
        :meth:`release_state_store` when (and only when) the run completed
        normally.  Stores outlive sessions: every query on the engine
        shares the pool.
        """
        with self._store_lock:
            pool = self._state_stores.get(layout.eps)
            while pool:
                store = pool.pop()
                if store.layout is layout:
                    return store, True
        return SegmentStateStore(layout), False

    def release_state_store(self, store: SegmentStateStore) -> None:
        """Return a scratch store to the pool for the next run."""
        with self._store_lock:
            self._state_stores.setdefault(store.layout.eps, []).append(store)

    # -- public API ---------------------------------------------------------

    def top_k(
        self,
        keywords: Iterable[str],
        k: int,
        eps: float = DEFAULT_EPS,
        strategy: AccessStrategy = AccessStrategy.ALTERNATE,
        prune_refinement: bool = True,
        weighted: bool = False,
        use_session: bool = True,
        session=None,
    ) -> list[SOIResult]:
        """Answer a k-SOI query (Problem 1).

        Returns up to ``k`` streets ordered by decreasing interest (ties
        broken by street id); streets with zero interest are never
        reported.  Set ``weighted=True`` to sum POI weights instead of
        counting POIs (the Definition 1 adaptation).

        ``use_session=True`` (the default) serves the query through the
        engine's :class:`~repro.perf.session.QuerySessionPool`, so sweeps
        over ``k``/``eps``/strategy with the same keywords reuse per-cell
        materialisations; cached values are bitwise what a fresh run would
        compute, so results are identical either way.  A caller that
        already resolved the session (batched serving) may pass it via
        ``session`` — it must belong to this engine and to the same
        normalised keyword set.
        """
        results, _stats = self.top_k_with_stats(
            keywords, k, eps, strategy=strategy,
            prune_refinement=prune_refinement, weighted=weighted,
            use_session=use_session, session=session)
        return results

    def top_k_with_stats(
        self,
        keywords: Iterable[str],
        k: int,
        eps: float = DEFAULT_EPS,
        strategy: AccessStrategy = AccessStrategy.ALTERNATE,
        prune_refinement: bool = True,
        weighted: bool = False,
        use_session: bool = True,
        session=None,
    ) -> tuple[list[SOIResult], SOIStats]:
        """Like :meth:`top_k` but also returns work/timing counters."""
        query = validate_query(keywords, k, eps)
        if session is None and use_session:
            session = self.sessions.get(query)
        run = _SOIRun(self, query, k, eps,
                      strategy, prune_refinement, weighted, session=session)
        return run.execute()

    def segment_exact_interest(
        self,
        segment_id: int,
        keywords: Iterable[str],
        eps: float = DEFAULT_EPS,
        weighted: bool = False,
        use_session: bool = True,
    ) -> float:
        """Exact Definition 2 interest of one segment (indexed path)."""
        from repro.core.interest import segment_mass

        query = validate_query(keywords, 1, eps)
        session = self.sessions.get(query) if use_session else None
        segment = self.network.segment(segment_id)
        mass = segment_mass(
            segment, self.poi_index, self.cell_maps, query, eps, weighted,
            cache=session.cache if session is not None else None)
        return segment_interest(mass, segment.length, eps)


_BLOCK_START = 4
"""Pulls in the first filter block.  Blocks start small so a query that
can stop after a few pulls does not overshoot by a large block."""

_BLOCK_MAX = 256
"""Largest filter block.  The block size doubles from
:data:`_BLOCK_START` up to this; the value was chosen by measurement
(DESIGN.md, "Filter-phase data layout")."""


class _SOIRun:
    """One execution of Algorithm 1 over a prepared :class:`SOIEngine`.

    The filter is *block-synchronous*: each step pops a block of entries
    from the source lists, applies all of its cell visits and segment
    finalisations with array operations (one distance-kernel call for
    every fresh slot mass), then updates ``LBk`` and checks Lemma 1 once.
    Checking the bound less often only delays the stop, and the refine
    computes every reported mass exactly, so the answer does not depend
    on the block size or the access order.
    """

    def __init__(
        self,
        engine: SOIEngine,
        query: frozenset[str],
        k: int,
        eps: float,
        strategy: AccessStrategy,
        prune_refinement: bool,
        weighted: bool,
        session=None,
    ) -> None:
        self.engine = engine
        self.query = query
        self.k = k
        self.eps = eps
        self.strategy = strategy
        self.prune_refinement = prune_refinement
        self.weighted = weighted
        self.stats = SOIStats()
        self.session = session
        if session is not None:
            self.stats.session_reused = session.queries_served > 0
            session.queries_served += 1
        # Weighted queries bound per-cell relevant mass by count * max weight.
        self._weight_cap = engine._max_weight if weighted else 1.0
        # Contract monitor (Lemma 1 / Definition 1); None on the fast path.
        self._monitor = (contracts.SOIContractMonitor()
                         if contracts.ENABLED else None)

    # -- driver -----------------------------------------------------------

    def execute(self) -> tuple[list[SOIResult], SOIStats]:
        mark = obs_tracer.TRACER.mark() if obs_tracer.ENABLED else 0
        with trace_span("soi.query", k=self.k, eps=self.eps,
                        strategy=self.strategy.value, weighted=self.weighted,
                        keywords=",".join(sorted(self.query))):
            t0 = perf_now()
            with trace_span("soi.build_source_lists"):
                self._build_source_lists()
            t1 = perf_now()
            with trace_span("soi.filter"):
                self._filter()
            t2 = perf_now()
            kernels_before_refine = self.stats.kernel_calls
            with trace_span("soi.refine"):
                results = self._refine()
            t3 = perf_now()
        # Recycle the scratch columns; on an exception the store is simply
        # dropped, so a poisoned run can never be reused.
        self.engine.release_state_store(self.store)
        self.stats.refine_kernel_calls = (
            self.stats.kernel_calls - kernels_before_refine)
        self.stats.phase_seconds = {
            "build": t1 - t0, "filter": t2 - t1, "refine": t3 - t2}
        obs_metrics.record_soi_query(self.stats)
        if SLOWLOG.enabled:
            SLOWLOG.maybe_record(
                "soi",
                {"keywords": sorted(self.query), "k": self.k, "eps": self.eps,
                 "strategy": self.strategy.value, "weighted": self.weighted},
                t3 - t0, self.stats.counters(),
                obs_tracer.TRACER.spans_since(mark)
                if obs_tracer.ENABLED else ())
        if self._monitor is not None:
            self._monitor.check_results(self.engine, self.query, self.eps,
                                        self.weighted, self.k, results)
        return results, self.stats

    # -- phase 1: source lists --------------------------------------------

    def _build_source_lists(self) -> None:
        """Bind the layout, the signature columns, the mass memo and a
        scratch store, and open the three source lists over them.

        With a session the signature bindings and the slot memo are built
        once per signature; the scratch store comes from the engine's
        pool, so a query allocates no per-segment columns.
        """
        engine = self.engine
        layout = engine.store_layout(self.eps)
        session = self.session
        if session is not None:
            bind = session.store_bindings(layout)
            memo = session.store_mass_slots(layout, self.weighted)
        else:
            bind = SignatureBindings(layout, engine.poi_index, self.query)
            memo = MassSlots(layout.num_slots)
        if bind.uses:
            self.stats.relevant_cache_hits += 1
        else:
            self.stats.relevant_cache_misses += 1
        bind.uses += 1
        store, self.stats.store_reused = engine.acquire_state_store(layout)
        store.begin_run()
        self.layout, self.bind, self.memo, self.store = (
            layout, bind, memo, store)
        self.sl1 = CellSourceList(bind.sl1_cells, bind.sl1_ub)
        columns = (store.seen_epoch, store.final_epoch, store.epoch)
        self.sl2 = SegmentSourceList(layout.sl2_order, layout.sl2_weight,
                                     *columns)
        self.sl3 = SegmentSourceList(layout.sl3_order, layout.sl3_weight,
                                     *columns)
        # Best lower bound per street (dense street numbers); LBk is its
        # k-th largest positive entry.
        self._street_best = np.zeros(layout.street_ids.shape[0])

    # -- phase 2: filtering --------------------------------------------------

    def _filter(self) -> None:
        stats = self.stats
        monitor = self._monitor
        size = _BLOCK_START
        position = 0
        while True:
            stats.termination_checks += 1
            lbk = self._compute_lbk()
            ub = self._compute_ub()
            if monitor is not None:
                monitor.observe_threshold(lbk, ub)
            if lbk >= ub:
                break
            cells, segments, sources, position = self._pop_block(
                size, position)
            pulls = int(cells.shape[0] + segments.shape[0])
            if not pulls:
                break  # every list is drained
            stats.iterations += pulls
            if obs_tracer.ENABLED:
                with trace_span("soi.pull", source="+".join(sources),
                                block=pulls):
                    self._apply_block(cells, segments)
            else:
                self._apply_block(cells, segments)
            size = min(2 * size, _BLOCK_MAX)

    def _pop_block(self, size: int, position: int):
        """Choose the next ``size`` pulls in the strategy's list order.

        The adaptive SL2 access comes first ("we only access segments via
        the second source SL2 in the case that a few segments with a large
        number of neighboring cells exist": a segment whose ``|C_eps|`` is
        far above the median keeps ``top(SL2)`` — and hence UB — inflated,
        so it is retrieved directly).  The rest of the block comes from
        the strategy's cycle, starting at ``position``; a list that runs
        dry hands the remainder of the block to the next one, and when the
        cycle's lists are drained any remaining list serves.  Returns the
        popped cells, the popped segments, the lists used and the next
        cycle position.
        """
        cells: list[np.ndarray] = []
        segments: list[np.ndarray] = []
        sources: list[str] = []
        need = size
        threshold = self.layout.sl2_threshold
        if self.strategy is AccessStrategy.ALTERNATE and threshold > 0:
            top2 = self.sl2.top()
            if top2 is not None and top2 > threshold:
                need -= self._pop_from("SL2", need, cells, segments, sources,
                                       above=threshold)
        cycle = self.strategy.cycle
        while need:
            for offset in range(len(cycle)):
                name = cycle[(position + offset) % len(cycle)]
                got = self._pop_from(name, need, cells, segments, sources)
                if got:
                    position = (position + offset + 1) % len(cycle)
                    break
            else:
                for name in ("SL1", "SL2", "SL3"):
                    got = self._pop_from(name, need, cells, segments,
                                         sources)
                    if got:
                        break
                else:
                    break
            need -= got
        empty = np.zeros(0, dtype=np.int64)
        return (np.concatenate(cells) if cells else empty,
                np.concatenate(segments) if segments else empty,
                sources, position)

    def _pop_from(self, name: str, need: int, cells: list, segments: list,
                  sources: list, above: float | None = None) -> int:
        if name == "SL1":
            block = self.sl1.pop_block(need)
            self.stats.cells_popped += int(block.shape[0])
            out = cells
        else:
            source = self.sl2 if name == "SL2" else self.sl3
            block = source.pop_block(need, above)
            self.stats.segments_popped += int(block.shape[0])
            out = segments
        if block.shape[0]:
            out.append(block)
            sources.append(name)
        return int(block.shape[0])

    def _apply_block(self, cells: np.ndarray, segments: np.ndarray) -> None:
        """The paper's ``UpdateInterest`` for a whole block at once.

        Visits every slot of the popped cells and every remaining slot of
        the popped segments: marks the fresh slots visited, initialises
        newly seen segments, adds each fresh relevant slot's mass (memo or
        one kernel call for all of them), records the street lower bounds
        and finalises the popped segments and those with every cell
        visited.
        """
        layout, store, stats = self.layout, self.store, self.stats
        epoch = store.epoch
        # Distinct cells own disjoint slots, and so do distinct segments:
        # only a block that mixes cells and segments can name a slot twice.
        slots = np.zeros(0, dtype=np.int64)
        if cells.shape[0]:
            rows, _local = gather_rows(layout.cell_slot_offsets, cells)
            slots = layout.cell_slots[rows]
        if segments.shape[0]:
            rows, _local = gather_rows(layout.slot_offsets, segments)
            slots = (sorted_unique(np.concatenate((slots, rows)))
                     if slots.shape[0] else rows)
        fresh = slots[store.visit_epoch[slots] != epoch]
        store.visit_epoch[fresh] = epoch
        stats.cell_visits += int(fresh.shape[0])
        fresh_seg = layout.slot_seg[fresh]
        touched = np.concatenate((fresh_seg, segments))
        new = touched[store.seen_epoch[touched] != epoch]
        if new.shape[0]:
            new = sorted_unique(new)
            store.seen_epoch[new] = epoch
            store.mass[new] = 0.0
            store.visited[new] = 0
            stats.segments_seen += int(new.shape[0])
        np.add.at(store.visited, fresh_seg, 1)
        # Popped segments were marked final by their list (they were not
        # final before); the others finalise once every cell is visited.
        stats.segments_finalized_in_filter += int(segments.shape[0])
        done = touched[(store.visited[touched] == layout.cell_counts[touched])
                       & (store.final_epoch[touched] != epoch)]
        if done.shape[0]:
            done = sorted_unique(done)
            store.final_epoch[done] = epoch
            stats.segments_finalized_in_filter += int(done.shape[0])
        relevant = fresh[self.bind.rel_count[layout.slot_cell[fresh]] > 0]
        if relevant.shape[0]:
            self.memo.fill(relevant, layout, self.bind, self.eps,
                           self.weighted, stats, self.session is not None)
            relevant_seg = layout.slot_seg[relevant]
            np.add.at(store.mass, relevant_seg, self.memo.mass[relevant])
            self._record_bounds(sorted_unique(relevant_seg))

    def _record_bounds(self, segments: np.ndarray) -> None:
        """Raise each street's lower bound to its segments' partial
        interest (Definition 2 over the mass accumulated so far)."""
        layout = self.layout
        mass = self.store.mass[segments]
        if contracts.ENABLED:
            for value, length in zip(mass.tolist(),
                                     layout.lengths[segments].tolist()):
                contracts.check_definition2(value, length, self.eps)
        streets = layout.street_idx[segments]
        best = self._street_best
        before = best[streets]
        np.maximum.at(best, streets, mass / layout.buffer_col[segments])
        raised = streets[best[streets] > before]
        if raised.shape[0]:
            self.stats.lbk_heap_updates += int(
                sorted_unique(raised).shape[0])

    def _compute_lbk(self) -> float:
        """LBk: the k-th largest positive street lower bound (0 below k)."""
        positive = self._street_best[self._street_best > 0.0]
        if positive.shape[0] < self.k:
            return 0.0
        at = positive.shape[0] - self.k
        return float(np.partition(positive, at)[at])

    def _compute_ub(self) -> float:
        top_cells = self.sl1.top()
        top_count = self.sl2.top()
        top_length = self.sl3.top()
        if top_count is None or top_length is None:
            return 0.0  # no unseen segments remain
        mass_ub = top_cells * top_count * self._weight_cap
        return mass_ub / buffer_area(top_length, self.eps)

    # -- phase 3: refinement -------------------------------------------------

    def _refine(self) -> list[SOIResult]:
        """Exact interests of the seen segments, then the ranking.

        Final segments are exact already.  A partial segment whose
        unvisited cells hold no relevant POI is exact too; the others are
        finalised in decreasing order of their optimistic interest until
        that drops below the k-th best exact street (with
        ``prune_refinement``).
        """
        layout, store = self.layout, self.store
        epoch = store.epoch
        seen = np.flatnonzero(store.seen_epoch == epoch)
        is_final = store.final_epoch[seen] == epoch
        exact = seen[is_final]
        partial = seen[~is_final]
        remaining = np.zeros(0)
        if partial.shape[0]:
            slots, local = gather_rows(layout.slot_offsets, partial)
            unvisited = store.visit_epoch[slots] != epoch
            remaining = np.bincount(
                local[unvisited],
                weights=self.bind.cell_ub[
                    layout.slot_cell[slots[unvisited]]].astype(np.float64),
                minlength=partial.shape[0]) * self._weight_cap
            settled = remaining <= 0.0
            store.final_epoch[partial[settled]] = epoch
            exact = np.concatenate((exact, partial[settled]))
            partial, remaining = partial[~settled], remaining[~settled]
        values = self._exact_values(exact)
        if partial.shape[0]:
            optimistic = ((store.mass[partial] + remaining)
                          / layout.buffer_col[partial])
            order = np.lexsort((layout.seg_ids[partial], -optimistic))
            refined, refined_values = self._refine_partial(
                partial[order], optimistic[order], exact, values)
            exact = np.concatenate((exact, refined))
            values = np.concatenate((values, refined_values))
        return self._rank(exact, values)

    def _refine_partial(self, partial: np.ndarray, optimistic: np.ndarray,
                        exact: np.ndarray, values: np.ndarray):
        """Finalise partial segments in order until the pruning test stops.

        Chunks of segments (growing like filter blocks) are finalised
        with one kernel call each; the pruning test still runs segment by
        segment against the running k-th best street, so the segments
        kept are exactly those a one-at-a-time loop would finalise.
        """
        stats = self.stats
        street_idx = self.layout.street_idx
        topk = TopKThreshold(self.k)
        best = np.zeros(self._street_best.shape[0])
        np.maximum.at(best, street_idx[exact], values)
        for street in np.flatnonzero(best > 0.0).tolist():
            topk.update(street, float(best[street]))
        kth = topk.current()
        prune = self.prune_refinement
        kept: list[np.ndarray] = []
        kept_values: list[np.ndarray] = []
        total = int(partial.shape[0])
        done = 0
        size = _BLOCK_START
        while done < total:
            if prune and kth is not None and optimistic[done] < kth:
                break
            chunk = partial[done:done + size]
            chunk_values = self._finalize_exact(chunk)
            take = 0
            for value, street, bound in zip(
                    chunk_values.tolist(), street_idx[chunk].tolist(),
                    optimistic[done:done + size].tolist()):
                if take and prune and kth is not None and bound < kth:
                    break
                topk.update(street, value)
                kth = topk.current()
                take += 1
            kept.append(chunk[:take])
            kept_values.append(chunk_values[:take])
            done += take
            stats.refinement_finalized += take
            if take < chunk.shape[0]:
                break
            size = min(2 * size, _BLOCK_MAX)
        stats.refinement_pruned += total - done
        if not kept:
            return partial[:0], np.zeros(0)
        return np.concatenate(kept), np.concatenate(kept_values)

    def _finalize_exact(self, segments: np.ndarray) -> np.ndarray:
        """Visit every remaining cell of ``segments``; their exact
        interests."""
        layout, store = self.layout, self.store
        epoch = store.epoch
        slots, _local = gather_rows(layout.slot_offsets, segments)
        fresh = slots[store.visit_epoch[slots] != epoch]
        store.visit_epoch[fresh] = epoch
        self.stats.cell_visits += int(fresh.shape[0])
        relevant = fresh[self.bind.rel_count[layout.slot_cell[fresh]] > 0]
        if relevant.shape[0]:
            self.memo.fill(relevant, layout, self.bind, self.eps,
                           self.weighted, self.stats,
                           self.session is not None)
        store.final_epoch[segments] = epoch
        return self._exact_values(segments)

    def _exact_values(self, segments: np.ndarray) -> np.ndarray:
        """Definition 2 interest of fully accounted segments.

        Each mass is re-accumulated from the slot memo in the segment's
        canonical slot order (unvisited slots hold no relevant POI), so
        it is the float :func:`~repro.core.interest.segment_mass` and the
        baseline compute, whatever order the filter visited the slots in.
        """
        layout = self.layout
        slots, _local = gather_rows(layout.slot_offsets, segments)
        memo = self.memo
        contributions = np.where(memo.known[slots], memo.mass[slots], 0.0)
        mass = ordered_row_sums(contributions, layout.cell_counts[segments])
        if contracts.ENABLED:
            for value, length in zip(mass.tolist(),
                                     layout.lengths[segments].tolist()):
                contracts.check_definition2(value, length, self.eps)
        return mass / layout.buffer_col[segments]

    def _rank(self, segments: np.ndarray,
              values: np.ndarray) -> list[SOIResult]:
        """Top-k streets by their best exact segment (Definition 3).

        Streets rank by interest descending, ties by street id; a
        street's best segment is its first maximum in ``iter_segments``
        order, the baseline's rule.
        """
        layout = self.layout
        positive = values > 0.0
        segments, values = segments[positive], values[positive]
        streets = layout.street_idx[segments]
        order = np.lexsort((segments, -values, streets))
        segments, values, streets = (segments[order], values[order],
                                     streets[order])
        first = np.ones(streets.shape[0], dtype=bool)
        first[1:] = streets[1:] != streets[:-1]
        segments, values, streets = (segments[first], values[first],
                                     streets[first])
        top = np.lexsort((streets, -values))[:self.k]
        network = self.engine.network
        results = []
        for street, value, dense in zip(streets[top].tolist(),
                                        values[top].tolist(),
                                        segments[top].tolist()):
            street_id = int(layout.street_ids[street])
            results.append(SOIResult(
                street_id=street_id,
                street_name=network.street(street_id).name,
                interest=value,
                best_segment_id=int(layout.seg_ids[dense])))
        return results
