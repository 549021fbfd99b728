"""Columnar state for the SOI filter and refine phases.

Algorithm 1 tracks every *seen* segment's partial state.  This module
holds it as NumPy columns, so the block-synchronous filter of
:mod:`repro.core.soi` applies a whole block of source-list pulls with a
handful of array operations.  It is the only segment-state
representation; correctness is pinned by the full-scan oracles in the
tests and the ``REPRO_CHECK=1`` contracts, not by a second
implementation.

Layout vs. signature vs. scratch
--------------------------------
* :class:`StoreLayout` is immutable and engine-owned, one per ``eps``.
  Dense position = ``network.iter_segments()`` order.  A *slot* is one
  ``(segment, cell)`` incidence of the ``eps``-augmented cell maps; the
  slots form a segment-major CSR (``slot_offsets``, in
  ``cells_of_segment`` order) with a ``slot_seg``/``slot_cell`` column
  pair and a cell-major inverse CSR (``cell_slot_offsets``/``cell_slots``,
  in ``segments_of_cell`` order).  The SL2 and SL3 orders are columns
  too.
* :class:`SignatureBindings` is per keyword signature and layout: the
  cell upper bounds ``|P_Psi(c)|`` of Algorithm 1, line 2, the SL1 order,
  and a cell-major CSR of the signature's relevant POIs (coordinates and
  weights), all built with array operations from the global index.
* :class:`MassSlots` is the slot-indexed ``(segment, cell)`` mass memo,
  per ``(signature, eps, weighted)``.  :meth:`MassSlots.fill` is the one
  place slot masses are computed: one call of
  :func:`~repro.core.interest.slot_masses` over the POI x slot rows of
  every fresh slot.
* :class:`SegmentStateStore` is mutable per-run scratch, pooled on the
  engine and recycled through an epoch counter, so a query allocates no
  per-segment columns.

Every memoised float is the value the kernel computes for that slot
whatever else shares its call, so serving it cannot change any
downstream comparison or bound.

:class:`TopKThreshold` maintains the k-th largest of per-street values
for the refinement's pruning test.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING

import numpy as np

from repro.core.interest import slot_masses
from repro.core.source_lists import rank_entries
from repro.index.csr import counts_to_offsets, gather_rows

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.index.cell_maps import SegmentCellMaps
    from repro.index.poi_grid import POIGridIndex
    from repro.network.model import RoadNetwork, Segment

__all__ = [
    "MassSlots",
    "SegmentStateStore",
    "SignatureBindings",
    "StoreLayout",
    "TopKThreshold",
]


class TopKThreshold:
    """Exact k-th largest of per-key values that only ever increase.

    The SOI termination bound LB_k is the k-th largest of the per-street
    best lower bounds, and each street's best only grows as mass
    accumulates.  That monotonicity makes a bounded min-heap with lazy
    deletion exact: an improved value is pushed and the superseded entry
    goes *stale*, but a stale entry is always smaller than its key's live
    value, so stale entries surface at the min end first and pruning only
    at the top keeps ``current()`` the true k-th largest — the same float
    ``heapq.nlargest(k, values)[-1]`` would return, in O(log k) per
    update instead of an O(n log k) rescan.
    """

    __slots__ = ("k", "_best", "_heap", "_in_heap")

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        self.k = k
        self._best: dict[int, float] = {}
        self._heap: list[tuple[float, int]] = []
        # key -> value currently live in the heap; entries in ``_heap``
        # that disagree with this map are stale.
        self._in_heap: dict[int, float] = {}

    def update(self, key: int, value: float) -> bool:
        """Record ``value`` for ``key``; True when it improved the best.

        The return value is the predicate ``value > best.get(key, 0.0)``,
        which callers use as their dirty flag.
        """
        best = self._best.get(key, 0.0)
        if value <= best:
            return False
        self._best[key] = value
        in_heap = self._in_heap
        heap = self._heap
        if key in in_heap:
            in_heap[key] = value
            heapq.heappush(heap, (value, key))
        elif len(in_heap) < self.k:
            in_heap[key] = value
            heapq.heappush(heap, (value, key))
        else:
            self._prune()
            floor_value, floor_key = heap[0]
            if value > floor_value:
                in_heap[key] = value
                heapq.heapreplace(heap, (value, key))
                del in_heap[floor_key]
        if len(heap) > 4 * self.k + 64:
            # Compact: rebuild from the live entries only.  Purely an
            # allocation bound; the pruned heap is value-identical.
            self._heap = [(v, k) for k, v in in_heap.items()]
            heapq.heapify(self._heap)
        return True

    def _prune(self) -> None:
        heap = self._heap
        in_heap = self._in_heap
        while heap and in_heap.get(heap[0][1]) != heap[0][0]:
            heapq.heappop(heap)

    def current(self) -> float | None:
        """The k-th largest recorded value; ``None`` below k distinct keys."""
        if len(self._in_heap) < self.k:
            return None
        self._prune()
        return self._heap[0][0]

    def __len__(self) -> int:
        """Number of distinct keys recorded so far."""
        return len(self._best)


class StoreLayout:
    """Immutable dense/CSR geometry of one ``(engine, eps)`` pair.

    Dense position = the engine's ``network.iter_segments()`` order (the
    order the snapshot exporter records), so a layout rebuilt over an
    attached snapshot indexes identically.  Layout cells are the grid
    cells that some segment's ``C_eps`` reaches, numbered in ascending
    ``(i, j)`` order; ``lin_to_cell`` maps a linearised grid cell
    ``i * ny + j`` to its layout number (``-1`` for cells no segment
    reaches).  Streets are numbered in ascending street-id order
    (``street_ids``/``street_idx``).
    """

    __slots__ = (
        "eps", "segments", "num_segments", "seg_ids", "lengths",
        "street_ids", "street_idx", "ax", "ay", "bx", "by", "buffer_col",
        "num_slots", "num_cells", "cell_lin", "lin_to_cell",
        "slot_offsets", "cell_counts", "slot_cell", "slot_seg",
        "cell_slot_offsets", "cell_slots", "sl2_order", "sl2_weight",
        "sl2_threshold", "sl3_order", "sl3_weight",
    )

    def __init__(self, network: "RoadNetwork",
                 cell_maps: "SegmentCellMaps", eps: float) -> None:
        self.eps = eps
        segments: list["Segment"] = list(network.iter_segments())
        n = len(segments)
        self.segments = segments
        self.num_segments = n

        def column(attr: str, dtype) -> np.ndarray:
            return np.fromiter((getattr(seg, attr) for seg in segments),
                               dtype=dtype, count=n)

        self.seg_ids = column("id", np.int64)
        self.lengths = column("length", np.float64)
        self.street_ids, street_idx = np.unique(column("street_id", np.int64),
                                                return_inverse=True)
        self.street_idx = street_idx.reshape(-1)
        self.ax = column("ax", np.float64)
        self.ay = column("ay", np.float64)
        self.bx = column("bx", np.float64)
        self.by = column("by", np.float64)
        # Definition 2 denominator column.  Evaluated as
        # (2.0 * eps) * length + (math.pi * eps) * eps — the exact
        # association Python gives buffer_area(), so each element is the
        # bitwise float segment_interest divides by.
        self.buffer_col = (2.0 * eps) * self.lengths + (math.pi * eps) * eps

        # The cell maps' CSR rows are in builder (``iter_segments``)
        # order, which is this dense order.
        offsets, flat_i, flat_j = cell_maps.augmented_csr(eps)
        grid = cell_maps.grid
        lin = flat_i * np.int64(grid.ny) + flat_j
        self.cell_lin, slot_cell = np.unique(lin, return_inverse=True)
        self.num_cells = int(self.cell_lin.shape[0])
        self.num_slots = int(lin.shape[0])
        self.lin_to_cell = np.full(grid.nx * grid.ny, -1, dtype=np.int64)
        self.lin_to_cell[self.cell_lin] = np.arange(self.num_cells)
        self.slot_offsets = np.asarray(offsets, dtype=np.int64)
        self.cell_counts = np.diff(self.slot_offsets)
        self.slot_cell = slot_cell.reshape(-1).astype(np.int64)
        self.slot_seg = np.repeat(np.arange(n, dtype=np.int64),
                                  self.cell_counts)
        # Stable: within a cell, slots (hence segments) stay ascending.
        self.cell_slots = np.argsort(self.slot_cell, kind="stable")
        self.cell_slot_offsets = counts_to_offsets(
            np.bincount(self.slot_cell, minlength=self.num_cells))

        # SL2: |C_eps(l)| descending, SL3: length ascending, ties by
        # segment id.  The adaptive-SL2 threshold is 1.5x the low median
        # of |C_eps(l)|.
        self.sl2_order = rank_entries(self.seg_ids, self.cell_counts,
                                      descending=True)
        self.sl2_weight = self.cell_counts[self.sl2_order].astype(np.float64)
        median = int(np.sort(self.cell_counts)[n // 2]) if n else 0
        self.sl2_threshold = 1.5 * median
        self.sl3_order = rank_entries(self.seg_ids, self.lengths,
                                      descending=False)
        self.sl3_weight = self.lengths[self.sl3_order]


class SignatureBindings:
    """One keyword signature's view of a layout.

    ``cell_ub[c]`` is ``|P_Psi(c)|`` (Algorithm 1, line 2) per layout
    cell (0 where the signature has no posting); ``sl1_cells``/``sl1_ub``
    are SL1, the cells with a positive bound in (bound descending, cell
    coordinates ascending) order.  ``rel_offsets`` is a cell-major CSR of
    the signature's relevant POIs (positions ascending within a cell)
    with their coordinate and weight columns ``rel_x``/``rel_y``/``rel_w``;
    ``rel_count`` is its row length, the exact relevant count.  ``uses``
    counts the runs served (for the cache counters).
    """

    __slots__ = ("layout", "cell_ub", "sl1_cells", "sl1_ub", "rel_offsets",
                 "rel_count", "rel_x", "rel_y", "rel_w", "uses")

    def __init__(self, layout: StoreLayout, poi_index: "POIGridIndex",
                 signature: frozenset[str]) -> None:
        self.layout = layout
        lin, bounds = poi_index.relevant_count_upper_bounds(signature)
        cells = layout.lin_to_cell[lin]
        keep = cells >= 0
        cell_ub = np.zeros(layout.num_cells, dtype=np.int64)
        cell_ub[cells[keep]] = bounds[keep]
        self.cell_ub = cell_ub
        positive = np.flatnonzero(cell_ub > 0)
        self.sl1_cells = positive[rank_entries(positive, cell_ub[positive],
                                               descending=True)]
        self.sl1_ub = cell_ub[self.sl1_cells]

        positions = np.flatnonzero(
            poi_index.relevant_position_mask(signature))
        pcell = layout.lin_to_cell[poi_index.poi_cell_lin[positions]]
        keep = pcell >= 0
        positions, pcell = positions[keep], pcell[keep]
        positions = positions[np.argsort(pcell, kind="stable")]
        self.rel_offsets = counts_to_offsets(
            np.bincount(pcell, minlength=layout.num_cells))
        self.rel_count = np.diff(self.rel_offsets)
        pois = poi_index.pois
        self.rel_x = pois.xs[positions]
        self.rel_y = pois.ys[positions]
        self.rel_w = pois.weights[positions]
        self.uses = 0


_FILL_SLOTS = 8192
"""Slots per kernel call in :meth:`MassSlots.fill`: bounds the row
arrays of a whole-network pass (the baseline) to a few MiB."""


class MassSlots:
    """Slot-indexed ``(segment, cell)`` mass memo, one instance per
    ``(signature, eps, weighted)``.

    ``known`` gates reads; :meth:`fill` stores the masses *before*
    flipping the flags, so a concurrent reader can never observe an unset
    value (and every writer would store the same float anyway), which
    keeps the session's add-only thread-compatibility contract intact.
    """

    __slots__ = ("mass", "known")

    def __init__(self, num_slots: int) -> None:
        self.mass = np.zeros(num_slots, dtype=np.float64)
        self.known = np.zeros(num_slots, dtype=bool)

    def known_count(self) -> int:
        """Memoised slots (for reports)."""
        return int(np.count_nonzero(self.known))

    def fill(self, slots: np.ndarray, layout: StoreLayout,
             bind: SignatureBindings, eps: float, weighted: bool,
             stats=None, count_memo: bool = True) -> None:
        """Memoise the mass of every slot in ``slots``.

        ``slots`` are distinct slots whose cell holds a relevant POI.
        Unknown ones are computed with one :func:`slot_masses` call per
        :data:`_FILL_SLOTS` of them.  ``stats`` (an
        :class:`~repro.core.results.SOIStats` or compatible) receives the
        memo and kernel counters; ``count_memo=False`` leaves memo misses
        uncounted (per-run slots that no later run can hit).
        """
        known = self.known[slots]
        hits = int(np.count_nonzero(known))
        fresh = slots[~known] if hits else slots
        if stats is not None:
            stats.mass_cache_hits += hits
            if count_memo:
                stats.mass_cache_misses += int(fresh.shape[0])
        for begin in range(0, fresh.shape[0], _FILL_SLOTS):
            part = fresh[begin:begin + _FILL_SLOTS]
            rows, local = gather_rows(bind.rel_offsets,
                                      layout.slot_cell[part])
            seg = layout.slot_seg[part][local]
            values = slot_masses(
                bind.rel_x[rows], bind.rel_y[rows], bind.rel_w[rows], local,
                int(part.shape[0]), layout.ax[seg], layout.ay[seg],
                layout.bx[seg], layout.by[seg], eps, weighted)
            if stats is not None:
                stats.kernel_calls += 1
                stats.point_evals += int(rows.shape[0])
            self.mass[part] = values
            self.known[part] = True


_EPOCH_LIMIT = 2**31 - 2
"""Epoch wrap guard (kept at the int32 bound so the columns could be
narrowed to int32 without a semantic change)."""


class SegmentStateStore:
    """Reusable per-run scratch columns over one :class:`StoreLayout`.

    ``begin_run`` bumps ``epoch`` instead of clearing: a segment is
    *seen*/*final* in the current run iff its epoch column matches, and a
    slot is *visited* likewise, so recycling the store across queries is
    O(1).  ``mass`` (partial mass) and ``visited`` (visited slots) are
    reset when a segment is first seen in a run.
    """

    __slots__ = ("layout", "mass", "visited", "seen_epoch", "final_epoch",
                 "visit_epoch", "epoch", "runs_served")

    def __init__(self, layout: StoreLayout) -> None:
        n = layout.num_segments
        self.layout = layout
        self.mass = np.zeros(n, dtype=np.float64)
        self.visited = np.zeros(n, dtype=np.int64)
        self.seen_epoch = np.zeros(n, dtype=np.int64)
        self.final_epoch = np.zeros(n, dtype=np.int64)
        self.visit_epoch = np.zeros(layout.num_slots, dtype=np.int64)
        self.epoch = 0
        self.runs_served = 0

    def begin_run(self) -> None:
        """Start a fresh run over the recycled columns."""
        if self.epoch >= _EPOCH_LIMIT:
            self.seen_epoch[:] = 0
            self.final_epoch[:] = 0
            self.visit_epoch[:] = 0
            self.epoch = 0
        self.epoch += 1
        self.runs_served += 1
