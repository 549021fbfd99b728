"""Interest measures: Definitions 1-3 of the paper.

* **Segment mass** (Definition 1): the number of POIs within distance
  ``eps`` of the segment that match at least one query keyword.  The
  weighted variant sums POI weights instead of counting (the adaptation the
  paper notes right after the definition).
* **Segment interest** (Definition 2): mass divided by the area of the
  ``eps``-buffer around the segment, ``2 * eps * len(l) + pi * eps**2``.
* **Street interest** (Definition 3): the maximum interest among the
  street's segments.

Two implementations of mass are provided: an indexed one driven by the
``eps``-augmented cell maps, whose one kernel is :func:`slot_masses`
(shared by the SOI algorithm, the BL baseline, the region search and
:func:`segment_mass`), and a brute-force scan
(:func:`segment_mass_bruteforce`) that the tests and the ``REPRO_CHECK=1``
contracts use as the ground truth.  Both decide ``dist(p, l) <= eps`` with
the same exactly rounded distance
(:func:`~repro.geometry.distance.point_segment_distance` and its row-wise
transcription), so they agree bit for bit.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.analysis import contracts
from repro.data.poi import POISet
from repro.errors import QueryError, check_count
from repro.geometry.distance import (
    _points_segments_distance,
    point_segment_distance,
)
from repro.index.cell_maps import SegmentCellMaps
from repro.index.poi_grid import POIGridIndex
from repro.network.model import RoadNetwork, Segment


def buffer_area(length: float, eps: float) -> float:
    """Area of the ``eps``-buffer around a segment of the given length.

    The denominator of Definition 2: a rectangle of size
    ``2 * eps * length`` plus two half-disks of radius ``eps``.
    """
    return 2.0 * eps * length + math.pi * eps * eps


def validate_query(keywords: Iterable[str], k: int, eps: float) -> frozenset[str]:
    """Common parameter validation for k-SOI queries.

    Returns the normalised keyword set.  Raises
    :class:`~repro.errors.QueryError` for a ``k`` that is not an integer
    of at least 1, an ``eps`` that is not a positive finite number, or an
    empty keyword set.
    """
    from repro.data.keywords import normalize_keywords

    query = normalize_keywords(keywords)
    if not query:
        raise QueryError("k-SOI query requires at least one keyword")
    check_count("k", k)
    if not (math.isfinite(eps) and eps > 0):
        raise QueryError(f"eps must be positive and finite, got {eps}")
    return query


class RelevantCellCache:
    """Per-signature cache of the relevant POIs of single cells.

    :func:`segment_mass` gathers a segment's cells through it, so repeated
    single-segment evaluations (the contracts' recount,
    :meth:`~repro.core.soi.SOIEngine.segment_exact_interest`) materialise
    each cell once.  The SOI engine and the baseline read the whole
    signature at once from
    :class:`~repro.core.state_store.SignatureBindings` instead.
    ``hits``/``misses`` count lookups (a *miss* materialises the entry).
    """

    _EMPTY = (np.empty(0, dtype=np.intp), np.empty(0), np.empty(0),
              np.empty(0))

    def __init__(self, poi_index: POIGridIndex, keywords: frozenset[str]) -> None:
        self._poi_index = poi_index
        self._keywords = keywords
        self._cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray,
                                                 np.ndarray, np.ndarray]] = {}
        self._mask: np.ndarray | None = None
        self.hits = 0
        self.misses = 0

    def get(self, cell: tuple[int, int]):
        """``(positions, xs, ys, weights)`` of the cell's relevant POIs."""
        entry = self._cache.get(cell)
        if entry is None:
            self.misses += 1
            entry = self._materialise(cell)
            self._cache[cell] = entry
        else:
            self.hits += 1
        return entry

    def _materialise(self, cell: tuple[int, int]):
        """First-visit gather of a cell's relevant POI arrays."""
        mask = self._mask
        if mask is None:
            mask = self._poi_index.relevant_position_mask(self._keywords)
            self._mask = mask
        # The cell's position array is ascending and duplicate-free, so
        # masking it yields exactly the sorted deduplicated merge of the
        # matching postings.
        cell_positions = self._poi_index.cell_positions(cell)
        if cell_positions.size == 0:
            return self._EMPTY
        positions = cell_positions[mask[cell_positions]]
        if positions.size == 0:
            return self._EMPTY
        pois = self._poi_index.pois
        return (positions, pois.xs[positions], pois.ys[positions],
                pois.weights[positions])

    def __len__(self) -> int:
        return len(self._cache)


def slot_masses(
    px: np.ndarray, py: np.ndarray, weights: np.ndarray,
    row_slot: np.ndarray, num_slots: int,
    ax: np.ndarray | float, ay: np.ndarray | float,
    bx: np.ndarray | float, by: np.ndarray | float,
    eps: float, weighted: bool,
) -> np.ndarray:
    """Definition 1 contributions of ``(POI, segment)`` rows, per slot.

    Row ``r`` pairs the POI at ``(px[r], py[r])`` with the segment
    ``a -> b`` of its slot ``row_slot[r]`` (segment columns may be
    per-row arrays or scalars).  One call of the row-wise distance kernel
    :func:`~repro.geometry.distance._points_segments_distance` — which is
    :func:`~repro.geometry.distance.point_segment_distance` operation for
    operation, exact hypot included — decides every ``dist(p, l) <= eps``,
    and a ``bincount`` sums each slot's matches in row order.  So a slot's
    mass is the left-to-right sum of its matching weights (or the count
    of its matches) in row order, however the rows of one call are
    batched together.
    """
    dists = _points_segments_distance(px, py, ax, ay, bx, by)
    within = dists <= eps
    values = (np.where(within, weights, 0.0) if weighted
              else within.astype(np.float64))
    return np.bincount(row_slot, weights=values, minlength=num_slots)


def ordered_row_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Left-to-right sums of consecutive rows of ``values``.

    Row ``r`` holds the next ``counts[r]`` entries.  Each sum is
    accumulated in entry order starting from ``0.0`` — exactly
    ``total = 0.0; for v in row: total += v`` — so a segment's mass is the
    same float whichever phase or access order produced its slot
    contributions.  The rows are laid out as the columns of a zero-padded
    matrix and added one entry position at a time (trailing ``+ 0.0``
    steps leave a sum unchanged).
    """
    n = counts.shape[0]
    if n == 0 or values.shape[0] == 0:
        return np.zeros(n, dtype=np.float64)
    rows = np.repeat(np.arange(n), counts)
    starts = np.cumsum(counts) - counts
    columns = np.arange(values.shape[0]) - starts[rows]
    padded = np.zeros((int(counts.max()), n), dtype=np.float64)
    padded[columns, rows] = values
    totals = np.zeros(n, dtype=np.float64)
    for entry in padded:
        totals += entry
    return totals


def segment_mass(
    segment: Segment,
    poi_index: POIGridIndex,
    cell_maps: SegmentCellMaps,
    keywords: frozenset[str],
    eps: float,
    weighted: bool = False,
    cache: RelevantCellCache | None = None,
    stats=None,
) -> float:
    """Definition 1: relevant POIs within ``eps`` of the segment.

    Gathers the relevant POIs of the ``eps``-augmented cells ``C_eps(l)``
    and runs :func:`slot_masses` once with one slot per cell, then sums
    the per-cell masses in cell order — the same float the SOI engine
    and the BL baseline accumulate from their slot memo.
    """
    if cache is None:
        cache = RelevantCellCache(poi_index, keywords)
    cells = cell_maps.cells_of_segment(segment.id, eps)
    entries = [cache.get(cell) for cell in cells]
    counts = np.fromiter((len(entry[0]) for entry in entries),
                         dtype=np.int64, count=len(entries))
    if not counts.any():
        return 0.0
    if stats is not None:
        stats.kernel_calls += 1
        stats.point_evals += int(counts.sum())
    per_cell = slot_masses(
        np.concatenate([entry[1] for entry in entries]),
        np.concatenate([entry[2] for entry in entries]),
        np.concatenate([entry[3] for entry in entries]),
        np.repeat(np.arange(len(cells)), counts), len(cells),
        segment.ax, segment.ay, segment.bx, segment.by, eps, weighted)
    total = 0.0
    for value in per_cell.tolist():
        total += value
    return total


def segment_mass_bruteforce(
    segment: Segment,
    pois: POISet,
    keywords: frozenset[str],
    eps: float,
    weighted: bool = False,
) -> float:
    """Reference implementation of Definition 1: full scan, no index."""
    total = 0.0
    for poi in pois:
        if not poi.matches(keywords):
            continue
        if point_segment_distance(  # repro-lint: disable=REP-P405 (brute-force reference of Definition 1)
                poi.x, poi.y, segment.ax, segment.ay,
                segment.bx, segment.by) <= eps:
            total += poi.weight if weighted else 1.0
    return total


def segment_interest(mass: float, length: float, eps: float) -> float:
    """Definition 2: mass density over the ``eps``-buffer area.

    ``buffer_area`` is positive for every ``eps > 0`` (it includes the
    ``pi * eps**2`` end-caps even for zero-length segments), which is the
    zero-guard of this division; under ``REPRO_CHECK=1`` the contract
    layer asserts that precondition and the nonnegativity of the mass.
    """
    if contracts.ENABLED:
        contracts.check_definition2(mass, length, eps)
    return mass / buffer_area(length, eps)


def street_interest_bruteforce(
    network: RoadNetwork,
    street_id: int,
    pois: POISet,
    keywords: frozenset[str],
    eps: float,
    weighted: bool = False,
) -> float:
    """Definition 3 via brute force: max interest among the street's segments."""
    best = 0.0
    for segment in network.segments_of_street(street_id):
        mass = segment_mass_bruteforce(segment, pois, keywords, eps, weighted)
        best = max(best, segment_interest(mass, segment.length, eps))
    return best
