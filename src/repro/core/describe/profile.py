"""The street context used by the describe stage.

A :class:`StreetProfile` bundles everything Definitions 4-7 need about one
street: its associated photos ``R_s`` (within ``eps``), the keyword
frequency vector ``Phi_s``, the distance normaliser ``maxD(s)`` (diagonal
of the ``eps``-buffered street MBR) and the neighbourhood radius ``rho``.
It precomputes the per-photo spatial and textual relevances once, since
every selection method reads them repeatedly.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.data.keywords import KeywordFrequencyVector
from repro.data.photo import PhotoSet
from repro.data.poi import POISet
from repro.errors import QueryError
from repro.geometry.bbox import BBox
from repro.geometry.distance import points_segment_distance
from repro.network.model import RoadNetwork
from repro.obs.tracer import trace_span

DEFAULT_RHO = 0.0001
"""The neighbourhood radius used in the paper's experiments (Section 5.2.2)."""


class StreetProfile:
    """Everything the describe measures need about one street.

    Parameters
    ----------
    photos:
        ``R_s``: the photos associated with the street.
    phi:
        ``Phi_s``: the street's keyword frequency vector.
    max_d:
        ``maxD(s)``: largest possible distance between two associated
        photos (Definition 5's normaliser).
    extent:
        Rectangle for the photo grid (the ``eps``-buffered street MBR).
    rho:
        Neighbourhood radius of Definition 4.
    street_id, street_name:
        Identification, carried through to reports.
    """

    def __init__(
        self,
        photos: PhotoSet,
        phi: KeywordFrequencyVector,
        max_d: float,
        extent: BBox,
        rho: float = DEFAULT_RHO,
        street_id: int = -1,
        street_name: str = "",
    ) -> None:
        if rho <= 0:
            raise QueryError(f"rho must be positive, got {rho}")
        if max_d <= 0:
            raise QueryError(f"max_d must be positive, got {max_d}")
        self.photos = photos
        self.phi = phi
        self.max_d = float(max_d)
        self.extent = extent
        self.rho = float(rho)
        self.street_id = street_id
        self.street_name = street_name
        self.keyword_sets: tuple[frozenset[str], ...] = tuple(
            photo.keywords for photo in photos)
        self.tag_id_sets = self._intern_keyword_sets()
        self.spatial_rel = self._compute_spatial_rel()
        self.textual_rel = self._compute_textual_rel()

    def _intern_keyword_sets(self) -> tuple[frozenset[int], ...]:
        """``keyword_sets`` with every tag replaced by a small integer id.

        Jaccard distance (Definition 7) only needs intersection/union
        *cardinalities*, and the interning is injective, so distances over
        the id sets equal distances over the string sets — while set
        operations on small ints avoid re-hashing tag strings on every
        pairwise diversity evaluation.  Ids follow the sorted global
        vocabulary, so they are deterministic across runs.
        """
        vocabulary = sorted(set().union(*self.keyword_sets))
        intern = {keyword: tag_id
                  for tag_id, keyword in enumerate(vocabulary)}
        return tuple(
            frozenset(intern[keyword] for keyword in keywords)
            for keywords in self.keyword_sets)

    # -- precomputed per-photo relevances ----------------------------------

    def _compute_spatial_rel(self) -> np.ndarray:
        """Definition 4 for every photo: neighbours within ``rho`` / ``|R_s|``.

        A photo counts itself (its distance to itself is zero), matching
        the cell lower bound of Equation 11.
        """
        n = len(self.photos)
        out = np.zeros(n, dtype=np.float64)
        if n == 0:
            return out
        xs, ys = self.photos.xs, self.photos.ys
        for pos in range(n):
            within = np.hypot(xs - xs[pos], ys - ys[pos]) <= self.rho
            out[pos] = np.count_nonzero(within) / n
        return out

    def _compute_textual_rel(self) -> np.ndarray:
        """Definition 6 (Equation 8) for every photo."""
        n = len(self.photos)
        out = np.zeros(n, dtype=np.float64)
        norm = self.phi.norm1
        if norm == 0:
            return out
        for pos in range(n):
            out[pos] = self.phi.weight_of_set(self.keyword_sets[pos]) / norm
        return out

    def __len__(self) -> int:
        return len(self.photos)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"StreetProfile(street={self.street_name!r}, "
                f"photos={len(self.photos)}, rho={self.rho})")


def photos_near_street(
    network: RoadNetwork,
    street_id: int,
    photos: PhotoSet,
    eps: float,
) -> list[int]:
    """Positions of photos within ``eps`` of the street.

    ``dist(r, s) = min over segments of dist(r, l)`` (Section 4.1.1 defines
    photo-to-street distance exactly as for POIs).
    """
    if len(photos) == 0:
        return []
    within = np.zeros(len(photos), dtype=bool)
    xs, ys = photos.xs, photos.ys
    for segment in network.segments_of_street(street_id):
        pending = ~within
        if not pending.any():
            break
        dists = points_segment_distance(
            xs[pending], ys[pending],
            segment.ax, segment.ay, segment.bx, segment.by)
        hits = np.flatnonzero(pending)
        within[hits[dists <= eps]] = True
    return [int(pos) for pos in np.flatnonzero(within)]


@trace_span("describe.profile_build")
def build_street_profile(
    network: RoadNetwork,
    street_id: int,
    photos: PhotoSet,
    eps: float,
    rho: float = DEFAULT_RHO,
    pois: POISet | None = None,
    poi_keyword_weight: float = 1.0,
) -> StreetProfile:
    """Assemble the :class:`StreetProfile` for a street.

    ``Phi_s`` is derived from the keyword sets of the associated photos
    (the paper notes several derivations are possible, including "from the
    keywords of its neighbouring POIs and/or photos"); pass ``pois`` to also
    blend in the keywords of POIs within ``eps``, each contributing
    ``poi_keyword_weight`` per keyword occurrence.

    Raises :class:`~repro.errors.QueryError` for a street id the network
    does not contain and for a negative or non-finite ``eps``.
    """
    if street_id not in network.streets:
        raise QueryError(f"unknown street id {street_id!r}")
    if not (math.isfinite(eps) and eps >= 0):
        raise QueryError(f"eps must be non-negative and finite, got {eps}")
    positions = photos_near_street(network, street_id, photos, eps)
    street_photos = photos.subset(positions)
    keyword_sets: list[Iterable[str]] = [r.keywords for r in street_photos]
    freq: dict[str, float] = {}
    for keywords in keyword_sets:
        for keyword in keywords:
            # The Phi_s frequency vector is algorithmic state, not telemetry.
            freq[keyword] = freq.get(keyword, 0.0) + 1.0  # repro-lint: disable=REP-O502 (Phi_s state)
    if pois is not None:
        for pos in _pois_near_street(network, street_id, pois, eps):
            for keyword in pois[pos].keywords:
                freq[keyword] = freq.get(keyword, 0.0) + poi_keyword_weight  # repro-lint: disable=REP-O502 (Phi_s state)
    extent = network.street_bbox(street_id).expanded(eps)
    return StreetProfile(
        photos=street_photos,
        phi=KeywordFrequencyVector(freq),
        max_d=extent.diagonal,
        extent=extent,
        rho=rho,
        street_id=street_id,
        street_name=network.street(street_id).name,
    )


def _pois_near_street(
    network: RoadNetwork, street_id: int, pois: POISet, eps: float
) -> Sequence[int]:
    """Positions of POIs within ``eps`` of the street (mirror of photos)."""
    if len(pois) == 0:
        return []
    within = np.zeros(len(pois), dtype=bool)
    for segment in network.segments_of_street(street_id):
        pending = ~within
        if not pending.any():
            break
        dists = points_segment_distance(
            pois.xs[pending], pois.ys[pending],
            segment.ax, segment.ay, segment.bx, segment.by)
        hits = np.flatnonzero(pending)
        within[hits[dists <= eps]] = True
    return [int(pos) for pos in np.flatnonzero(within)]
