"""Result and statistics records shared by the SOI engine and its baseline."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.interest import validate_query


@dataclass(frozen=True, slots=True)
class SOIQuery:
    """A k-SOI query ``q = <Psi, k, eps>`` (Problem 1).

    ``keywords`` are normalised at construction; invalid parameters raise
    :class:`~repro.errors.QueryError`.
    """

    keywords: frozenset[str]
    k: int
    eps: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "keywords",
            validate_query(self.keywords, self.k, self.eps))


@dataclass(frozen=True, slots=True)
class SOIResult:
    """One street in a k-SOI answer.

    ``interest`` is the exact street interest (Definition 3) and
    ``best_segment_id`` the segment attaining it.
    """

    street_id: int
    street_name: str
    interest: float
    best_segment_id: int


@dataclass(slots=True)
class SOIStats:
    """Work counters of one SOI run, for the performance experiments.

    ``phase_seconds`` records the three phases the paper breaks Figure 4
    bars into: ``"build"`` (source-list construction), ``"filter"`` and
    ``"refine"``.

    The filter pulls the source lists in blocks: ``iterations`` counts
    pulls (cells plus segments popped), ``termination_checks`` the
    LBk >= UB evaluations (one per block, plus the one that stops), and
    ``lbk_heap_updates`` the street lower bounds a block raised.

    The kernel and cache counters instrument the performance layer:
    ``kernel_calls`` counts calls of the slot-mass kernel
    :func:`~repro.core.interest.slot_masses` (one per filter block or
    refine chunk with fresh slots; ``refine_kernel_calls`` is the
    refinement-phase share) and ``point_evals`` the POI-slot rows they
    evaluated.  ``relevant_cache_hits``/``misses`` count runs that reused
    or built the signature's relevant-POI columns
    (:class:`~repro.core.state_store.SignatureBindings`), and the
    ``mass_cache_*`` counters the per-``(segment, cell)`` slot memo
    traffic.  ``session_reused`` is true when the run was served from a
    warm :class:`~repro.perf.session.QuerySession`; ``store_reused`` when
    the run recycled an engine-pooled
    :class:`~repro.core.state_store.SegmentStateStore` instead of
    allocating fresh columns.
    """

    cells_popped: int = 0
    segments_popped: int = 0
    segments_seen: int = 0
    segments_finalized_in_filter: int = 0
    cell_visits: int = 0
    refinement_finalized: int = 0
    refinement_pruned: int = 0
    iterations: int = 0
    termination_checks: int = 0
    lbk_heap_updates: int = 0
    kernel_calls: int = 0
    refine_kernel_calls: int = 0
    point_evals: int = 0
    relevant_cache_hits: int = 0
    relevant_cache_misses: int = 0
    mass_cache_hits: int = 0
    mass_cache_misses: int = 0
    session_reused: bool = False
    store_reused: bool = False
    phase_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    def counters(self) -> dict[str, int]:
        """The integer work counters as a plain dict (for ``repro bench``)."""
        return {
            "cells_popped": self.cells_popped,
            "segments_popped": self.segments_popped,
            "segments_seen": self.segments_seen,
            "segments_finalized_in_filter": self.segments_finalized_in_filter,
            "cell_visits": self.cell_visits,
            "refinement_finalized": self.refinement_finalized,
            "refinement_pruned": self.refinement_pruned,
            "iterations": self.iterations,
            "termination_checks": self.termination_checks,
            "lbk_heap_updates": self.lbk_heap_updates,
            "kernel_calls": self.kernel_calls,
            "refine_kernel_calls": self.refine_kernel_calls,
            "point_evals": self.point_evals,
            "relevant_cache_hits": self.relevant_cache_hits,
            "relevant_cache_misses": self.relevant_cache_misses,
            "mass_cache_hits": self.mass_cache_hits,
            "mass_cache_misses": self.mass_cache_misses,
            "session_reused": int(self.session_reused),
            "store_reused": int(self.store_reused),
        }
