"""The BL baseline of the performance study (Section 5.2.1).

BL "uses only the spatial grid index to efficiently compute the interest of
every segment, and then determines the k-SOIs": no source lists, no bounds,
no early termination — every segment's exact mass is computed via its
``eps``-augmented cells, streets are ranked by their maximum segment
interest, and the top k are returned.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.aggregates import StreetAggregate

import numpy as np

from repro.analysis import contracts
from repro.core.interest import ordered_row_sums, validate_query
from repro.core.results import SOIResult
from repro.core.soi import DEFAULT_EPS, SOIEngine
from repro.core.state_store import MassSlots, SignatureBindings
from repro.obs import metrics as obs_metrics
from repro.obs.tracer import trace_span


class BaselineSOI:
    """Exhaustive k-SOI evaluation over a prepared :class:`SOIEngine`.

    Shares the engine's indexes (the paper's BL also uses the grid), so a
    timing comparison against :meth:`SOIEngine.top_k` isolates the benefit
    of the source-list filtering rather than of indexing itself.
    """

    def __init__(self, engine: SOIEngine) -> None:
        self.engine = engine

    def top_k(
        self,
        keywords: Iterable[str],
        k: int,
        eps: float = DEFAULT_EPS,
        weighted: bool = False,
        aggregate: StreetAggregate | None = None,
        use_session: bool = True,
    ) -> list[SOIResult]:
        """Top-k streets by exhaustive computation.

        Output contract matches :meth:`SOIEngine.top_k`: decreasing
        interest, ties by street id, zero-interest streets omitted.

        ``aggregate`` selects how segment interests combine into a street
        interest (default: Definition 3's maximum).  Alternatives are only
        available on this exhaustive path — the SOI algorithm's bounds are
        specific to max-aggregation (see :mod:`repro.core.aggregates`).
        """
        from repro.core.aggregates import StreetAggregate, rank_streets

        interests = self.all_segment_interests(keywords, k, eps, weighted,
                                               use_session=use_session)
        network = self.engine.network
        if aggregate is None or aggregate is StreetAggregate.MAX:
            best: dict[int, tuple[float, int]] = {}
            for segment_id, value in interests.items():
                street_id = network.segment(segment_id).street_id
                current = best.get(street_id)
                if current is None or value > current[0]:
                    best[street_id] = (value, segment_id)
            ranked = sorted(
                ((value, street_id, seg_id)
                 for street_id, (value, seg_id) in best.items()
                 if value > 0),
                key=lambda item: (-item[0], item[1]))
            return [
                SOIResult(street_id=street_id,
                          street_name=network.street(street_id).name,
                          interest=value,
                          best_segment_id=seg_id)
                for value, street_id, seg_id in ranked[:k]
            ]
        out = []
        for street_id, value in rank_streets(network, interests,
                                             aggregate, eps, k):
            segments = network.segments_of_street(street_id)
            best_segment = max(segments,
                               key=lambda seg: interests[seg.id])
            out.append(SOIResult(
                street_id=street_id,
                street_name=network.street(street_id).name,
                interest=value,
                best_segment_id=best_segment.id))
        return out

    def all_segment_interests(
        self,
        keywords: Iterable[str],
        k: int = 1,
        eps: float = DEFAULT_EPS,
        weighted: bool = False,
        use_session: bool = True,
        stats=None,
    ) -> dict[int, float]:
        """Exact Definition 2 interest of *every* segment.

        Also used by the effectiveness experiments that need the full
        ranking rather than just the top k.  ``stats`` (an
        :class:`~repro.core.results.SOIStats` or compatible) collects
        kernel/cache counters.
        """
        query = validate_query(keywords, k, eps)
        with trace_span("soi.baseline_query", eps=eps, weighted=weighted,
                        keywords=",".join(sorted(query))):
            layout = self.engine.store_layout(eps)
            masses = self._segment_masses(layout, query, weighted,
                                          use_session, stats)
            if contracts.ENABLED:
                for value, length in zip(masses.tolist(),
                                         layout.lengths.tolist()):
                    contracts.check_definition2(value, length, eps)
            out = dict(zip(layout.seg_ids.tolist(),
                           (masses / layout.buffer_col).tolist()))
        obs_metrics.REGISTRY.inc("soi.baseline_queries")
        obs_metrics.REGISTRY.inc("soi.baseline_segments_scanned", len(out))
        return out

    def segment_masses(self, keywords: Iterable[str],
                       eps: float = DEFAULT_EPS,
                       weighted: bool = False) -> dict[int, float]:
        """Exact Definition 1 mass of every segment, by segment id."""
        query = validate_query(keywords, 1, eps)
        layout = self.engine.store_layout(eps)
        masses = self._segment_masses(layout, query, weighted, True, None)
        return dict(zip(layout.seg_ids.tolist(), masses.tolist()))

    def _segment_masses(self, layout, query: frozenset[str], weighted: bool,
                        use_session: bool, stats):
        """Every segment's mass, as a column in dense order.

        One pass fills the slot memo for every slot whose cell holds a
        relevant POI (:meth:`~repro.core.state_store.MassSlots.fill`, the
        SOI engine's kernel), then each segment's slots are summed in
        ``cells_of_segment`` order — the canonical accumulation the
        engine's refine and :func:`~repro.core.interest.segment_mass`
        use.  With ``use_session=True`` the signature columns and the
        memo are shared with the engine's other queries on the same
        keyword set.
        """
        engine = self.engine
        session = engine.sessions.get(query) if use_session else None
        if session is not None:
            if stats is not None:
                stats.session_reused = session.queries_served > 0
            session.queries_served += 1
            bind = session.store_bindings(layout)
            memo = session.store_mass_slots(layout, weighted)
        else:
            bind = SignatureBindings(layout, engine.poi_index, query)
            memo = MassSlots(layout.num_slots)
        relevant = np.flatnonzero(bind.rel_count[layout.slot_cell] > 0)
        memo.fill(relevant, layout, bind, layout.eps, weighted, stats,
                  count_memo=session is not None)
        contributions = np.where(memo.known, memo.mass, 0.0)
        return ordered_row_sums(contributions, layout.cell_counts)
