"""The BL baseline of Section 5.2.2: naive greedy MaxSum diversification.

Like ST_Rel+Div it builds the summary incrementally, at each step adding
the photo with the maximum marginal relevance (Equation 10) — but it
"examines all photos in each iteration" instead of operating on grid cells
with bounds.  Ties break towards the smallest photo position, the same
rule Algorithm 2 uses, so the two methods return identical summaries.

Equation 10 is evaluated through the shared incremental
:class:`~repro.core.describe.measures.MMREvaluator`: per-candidate running
diversity sums make one full selection ``O(k * n)`` pair evaluations
instead of the naive ``O(k^2 * n)``, while staying bit-identical to
recomputing :func:`~repro.core.describe.measures.mmr_value` from scratch.
"""

from __future__ import annotations

from repro.core.describe.measures import MMREvaluator
from repro.core.describe.profile import StreetProfile
from repro.core.describe.stats import DescribeStats
from repro.errors import QueryError, check_count
from repro.obs import metrics as obs_metrics
from repro.obs.tracer import perf_now, trace_span


class GreedyDescriber:
    """Exhaustive greedy photo selection over a street profile."""

    def __init__(self, profile: StreetProfile) -> None:
        self.profile = profile

    def select(self, k: int, lam: float = 0.5, w: float = 0.5) -> list[int]:
        """Photo positions of the ``k``-photo summary.

        Parameters mirror Equation 2/10: ``lam`` trades relevance for
        diversity, ``w`` trades spatial for textual information.  Returns
        fewer than ``k`` positions only when the profile holds fewer
        photos.
        """
        positions, _stats = self.select_with_stats(k, lam, w)
        return positions

    def select_with_stats(
        self, k: int, lam: float = 0.5, w: float = 0.5
    ) -> tuple[list[int], DescribeStats]:
        """Like :meth:`select` but also returns work counters."""
        _validate(k, lam, w)
        stats = DescribeStats()
        t0 = perf_now()
        with trace_span("describe.select", method="greedy", k=k, lam=lam, w=w):
            n = len(self.profile)
            evaluator = MMREvaluator(self.profile, lam, w, k)
            selected: list[int] = []
            is_selected = bytearray(n)
            while len(selected) < min(k, n):
                stats.iterations += 1
                with trace_span("describe.round"):
                    best_pos = -1
                    best_value = -1.0
                    # Ascending position order + strict ">" keeps the
                    # smallest position on ties (same rule as Algorithm 2's
                    # refinement).
                    for pos in range(n):
                        if is_selected[pos]:
                            continue
                        stats.photos_examined += 1
                        value = evaluator.value(pos)
                        if value > best_value:
                            best_value = value
                            best_pos = pos
                    selected.append(best_pos)
                    is_selected[best_pos] = 1
                    evaluator.extend_selection(best_pos)
            stats.pair_div_evals = evaluator.pair_div_evals
        obs_metrics.record_describe_query(stats, perf_now() - t0,
                                          method="greedy")
        return selected, stats


def _validate(k: int, lam: float, w: float) -> None:
    check_count("summary size k", k)
    if not 0.0 <= lam <= 1.0:
        raise QueryError(f"lambda must be in [0, 1], got {lam}")
    if not 0.0 <= w <= 1.0:
        raise QueryError(f"w must be in [0, 1], got {w}")
