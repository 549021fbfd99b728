"""The three ranked source lists of the SOI algorithm (Section 3.2.2).

* **SL1**: grid cells sorted decreasingly on the (upper bound of the)
  number of relevant POIs they contain;
* **SL2**: segments sorted decreasingly on ``|C_eps(l)|``, the number of
  cells within distance ``eps``;
* **SL3**: segments sorted increasingly on length.

The lists are columns over the store layout (cells and segments are
dense layout numbers), in an order :func:`rank_entries` fixes once per
layout or signature.  Each supports ``pop_block`` (the next entries to
*access*, several at a time) and ``top`` (the weight used in the unseen
upper bound ``UB``).  Both skip entries that no longer qualify — popped
cells, and segments that are already final (``pop_block``) or seen
(``top``) — which never loosens the bound: skipping a *seen* segment in
``top`` only makes the maximum over the remaining (unseen) segments
smaller or equal.
"""

from __future__ import annotations

import numpy as np

_SCAN = 64
"""Entries a cursor inspects per NumPy step while skipping seen or final
segments."""


def rank_entries(ids: np.ndarray, weights: np.ndarray,
                 descending: bool) -> np.ndarray:
    """Positions of ``(id, weight)`` entries in list order.

    Weight descending (SL1, SL2) or ascending (SL3), ties by ascending
    id, so the order — and every downstream experiment — is
    deterministic.
    """
    return np.lexsort((ids, -weights if descending else weights))


class CellSourceList:
    """SL1: layout cells with their relevant-count upper bounds, in list
    order."""

    __slots__ = ("cells", "bounds", "_next")

    def __init__(self, cells: np.ndarray, bounds: np.ndarray) -> None:
        self.cells = cells
        self.bounds = bounds
        self._next = 0

    def top(self) -> int:
        """Bound of the next un-popped cell; 0 when exhausted."""
        if self._next >= self.cells.shape[0]:
            return 0
        return int(self.bounds[self._next])

    def pop_block(self, size: int) -> np.ndarray:
        """The next ``size`` cells (fewer when the list runs dry)."""
        block = self.cells[self._next:self._next + size]
        self._next += int(block.shape[0])
        return block

    def __len__(self) -> int:
        return int(self.cells.shape[0]) - self._next


class SegmentSourceList:
    """SL2 or SL3: dense segment positions with a weight, in list order.

    Seen-ness and finality are read from a run's epoch columns
    (``seen_epoch[d] == epoch`` and ``final_epoch[d] == epoch``), so both
    lists share the segment state of
    :class:`~repro.core.state_store.SegmentStateStore`.  Both properties
    are monotone within a run, so neither cursor ever moves backwards and
    the total scan cost over a query is linear.
    """

    __slots__ = ("order", "weight", "_seen", "_final", "_epoch", "_pop",
                 "_top")

    def __init__(self, order: np.ndarray, weight: np.ndarray,
                 seen_epoch: np.ndarray, final_epoch: np.ndarray,
                 epoch: int) -> None:
        self.order = order
        self.weight = weight
        self._seen = seen_epoch
        self._final = final_epoch
        self._epoch = epoch
        self._pop = 0
        self._top = 0

    def top(self) -> float | None:
        """Weight of the best-ranked *unseen* segment; ``None`` if none."""
        order = self.order
        while self._top < order.shape[0]:
            window = order[self._top:self._top + _SCAN]
            unseen = np.flatnonzero(self._seen[window] != self._epoch)
            if unseen.shape[0]:
                self._top += int(unseen[0])
                return float(self.weight[self._top])
            self._top += int(window.shape[0])
        return None

    def pop_block(self, size: int,
                  above: float | None = None) -> np.ndarray:
        """Pop the next ``size`` non-final segments and mark them final.

        Fewer come back when the list runs dry — or, with ``above`` (a
        descending list only), when the entries left weigh ``<= above``.
        Marking them final at once keeps a later list in the same block
        from popping them again; the caller finalises them.
        """
        order = self.order
        end = int(order.shape[0])
        if above is not None:
            end = int(np.searchsorted(-self.weight, -above, side="left"))
        taken: list[np.ndarray] = []
        need = size
        while need and self._pop < end:
            window = order[self._pop:min(end, self._pop + max(_SCAN, need))]
            free = np.flatnonzero(self._final[window] != self._epoch)[:need]
            if free.shape[0] == need:
                self._pop += int(free[-1]) + 1
            else:
                self._pop += int(window.shape[0])
            if free.shape[0]:
                taken.append(window[free])
                need -= int(free.shape[0])
        if not taken:
            return order[:0]
        block = taken[0] if len(taken) == 1 else np.concatenate(taken)
        self._final[block] = self._epoch
        return block
