"""Tests for :mod:`repro.core.source_lists`."""

from __future__ import annotations

import numpy as np

from repro.core.source_lists import (
    CellSourceList,
    SegmentSourceList,
    rank_entries,
)


def _cells(entries):
    """SL1 over ``(cell number, bound)`` entries, ranked like the engine."""
    ids = np.array([cell for cell, _ub in entries], dtype=np.int64)
    bounds = np.array([ub for _cell, ub in entries], dtype=np.int64)
    order = rank_entries(ids, bounds, descending=True)
    return CellSourceList(ids[order], bounds[order])


class TestCellSourceList:
    def test_pop_order_count_descending(self):
        sl1 = _cells([(0, 3), (1, 9), (2, 5)])
        assert sl1.pop_block(1).tolist() == [1]
        assert sl1.pop_block(2).tolist() == [2, 0]
        assert sl1.pop_block(4).tolist() == []

    def test_tie_breaks_on_coordinates(self):
        # Layout cells are numbered in ascending (i, j) order, so the
        # coordinate tie-break is a tie-break on the cell number.
        sl1 = _cells([(5, 2), (1, 2)])
        assert sl1.pop_block(1).tolist() == [1]

    def test_top_tracks_next_entry(self):
        sl1 = _cells([(0, 3), (1, 9)])
        assert sl1.top() == 9
        sl1.pop_block(1)
        assert sl1.top() == 3
        sl1.pop_block(1)
        assert sl1.top() == 0
        assert len(sl1) == 0

    def test_empty_list(self):
        sl1 = _cells([])
        assert sl1.top() == 0
        assert sl1.pop_block(4).tolist() == []
        assert len(sl1) == 0


class TestSegmentSourceList:
    EPOCH = 1

    def _make(self, descending: bool, final=(), seen=()):
        ids = np.array([0, 1, 2, 3], dtype=np.int64)
        weights = np.array([5.0, 1.0, 3.0, 4.0])
        order = rank_entries(ids, weights, descending)
        seen_epoch = np.zeros(4, dtype=np.int64)
        final_epoch = np.zeros(4, dtype=np.int64)
        seen_epoch[list(seen)] = self.EPOCH
        final_epoch[list(final)] = self.EPOCH
        sl = SegmentSourceList(ids[order], weights[order], seen_epoch,
                               final_epoch, self.EPOCH)
        return sl, seen_epoch, final_epoch

    def test_pop_descending(self):
        sl, _seen, _final = self._make(True)
        assert sl.pop_block(3).tolist() == [0, 3, 2]
        assert sl.pop_block(3).tolist() == [1]
        assert sl.pop_block(3).tolist() == []

    def test_pop_ascending(self):
        sl, _seen, _final = self._make(False)
        assert sl.pop_block(5).tolist() == [1, 2, 3, 0]

    def test_pop_skips_final_segments(self):
        sl, _seen, final = self._make(True, final={0, 2})
        assert sl.pop_block(1).tolist() == [3]
        final[1] = self.EPOCH
        assert sl.pop_block(1).tolist() == []

    def test_pop_marks_popped_final(self):
        sl, _seen, final = self._make(True)
        sl.pop_block(2)
        assert final.tolist() == [1, 0, 0, 1]

    def test_pop_above_stops_at_the_weight_limit(self):
        sl, _seen, _final = self._make(True, final={3})
        # Entries weigh 5, 4 (final), 3, 1: only weights > 3 qualify.
        assert sl.pop_block(4, above=3.0).tolist() == [0]
        assert sl.pop_block(4).tolist() == [2, 1]

    def test_top_skips_seen_segments(self):
        sl, seen, _final = self._make(True)
        assert sl.top() == 5.0
        seen[0] = self.EPOCH
        assert sl.top() == 4.0
        seen[[1, 2, 3]] = self.EPOCH
        assert sl.top() is None

    def test_top_and_pop_independent(self):
        sl, seen, _final = self._make(False)
        # A segment seen (but not final) is skipped by top but returned
        # by pop (accessing it finalises it).
        seen[1] = self.EPOCH
        assert sl.top() == 3.0
        assert sl.pop_block(1).tolist() == [1]

    def test_exhausted_property(self):
        sl, _seen, final = self._make(True)
        final[[0, 3]] = self.EPOCH
        assert sl.pop_block(1).tolist() == [2]
        final[:] = self.EPOCH
        assert sl.pop_block(1).tolist() == []

    def test_ties_break_on_id(self):
        order = rank_entries(np.array([7, 3]), np.array([2.0, 2.0]),
                             descending=True)
        assert order.tolist() == [1, 0]

    def test_stale_epoch_counts_as_unseen(self):
        # Columns recycled from an earlier run hold older epochs.
        sl, seen, final = self._make(True)
        seen[:] = self.EPOCH - 1
        final[:] = self.EPOCH - 1
        assert sl.top() == 5.0
        assert sl.pop_block(1).tolist() == [0]

    def test_long_list_scans_past_many_final_entries(self):
        n = 1000
        ids = np.arange(n, dtype=np.int64)
        weights = ids.astype(np.float64)
        seen_epoch = np.zeros(n, dtype=np.int64)
        final_epoch = np.zeros(n, dtype=np.int64)
        final_epoch[:-3] = self.EPOCH
        seen_epoch[:-1] = self.EPOCH
        sl = SegmentSourceList(ids, weights, seen_epoch, final_epoch,
                               self.EPOCH)
        assert sl.top() == float(n - 1)
        assert sl.pop_block(2).tolist() == [n - 3, n - 2]
        assert sl.pop_block(8).tolist() == [n - 1]

    def test_presorted_entries_respected(self):
        # The lists take their order as given ("wrong" on purpose here).
        seen_epoch = np.zeros(3, dtype=np.int64)
        final_epoch = np.zeros(3, dtype=np.int64)
        sl = SegmentSourceList(np.array([2, 0]), np.array([9.0, 1.0]),
                               seen_epoch, final_epoch, self.EPOCH)
        assert sl.pop_block(1).tolist() == [2]
