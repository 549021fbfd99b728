"""Keyword-signature query sessions: cross-query reuse of materialisations.

A k-SOI parameter sweep (varying ``k``, ``eps`` or the access strategy)
re-runs the engine with the *same normalised keyword set* many times, and
every run would otherwise rebuild the same signature columns from
scratch: the relevant-POI columns and the relevant-count upper bounds
that seed SL1, and — most expensively — the per ``(segment, cell)`` mass
contributions of Definition 1.

A :class:`QuerySession` owns exactly those caches for one keyword
signature:

* per-``eps`` :class:`~repro.core.state_store.SignatureBindings` (the
  ``|P_Psi(c)|`` bounds of Algorithm 1, line 2, the SL1 order and the
  cell-major relevant-POI columns);
* per-``(eps, weighted)`` mass memos over the store layout's
  ``(segment, cell)`` slots (:class:`~repro.core.state_store.MassSlots`).
  A cached mass is the exact float the kernel would recompute, so serving
  it cannot change any downstream comparison or bound;
* a :class:`~repro.core.interest.RelevantCellCache` for single-segment
  evaluations (:meth:`~repro.core.soi.SOIEngine.segment_exact_interest`).

The per-run scratch stores are pooled on the engine, not here.

Sessions live in a :class:`QuerySessionPool` with an LRU bound on retained
signatures.  The pool must be **explicitly invalidated when the indexes it
reads are rebuilt** (:meth:`~repro.core.soi.SOIEngine.rebuild_indexes`
does this); stale sessions are discarded wholesale rather than patched.

Thread-compatibility: session caches are only ever *added to* (a lost
update merely recomputes a value), and the pool serialises its LRU
book-keeping behind a lock, so concurrent queries from
:func:`repro.perf.parallel.run_parallel` are safe.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.core.interest import RelevantCellCache
from repro.core.state_store import MassSlots, SignatureBindings
from repro.obs.metrics import REGISTRY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.state_store import StoreLayout
    from repro.index.poi_grid import POIGridIndex

DEFAULT_MAX_SESSIONS = 8
"""How many keyword signatures a pool retains by default.  A sweep touches
one signature at a time; interactive workloads rarely rotate through more
than a handful of keyword sets before the oldest is cold anyway."""


class QuerySession:
    """All cached per-query materialisations for one keyword signature."""

    __slots__ = ("signature", "generation", "cache", "_poi_index",
                 "queries_served", "_store_lock", "_bindings", "_mass_slots")

    def __init__(self, poi_index: "POIGridIndex",
                 signature: frozenset[str], generation: int = 0) -> None:
        self.signature = signature
        self.generation = generation
        self._poi_index = poi_index
        self.cache = RelevantCellCache(poi_index, signature)
        self.queries_served = 0
        # Per-eps signature bindings and per (eps, weighted) slot memos;
        # the lock serialises both maps.
        self._store_lock = threading.Lock()
        self._bindings: dict[float, SignatureBindings] = {}
        self._mass_slots: dict[tuple[float, bool], MassSlots] = {}

    def store_bindings(self, layout: "StoreLayout") -> SignatureBindings:
        """This signature's columns over ``layout`` (built once per eps)."""
        with self._store_lock:
            bindings = self._bindings.get(layout.eps)
        if bindings is None:
            built = SignatureBindings(layout, self._poi_index,
                                      self.signature)
            with self._store_lock:
                # A concurrent builder may have won; both built the same
                # deterministic arrays, keep whichever landed first.
                bindings = self._bindings.setdefault(layout.eps, built)
        return bindings

    def store_mass_slots(self, layout: "StoreLayout",
                         weighted: bool) -> MassSlots:
        """The slot-indexed mass memo for one ``(eps, weighted)``."""
        key = (layout.eps, weighted)
        with self._store_lock:
            slots = self._mass_slots.get(key)
            if slots is None:
                slots = MassSlots(layout.num_slots)
                self._mass_slots[key] = slots
        return slots

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"QuerySession(signature={sorted(self.signature)!r}, "
                f"cells={len(self.cache)})")


class QuerySessionPool:
    """LRU pool of :class:`QuerySession` objects, one per keyword signature."""

    def __init__(self, poi_index: "POIGridIndex",
                 maxsize: int = DEFAULT_MAX_SESSIONS) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be at least 1, got {maxsize}")
        self._poi_index = poi_index
        self.maxsize = maxsize
        self.generation = 0
        self._sessions: OrderedDict[frozenset[str], QuerySession] = \
            OrderedDict()
        self._lock = threading.Lock()
        self.evictions = 0

    def get(self, signature: frozenset[str]) -> QuerySession:
        """The session for a normalised keyword set (created on first use)."""
        with self._lock:
            session = self._sessions.get(signature)
            if session is None:
                REGISTRY.inc("session.pool_misses")
                session = QuerySession(self._poi_index, signature,
                                       self.generation)
                self._sessions[signature] = session
                while len(self._sessions) > self.maxsize:
                    self._sessions.popitem(last=False)
                    self.evictions += 1
                    REGISTRY.inc("session.pool_evictions")
            else:
                REGISTRY.inc("session.pool_hits")
                self._sessions.move_to_end(signature)
            REGISTRY.set_gauge("session.pool_size", len(self._sessions))
            return session

    def peek(self, signature: frozenset[str]) -> QuerySession | None:
        """The retained session, if any, without touching LRU order."""
        with self._lock:
            return self._sessions.get(signature)

    def invalidate(self, poi_index: "POIGridIndex | None" = None) -> None:
        """Drop every session (call after the indexes are rebuilt).

        Passing the freshly built ``poi_index`` re-targets future sessions
        at it; omitting it keeps the current index (useful for tests and
        for bounding memory without a rebuild).
        """
        with self._lock:
            self._sessions.clear()
            self.generation += 1
            if poi_index is not None:
                self._poi_index = poi_index

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __contains__(self, signature: frozenset[str]) -> bool:
        with self._lock:
            return signature in self._sessions
