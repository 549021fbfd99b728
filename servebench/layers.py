"""The traced run: a per-layer breakdown measured from outside the program.

The benchmark puts its own spans around calls into each layer's public
functions; nothing inside ``repro`` is instrumented.  Two parts:

* :func:`cold_path` times one cold start step by step -- ``SOIEngine``
  (index build), ``augmented_cell_counts_column`` (the eps augment),
  ``store_layout``, ``IndexSnapshot.export`` and, in process,
  ``IndexSnapshot.attach`` + ``attach_engine`` -- and returns the
  attached view a worker would serve from.
* :class:`Replay` serves a workload's requests in process over that view
  through the program's own ``serve_request_cached``, handing it a
  result cache and an engine that open a span around each public call
  the serve path makes into them (and keep the core layers' work
  counters), so each layer's time is measured on the real serve path.

A layer's self time is its spans' duration minus the part covered by
child spans; :func:`self_times` sums it per span name.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager

from repro.core.describe import STRelDivDescriber, build_street_profile
from repro.core.soi import SOIEngine
from repro.obs.metrics import MetricsRegistry
from repro.perf.result_cache import ResultCache
from repro.serve import server as server_module
from repro.serve.server import serve_request_cached
from repro.serve.snapshot import IndexSnapshot
from repro.serve.views import attach_engine, attach_photo_set

REPLAY_LAYERS = ("serve.request", "perf.result_cache", "perf.session",
                 "core.soi", "core.describe.profile", "core.describe.init",
                 "core.describe.select")
"""Span names under a replay root; every instant of a replay is in one."""


class ColdPath:
    """The attached in-process view plus the snapshot that owns it."""

    def __init__(self, snapshot: IndexSnapshot, attached: IndexSnapshot,
                 engine: SOIEngine, photos) -> None:
        self.snapshot = snapshot
        self.attached = attached
        self.engine = engine
        self.photos = photos

    def close(self) -> None:
        self.engine = None
        self.photos = None
        self.attached.close()
        self.snapshot.close()
        self.snapshot.unlink()


def cold_path(city, eps: float, spans) -> ColdPath:
    """Build, augment, lay out, export and attach, one span per step."""
    with spans.span("bench.coldstart"):
        with spans.span("index.build"):
            engine = SOIEngine(city.network, city.pois)
        with spans.span("index.augment"):
            engine.cell_maps.augmented_cell_counts_column(eps)
        with spans.span("index.store_layout"):
            engine.store_layout(eps)
        with spans.span("serve.export"):
            snapshot = IndexSnapshot.export(engine, city.photos,
                                            warm_eps=(eps,))
        try:
            with spans.span("serve.attach"):
                attached = IndexSnapshot.attach(snapshot.name)
                view = attach_engine(attached)
                photos = attach_photo_set(attached)
        except BaseException:
            snapshot.close()
            snapshot.unlink()
            raise
    return ColdPath(snapshot, attached, view, photos)


class Replay:
    """In-process serving of one request stream through the program's own
    ``serve_request_cached``, one span per layer call.

    The call gets a result cache, an engine and describers that open a
    span around each public call the serve path makes into them and
    keep the work counters:

    * the cache's ``ensure_generation``/``lookup``/``store`` ->
      ``perf.result_cache``;
    * the engine's ``top_k``, which the proxy serves as ``session_for``
      (``perf.session``) then ``top_k_with_stats`` (``core.soi``) -- the
      two steps ``SOIEngine.top_k`` takes itself;
    * ``build_street_profile`` -> ``core.describe.profile``, the
      ``STRelDivDescriber`` constructor (its per-cell bounds) ->
      ``core.describe.init``, and the describer's ``select``, served as
      ``select_with_stats`` (``core.describe.select``).  The serve module builds its describers
      itself, so these two names are swapped in ``repro.serve.server``
      for the length of :meth:`serving` and put back afterwards.

    Everything else the call does (key derivation, slicing, the
    describer LRU) is the ``serve.request`` span's self time.
    """

    def __init__(self, engine: SOIEngine, photos, spans) -> None:
        self.engine = _TimedEngine(engine, self)
        self.photos = photos
        self.spans = spans
        self.cache = _TimedCache(self, generation=engine.index_generation,
                                 registry=MetricsRegistry())
        self.describers: OrderedDict = OrderedDict()
        self.rid = None
        self.soi_stats: list = []
        self.describe_stats: list = []

    def span(self, name: str):
        return self.spans.span(name, self.rid)

    @contextmanager
    def serving(self):
        """Route the serve module's describer construction through spans."""
        replay = self

        def profile(*args, **kwargs):
            with replay.span("core.describe.profile"):
                return build_street_profile(*args, **kwargs)

        class Describer(STRelDivDescriber):
            def __init__(self, *args, **kwargs):
                with replay.span("core.describe.init"):
                    super().__init__(*args, **kwargs)

            def select(self, k, lam=0.5, w=0.5):
                with replay.span("core.describe.select"):
                    positions, stats = self.select_with_stats(k, lam, w)
                replay.describe_stats.append(stats)
                return positions

        saved = (server_module.build_street_profile,
                 server_module.STRelDivDescriber)
        server_module.build_street_profile = profile
        server_module.STRelDivDescriber = Describer
        try:
            yield self
        finally:
            (server_module.build_street_profile,
             server_module.STRelDivDescriber) = saved

    def serve(self, request, rid: int):
        """One request through ``serve_request_cached`` (inside
        :meth:`serving`)."""
        self.rid = rid
        with self.span("serve.request"):
            return serve_request_cached(self.engine, self.photos, request,
                                        self.cache, self.describers)


class _TimedEngine:
    """An engine whose ``top_k`` is timed in its two public steps."""

    def __init__(self, engine: SOIEngine, replay: Replay) -> None:
        self._engine = engine
        self._replay = replay

    def __getattr__(self, name: str):
        return getattr(self._engine, name)

    def top_k(self, keywords, k, *args, session=None, **kwargs):
        replay = self._replay
        if session is None and kwargs.get("use_session", True):
            with replay.span("perf.session"):
                session = self._engine.session_for(keywords)
        with replay.span("core.soi"):
            results, stats = self._engine.top_k_with_stats(
                keywords, k, *args, session=session, **kwargs)
        replay.soi_stats.append(stats)
        return results


class _TimedCache(ResultCache):
    """A :class:`ResultCache` whose public calls are spans."""

    def __init__(self, replay: Replay, **kwargs) -> None:
        super().__init__(**kwargs)
        self._replay = replay

    def ensure_generation(self, generation: int) -> None:
        with self._replay.span("perf.result_cache"):
            super().ensure_generation(generation)

    def lookup(self, *args, **kwargs):
        with self._replay.span("perf.result_cache"):
            return super().lookup(*args, **kwargs)

    def store(self, *args, **kwargs) -> None:
        with self._replay.span("perf.result_cache"):
            super().store(*args, **kwargs)


def self_times(spans: list, root: int) -> tuple[dict[str, float], float]:
    """Self seconds per span name below span ``root``, and its duration.

    ``spans`` holds ``[name, start, end, parent, rid]`` rows in opening
    order, so a child always comes after its parent.
    """
    inside = {root}
    own: dict[int, float] = {}
    for index in range(root + 1, len(spans)):
        name, start, end, parent, _rid = spans[index]
        if parent not in inside:
            continue
        inside.add(index)
        own[index] = own.get(index, 0.0) + (end - start)
        if parent != root:
            own[parent] = own.get(parent, 0.0) - (end - start)
    per_name: dict[str, float] = {}
    for index, seconds in own.items():
        name = spans[index][0]
        per_name[name] = per_name.get(name, 0.0) + seconds
    return per_name, spans[root][2] - spans[root][1]


def durations(spans: list, name: str) -> list[float]:
    """Durations of the spans called ``name``."""
    return [end - start for span_name, start, end, _p, _r in spans
            if span_name == name]
