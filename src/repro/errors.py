"""Exception hierarchy for the :mod:`repro` library.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch the whole family with a single ``except`` clause while still being
able to distinguish configuration mistakes from malformed data.
"""

from __future__ import annotations

import numbers


class ReproError(Exception):
    """Base class of every exception raised by the library."""


class NetworkError(ReproError):
    """A road network is structurally invalid.

    Raised by :class:`repro.network.builder.RoadNetworkBuilder` and by
    :meth:`repro.network.model.RoadNetwork.validate` when, for instance, a
    segment references an unknown vertex, a street is not a simple path, or
    two entities share an identifier.
    """


class DataError(ReproError):
    """A POI, photo or keyword payload is malformed."""


class GridIndexError(ReproError):
    """An index was queried in a way that is inconsistent with how it was
    built (e.g. asking a grid for a cell it does not contain, or using a
    segment id unknown to the cell maps)."""


class QueryError(ReproError):
    """A query carries invalid parameters (``k < 1``, negative ``eps``,
    empty keyword set where one is required, ...)."""


def check_count(name: str, value) -> None:
    """Raise :class:`QueryError` unless ``value`` is an integer (``bool``
    excluded) of at least 1 — the check every ``k`` gets at the boundary."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise QueryError(
            f"{name} must be an integer, got {type(value).__name__} "
            f"{value!r}")
    if value < 1:
        raise QueryError(f"{name} must be at least 1, got {value}")


class SnapshotError(ReproError):
    """A columnar index snapshot could not be exported or attached.

    Raised by :mod:`repro.serve.snapshot` when a shared-memory block is
    missing, truncated, or carries an incompatible schema version."""


class StaleSnapshotError(SnapshotError):
    """A query was submitted against a snapshot of an older index generation.

    :meth:`repro.core.soi.SOIEngine.rebuild_indexes` bumps the engine's
    ``index_generation``; snapshots record the generation they were exported
    at, and :class:`repro.serve.server.EngineServer` refuses queries once
    the source engine has moved on (call
    :meth:`~repro.serve.server.EngineServer.refresh` to re-export)."""


class WorkerCrashError(ReproError):
    """A serving worker process died while queries were in flight.

    The :class:`~repro.serve.server.EngineServer` is no longer able to
    guarantee delivery of the pending results; closing the server still
    releases and unlinks its shared-memory snapshots."""


class WorkerStallError(ReproError):
    """A serving worker process is alive but has stopped heartbeating.

    Raised by :meth:`repro.serve.server.EngineServer.check_worker_health`
    when a worker's heartbeat age exceeds the stall threshold while the
    process itself is still running — the situation ``repro top`` shows
    as *stalled*, as opposed to *crashed* (dead process,
    :class:`WorkerCrashError`)."""


class ContractViolation(ReproError):
    """A runtime invariant of the paper's algorithms was violated.

    Raised only when the contract checks of
    :mod:`repro.analysis.contracts` are enabled (``REPRO_CHECK=1``, the
    ``--check`` CLI flag, or
    :func:`~repro.analysis.contracts.enable_contracts`).  Seeing one means
    either the library has a correctness bug or a monkeypatched/extended
    component broke a bound obligation — it is never a user input error.
    """
