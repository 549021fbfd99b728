"""One benchmark run: generate inputs, serve them, check them, report.

A run with ``trace=0`` measures the end-to-end metrics; a run with
``trace=1`` serves the same phases with the client's spans on and adds
the in-process per-layer breakdown of :mod:`servebench.layers`.  See
``servebench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import statistics
import sys
import time
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro.core.soi import SOIEngine
from repro.obs.tracer import tracing_scope
from repro.serve.server import serve_request

from servebench import client, layers, streams

OPEN_LOOP_QPS = {"soi-cold": 15.0, "describe-cold": 30.0,
                 "zipf-repeat": 60.0}
"""Fixed open-loop Poisson rate per workload: about a quarter (soi-cold)
and a third (describe-cold) of the closed-loop throughput measured on a
2-CPU host, so each worker is busy a fifth to a third of the time.  See
servebench/README.md for how they were chosen."""

CLOSED_SHARE = 0.5
"""Share of ``--seconds`` spent in the closed loop; the open loop gets
the rest."""

BLOCK_S = 2.0
"""Approximate length of one closed-loop + open-loop block.  Alternating
the two loops in short blocks makes both sample the whole run, so a
drift of the host's speed during a run moves them alike."""

REPLAY_S = 4.0
"""How long a traced run replays its stream in process."""

PROBE_REQUESTS = 16
"""Requests of the other cold generator a traced run replays when its
workload never calls a core layer, so that layer's figures are measured
on every workload."""

SLICE_S = 0.5
"""Length of one tracing-on or tracing-off slice (two of each)."""

MIN_COVERAGE = 0.95
"""Layer self times must cover this share of the replay's wall time."""

MIB = float(1 << 20)
ROOT = Path(__file__).resolve().parent.parent


def environment(config: client.ServerConfig) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "server": config.as_dict(),
    }


def steal_jiffies() -> int:
    """CPU time stolen from this VM by its host so far (``/proc/stat``),
    recorded per run to tell a slow host from a slow program."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except FileNotFoundError:
        return 0
    return int(fields[8]) if len(fields) > 8 else 0


def percentile(values, q: float) -> float:
    """The nearest-rank ``q``-quantile (0 < q <= 1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


class Reference:
    """Expected payloads from an independently built in-process engine."""

    def __init__(self, engine: SOIEngine, photos) -> None:
        self.engine = engine
        self.photos = photos
        self._describers: OrderedDict = OrderedDict()
        self._memo: dict = {}

    def __call__(self, request):
        expected = self._memo.get(request)
        if expected is None:
            expected = serve_request(self.engine, self.photos, request,
                                     self._describers)
            self._memo[request] = expected
        return expected

    def mismatches(self, answered) -> int:
        return sum(1 for request, payload in answered
                   if payload != self(request))


class Phases:
    """What the served part of a run measured."""

    def __init__(self) -> None:
        self.served = client.Served()
        self.leaks: list[str] = []
        self.errors: list[str] = []
        self.setup_s: list[float] = []
        self.spawn_s: list[float] = []
        self.closed: list[tuple[int, float]] = []
        """``(answered, elapsed_s)`` of every closed-loop slice."""
        self.cache_stats: dict = {}
        self.obs_ratio = 0.0
        self.rss_mb = 0.0
        self.rss_parts: dict = {}

    def start(self, city, config: client.ServerConfig, first_request):
        """Set up one fresh server and record its set-up time."""
        self.served.attempted += 1
        server, took, spawn_s, payload = client.setup(city, config,
                                                      first_request)
        self.setup_s.append(took)
        self.spawn_s.append(spawn_s)
        self.served.answered.append((first_request, payload))
        return server


def serve_phases(out: Phases, city, config: client.ServerConfig, stream,
                 offsets, seconds: float, obs_stream, spans) -> None:
    """Set up the servers, warm them, then run the timed blocks.

    The open-loop and the closed-loop server each get their own fresh
    pool; the run's time is cut into blocks of about ``BLOCK_S``, each a
    closed-loop slice followed by an open-loop slice, so that both
    loops sample the whole run.  Throughput and the end-to-end latency
    percentiles pool every closed-loop slice, the open-loop percentiles
    every open-loop answer.  A third
    server is set up after the timed blocks, for ``setup_s`` (and, in a
    traced run, the tracing-overhead slices).

    ``rss_mb`` is the closed-loop server's footprint: its workers' peak
    RSS plus the growth of this process's RSS from just before that
    server was set up to the end of the timed blocks.  The reference
    engine, the streams and the other servers' engines are all in place
    before that baseline, so they are not counted.
    """
    workers = config.workers
    warm = streams.warmup_count(workers)
    timed = stream[warm:]
    served = out.served
    servers = {}
    try:
        servers["open"] = out.start(city, config, stream[0])
        baseline_mb = client.rss_mb("self", "VmRSS")
        servers["closed"] = out.start(city, config, stream[0])
        for server in servers.values():
            client.closed_loop(server, stream[1:warm], workers, None, served)
        # The set-up and warm-up left a young heap behind; a full
        # collection of it in the middle of the open loop would stall the
        # client for over 100 ms (see run()).
        gc.freeze()
        blocks = max(1, round(seconds / BLOCK_S))
        closed_s = seconds * CLOSED_SHARE / blocks
        open_s = seconds * (1.0 - CLOSED_SHARE) / blocks
        closed_at = open_at = 0
        for block in range(blocks):
            sent, answered, elapsed = client.closed_loop(
                servers["closed"], timed[closed_at:], workers, closed_s,
                served, spans=spans, rid_base=warm + closed_at,
                samples=served.closed_samples)
            closed_at += sent
            out.closed.append((answered, elapsed))
            lo = block * open_s
            block_offsets = [offset - lo for offset in offsets
                             if lo <= offset < lo + open_s]
            open_at += client.open_loop(
                servers["open"], timed[open_at:], block_offsets, served,
                spans=spans, rid_base=warm + open_at)
        out.cache_stats = servers["closed"].cache_stats()
        out.rss_parts = {
            "parent_growth": client.rss_mb("self", "VmRSS") - baseline_mb,
            "workers": [client.rss_mb(pid) for pid
                        in client.worker_pids(servers["closed"])]}
        out.rss_mb = (out.rss_parts["parent_growth"]
                      + sum(out.rss_parts["workers"]))
        spare_stream = obs_stream or stream
        servers["spare"] = out.start(city, config, spare_stream[0])
        if obs_stream:
            client.closed_loop(servers["spare"], obs_stream[1:warm],
                               workers, None, served)
            out.obs_ratio = _trace_overhead(
                servers["spare"], obs_stream[warm:], workers, served)
    finally:
        for server in servers.values():
            out.leaks += client.close_and_check(server)


def run(workload: str, seed: int, seconds: float, trace: bool,
        out_dir: Path | None) -> int:
    if workload not in streams.WORKLOADS:
        print(f"error: unknown workload {workload!r}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    config = client.ServerConfig(workers=len(os.sched_getaffinity(0)))
    city = streams.load_city()
    reference = Reference(SOIEngine(city.network, city.pois), city.photos)
    streets = streams.candidate_streets(reference.engine, config.eps)
    stream = streams.make_stream(workload, seed, streets)
    offsets = streams.arrival_offsets(workload, seed,
                                      OPEN_LOOP_QPS[workload],
                                      seconds * (1.0 - CLOSED_SHARE))
    obs_stream = (streams.make_stream("soi-cold", seed, streets)
                  if trace else [])
    fingerprint = {
        "dataset": streams.dataset_fingerprint(city),
        "streets": streams.stream_fingerprint(streets),
        "stream": streams.stream_fingerprint(stream),
        "arrivals": streams.stream_fingerprint(offsets),
    }
    if trace:
        fingerprint["obs_stream"] = streams.stream_fingerprint(obs_stream)

    # The client's heap is mostly the benchmark's own: the dataset, the
    # reference engine and the request streams.  Full collections that
    # traverse it took 140-200 ms on a 2-CPU host and stalled the open
    # loop, adding submit lag that is not the server's.  Frozen objects
    # are never traversed; what the servers allocate from here on is
    # collected as usual.
    gc.collect()
    gc.freeze()
    spans = client.SpanLog() if trace else None
    timing = {"inputs": time.perf_counter() - started}
    steal_before = steal_jiffies()
    phases = Phases()
    try:
        serve_phases(phases, city, config, stream, offsets, seconds,
                     obs_stream, spans)
    except client.POOL_FAILURES as exc:
        phases.errors.append(f"{type(exc).__name__}: {exc}")
    timing["served"] = time.perf_counter() - started - timing["inputs"]
    served = phases.served
    attempted = served.attempted
    failed = attempted - len(served.answered) + reference.mismatches(
        served.answered)
    replay = None
    if trace and not phases.errors:
        timed = stream[streams.warmup_count(config.workers):]
        replay, replayed = _traced_replay(city, config, timed, seed,
                                          streets, spans)
        failed += reference.mismatches(replayed)
        attempted += len(replayed)
    timing["total"] = time.perf_counter() - started
    for problem in phases.leaks + phases.errors:
        print(f"error: {problem}", file=sys.stderr)
    correct = failed == 0 and not phases.leaks and not phases.errors

    if replay is not None:
        metrics = _layer_metrics(replay, phases, spans, failed / attempted)
        if metrics["trace.coverage"]["value"] < MIN_COVERAGE:
            print(f"error: layer spans cover "
                  f"{metrics['trace.coverage']['value']:.3f} of the replay "
                  f"(< {MIN_COVERAGE})", file=sys.stderr)
            correct = False
    elif trace:
        metrics = {}
    else:
        metrics = _end_to_end(phases, attempted, failed)
    missing = _undeclared(metrics, "per_layer" if trace else "end_to_end")
    if metrics and missing:
        print(f"error: metrics and BENCHMARK.json disagree: {missing}",
              file=sys.stderr)
        correct = False
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "open_loop_qps": OPEN_LOOP_QPS[workload],
        "fingerprint": fingerprint, "environment": environment(config),
        "host": {"steal_jiffies": steal_jiffies() - steal_before,
                 "loadavg": os.getloadavg()},
        "samples": {"setup_s": phases.setup_s,
                    "closed_loop": phases.closed,
                    "open_loop": [[round(value, 6) for value in sample]
                                  for sample in served.samples],
                    "closed_latency": [[round(value, 6) for value in sample]
                                       for sample in served.closed_samples]},
        "timing_s": timing,
        "cache": phases.cache_stats, "rss_mb": phases.rss_parts,
        "leaks": phases.leaks,
        "errors": phases.errors,
        "result": result,
    }
    if out_dir is not None:
        _write_out(out_dir, record, spans, workload, seed)
    print("servebench-record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


def _end_to_end(phases: Phases, attempted: int, failed: int) -> dict:
    latency_ms = [sample[0] * 1e3 for sample in phases.served.closed_samples]
    closed_s = sum(elapsed for _, elapsed in phases.closed)
    return {
        "setup_s": _m(_median(phases.setup_s), "s"),
        "throughput_qps": _m(
            sum(n for n, _ in phases.closed) / closed_s if closed_s else 0.0,
            "1/s"),
        "closed_p50_ms": _m(percentile(latency_ms, 0.50), "ms"),
        "ok_frac": _m((attempted - failed) / attempted, "frac"),
        "rss_mb": _m(phases.rss_mb, "MiB"),
    }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _undeclared(metrics: dict, section: str) -> list[str]:
    """Names that differ between ``metrics`` and BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = {entry["name"]: entry["unit"]
                    for entry in json.load(handle)[section]}
    emitted = {name: entry["unit"] for name, entry in metrics.items()}
    return sorted(name for name in declared.keys() | emitted.keys()
                  if declared.get(name) != emitted.get(name))


def _m(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _trace_overhead(server, requests, workers: int,
                    served: client.Served) -> float:
    """Closed-loop time per request with tracing on over that with it off.

    Four ``SLICE_S`` slices alternate off, on, off, on along one
    soi-cold stream.
    """
    seconds = {False: 0.0, True: 0.0}
    count = {False: 0, True: 0}
    position = 0
    for traced in (False, True, False, True):
        with tracing_scope(traced):
            sent, answered, elapsed = client.closed_loop(
                server, requests[position:], workers, SLICE_S, served)
        position += sent
        seconds[traced] += elapsed
        count[traced] += answered
    server.clear_trace_log()
    return ((seconds[True] / max(1, count[True]))
            / (seconds[False] / max(1, count[False])))


def _traced_replay(city, config, timed, seed: int, streets, spans):
    """Cold path plus an in-process replay of ``timed`` with layer spans."""
    cold = layers.cold_path(city, config.eps, spans)
    snapshot_mb = cold.snapshot.nbytes / MIB
    try:
        replay = layers.Replay(cold.engine, cold.photos, spans)
        answered = []
        with replay.serving():
            root = spans.open("bench.replay")
            stop_at = time.perf_counter() + REPLAY_S
            for rid, request in enumerate(timed):
                answered.append((request, replay.serve(request, rid)))
                if time.perf_counter() >= stop_at:
                    break
            spans.close(root)
        self_s, wall_s = layers.self_times(spans.spans, root)
        soi_stats, describe_stats = replay.soi_stats, replay.describe_stats
        for kind, missing in (("soi-cold", not soi_stats),
                              ("describe-cold", not describe_stats)):
            if not missing:
                continue
            probe = layers.Replay(cold.engine, cold.photos, spans)
            requests = streams.make_stream(kind, seed, streets,
                                           length=PROBE_REQUESTS)
            with probe.serving():
                probe_root = spans.open("bench.probe")
                for rid, request in enumerate(requests):
                    answered.append((request,
                                     probe.serve(request, -1 - rid)))
                spans.close(probe_root)
            soi_stats = soi_stats or probe.soi_stats
            describe_stats = describe_stats or probe.describe_stats
    finally:
        cold.close()
    timings = {
        name: layers.durations(spans.spans, name)
        for name in ("core.soi", "core.describe.profile",
                     "core.describe.init", "core.describe.select",
                     "index.build", "index.augment",
                     "index.store_layout", "serve.export", "serve.attach")}
    return {"self_s": self_s, "wall_s": wall_s, "soi": soi_stats,
            "describe": describe_stats, "timings": timings,
            "snapshot_mb": snapshot_mb}, answered


def _layer_metrics(replay: dict, phases: Phases, spans,
                   failed_frac: float) -> dict:
    timings = replay["timings"]
    samples, cache_stats = phases.served.samples, phases.cache_stats

    def p50_ms(values):
        return _m(statistics.median(values) * 1e3 if values else 0.0, "ms")

    def per_query(rows, attr):
        values = [getattr(row, attr) for row in rows]
        return _m(statistics.fmean(values) if values else 0.0, "count")

    def share(part, whole):
        return _m(part / whole if whole else 0.0, "frac")

    soi, describe = replay["soi"], replay["describe"]
    waits = [latency - lag - service for latency, lag, service in samples]
    submit = layers.durations(spans.spans, "client.submit")
    metrics = {
        "index.build_s": _m(timings["index.build"][0], "s"),
        "index.augment_s": _m(timings["index.augment"][0], "s"),
        "index.store_layout_s": _m(timings["index.store_layout"][0], "s"),
        "serve.export_s": _m(timings["serve.export"][0], "s"),
        "serve.attach_s": _m(timings["serve.attach"][0], "s"),
        "serve.spawn_s": _m(_median(phases.spawn_s), "s"),
        "serve.snapshot_mb": _m(replay["snapshot_mb"], "MiB"),
        "serve.closed_p90_ms": _m(percentile(
            [s[0] for s in phases.served.closed_samples], 0.9) * 1e3, "ms"),
        "serve.open_p50_ms": _m(percentile(
            [s[0] for s in samples], 0.5) * 1e3, "ms"),
        "serve.open_p90_ms": _m(percentile(
            [s[0] for s in samples], 0.9) * 1e3, "ms"),
        "serve.service_p50_ms": _m(percentile(
            [s[2] for s in samples], 0.5) * 1e3, "ms"),
        "serve.wait_p50_ms": _m(percentile(waits, 0.5) * 1e3, "ms"),
        "serve.lag_p90_ms": _m(percentile(
            [s[1] for s in samples], 0.9) * 1e3, "ms"),
        "serve.p99_ms": _m(percentile(
            [s[0] for s in samples], 0.99) * 1e3, "ms"),
        "serve.submit_p50_ms": p50_ms(submit),
        "serve.failed_frac": _m(failed_frac, "frac"),
        "perf.cache.hit_rate": _m(cache_stats.get("hit_rate", 0.0), "frac"),
        "perf.cache.mb": _m(cache_stats.get("bytes", 0.0) / MIB, "MiB"),
    }
    for name in ("exact_hits", "dominated_hits", "misses", "evictions",
                 "coalesced_waiters"):
        metrics[f"perf.cache.{name}"] = _m(cache_stats.get(name, 0), "count")
    mass_hits = sum(row.mass_cache_hits for row in soi)
    mass_all = mass_hits + sum(row.mass_cache_misses for row in soi)
    pruned = sum(row.refinement_pruned for row in soi)
    refined = pruned + sum(row.refinement_finalized for row in soi)
    cells_pruned = sum(row.cells_pruned_filter + row.cells_pruned_refine
                       for row in describe)
    metrics.update({
        "perf.session.reuse_rate": share(
            sum(1 for row in soi if row.session_reused), len(soi)),
        "perf.session.mass_hit_rate": share(mass_hits, mass_all),
        "core.soi.query_p50_ms": p50_ms(timings["core.soi"]),
        "core.soi.cell_visits": per_query(soi, "cell_visits"),
        "core.soi.segments_seen": per_query(soi, "segments_seen"),
        "core.soi.kernel_calls": per_query(soi, "kernel_calls"),
        "core.soi.termination_checks": per_query(soi, "termination_checks"),
        "core.soi.refine_pruned_frac": share(pruned, refined),
        "core.describe.profile_p50_ms": p50_ms(
            timings["core.describe.profile"]),
        "core.describe.init_p50_ms": p50_ms(
            timings["core.describe.init"]),
        "core.describe.select_p50_ms": p50_ms(
            timings["core.describe.select"]),
        "core.describe.photos_examined": per_query(describe,
                                                   "photos_examined"),
        "core.describe.pair_div_evals": per_query(describe, "pair_div_evals"),
        "core.describe.cells_pruned_frac": share(
            cells_pruned, sum(row.cells_considered for row in describe)),
        "obs.trace_on_ratio": _m(phases.obs_ratio, "ratio"),
    })
    self_s, wall_s = replay["self_s"], replay["wall_s"]
    for name in layers.REPLAY_LAYERS:
        metrics[f"trace.self.{name}"] = share(self_s.get(name, 0.0), wall_s)
    metrics["trace.coverage"] = share(sum(self_s.values()), wall_s)
    return metrics


def _write_out(out_dir: Path, record: dict, spans, workload: str,
               seed: int) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "records.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    if spans is not None:
        path = out_dir / f"spans-{workload}-seed{seed}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"columns": ["name", "start_s", "end_s", "parent",
                                   "request_id"],
                       "spans": spans.spans}, handle)
