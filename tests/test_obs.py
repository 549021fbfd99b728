"""The repro.obs stack: tracer, metrics registry, exporters, slow log.

Ends with the PR's acceptance checks: every preset city's traced k-SOI
query covers the filter / mass-kernel / refinement phases with
self-times summing to (at least) 80% of the traced wall time, query
payloads are bit-identical with tracing on and off (with and without the
runtime contracts), and the disabled instrumentation path stays cheap.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.analysis.contracts import enable_contracts
from repro.core.describe.st_rel_div import STRelDivDescriber
from repro.core.soi import SOIEngine
from repro.datagen.presets import CITY_PRESETS, build_preset
from repro.eval.experiments import PAPER_QUERY_KEYWORDS
from repro.obs.export import (
    build_tree,
    roots,
    self_time_by_name,
    self_times_ns,
    spans_to_chrome,
    spans_to_jsonl,
)
from repro.obs.metrics import (
    MAX_EXP,
    MIN_EXP,
    Histogram,
    MetricsRegistry,
    bucket_bounds,
    bucket_exponent,
)
from repro.obs.slowlog import SlowQueryLog
from repro.obs.tracer import (
    TRACER,
    Tracer,
    perf_now,
    trace_span,
    tracing_enabled,
    tracing_scope,
)


@pytest.fixture()
def traced():
    """Tracing on for the test, window restricted to spans it creates."""
    mark = TRACER.mark()
    with tracing_scope(True):
        yield lambda: TRACER.spans_since(mark)


# -- span tree well-formedness ------------------------------------------------

def test_nested_spans_form_a_well_formed_tree(traced):
    with trace_span("root", kind="test"):
        with trace_span("child_a"):
            with trace_span("grandchild"):
                pass
        with trace_span("child_b"):
            pass
    spans = traced()
    by_name = {span.name: span for span in spans}
    assert set(by_name) == {"root", "child_a", "grandchild", "child_b"}
    root = by_name["root"]
    assert root.parent_id == -1
    assert by_name["child_a"].parent_id == root.span_id
    assert by_name["child_b"].parent_id == root.span_id
    assert by_name["grandchild"].parent_id == by_name["child_a"].span_id
    # Buffer order: a span is appended on exit, so children come first.
    assert [s.name for s in spans] == \
        ["grandchild", "child_a", "child_b", "root"]
    # Intervals nest: every child lies inside its parent.
    tree = build_tree(spans)
    for span in spans:
        for child in tree.get(span.span_id, ()):
            assert span.start_ns <= child.start_ns
            assert child.end_ns <= span.end_ns
    assert [s.name for s in roots(spans)] == ["root"]
    assert root.attrs == {"kind": "test"}


def test_exception_unwinds_spans_and_marks_error(traced):
    with pytest.raises(ValueError):
        with trace_span("outer"):
            with trace_span("inner"):
                raise ValueError("boom")
    spans = traced()
    by_name = {span.name: span for span in spans}
    assert by_name["inner"].attrs["error"] == "ValueError"
    assert by_name["outer"].attrs["error"] == "ValueError"
    assert by_name["inner"].parent_id == by_name["outer"].span_id
    # The stack fully unwound: the next span is a fresh root.
    with trace_span("after"):
        pass
    assert traced()[-1].parent_id == -1


def test_decorator_form_traces_and_reraises(traced):
    @trace_span("worker", tagged=True)
    def work(x):
        return x * 2

    @trace_span("failing")
    def fail():
        raise KeyError("nope")

    assert work(21) == 42
    with pytest.raises(KeyError):
        fail()
    names = [span.name for span in traced()]
    assert names == ["worker", "failing"]
    assert traced()[0].attrs == {"tagged": True}


def test_disabled_tracing_records_nothing():
    mark = TRACER.mark()
    with tracing_scope(False):
        assert not tracing_enabled()
        with trace_span("invisible"):
            pass

        @trace_span("also_invisible")
        def fn():
            return 1

        assert fn() == 1
    assert TRACER.spans_since(mark) == []


def test_ring_buffer_caps_spans_and_counts_drops():
    tracer = Tracer(capacity=4)
    for index in range(7):
        tracer.finish(tracer.begin(f"s{index}"))
    assert len(tracer) == 4
    assert tracer.finished_total == 7
    assert tracer.dropped == 3
    assert [span.name for span in tracer.spans()] == \
        ["s3", "s4", "s5", "s6"]
    drained = tracer.drain()
    assert len(drained) == 4 and len(tracer) == 0


def test_self_times_decompose_parent_duration(traced):
    with trace_span("parent"):
        with trace_span("child"):
            pass
    spans = traced()
    selfs = self_times_ns(spans)
    by_name = {span.name: span for span in spans}
    parent, child = by_name["parent"], by_name["child"]
    assert selfs[child.span_id] == child.duration_ns
    assert selfs[parent.span_id] == \
        parent.duration_ns - child.duration_ns
    named = self_time_by_name(spans)
    assert sum(named.values()) == parent.duration_ns


# -- histogram buckets --------------------------------------------------------

def test_bucket_exponent_boundaries_are_exact():
    # Bucket e covers (2**(e-1), 2**e]: exact powers land on the closed
    # upper edge, the next float after belongs to the next bucket.
    assert bucket_exponent(1.0) == 0
    assert bucket_exponent(2.0) == 1
    assert bucket_exponent(math.nextafter(2.0, math.inf)) == 2
    assert bucket_exponent(math.nextafter(2.0, 0.0)) == 1
    assert bucket_exponent(0.5) == -1
    assert bucket_exponent(0.75) == 0
    assert bucket_exponent(2.0 ** 10) == 10
    assert bucket_exponent(0.0) == MIN_EXP
    assert bucket_exponent(-3.0) == MIN_EXP
    assert bucket_exponent(2.0 ** 300) == MAX_EXP
    assert bucket_exponent(2.0 ** -300) == MIN_EXP


def test_bucket_bounds_bracket_their_values():
    for value in (1e-9, 0.25, 1.0, 3.7, 1024.0):
        exponent = bucket_exponent(value)
        low, high = bucket_bounds(exponent)
        if MIN_EXP < exponent < MAX_EXP:
            assert low < value <= high


def test_histogram_observe_and_roundtrip():
    hist = Histogram()
    for value in (0.5, 1.0, 1.5, 2.0, 3.0):
        hist.observe(value)
    assert hist.count == 5
    assert hist.sum == pytest.approx(8.0)
    assert hist.mean == pytest.approx(1.6)
    dump = hist.to_dict()
    # 0.5 -> (0.25, 0.5]; 1.0 -> (0.5, 1]; 1.5 and 2.0 -> (1, 2]; 3.0 -> (2, 4]
    assert dump["buckets"] == {"-1": 1, "0": 1, "1": 2, "2": 1}
    other = Histogram()
    other.merge_dict(dump)
    assert other.to_dict() == dump


# -- registry merge determinism -----------------------------------------------

def _worker_dump(seed: int) -> dict:
    registry = MetricsRegistry()
    registry.inc("serve.requests", seed + 1)
    registry.inc(f"worker.{seed}.only")
    registry.set_gauge("session.pool_size", float(seed))
    for value in (0.001 * (seed + 1), 0.1, 1.5):
        registry.observe("serve.request_s", value)
    return registry.to_dict()


def test_registry_merge_is_order_independent():
    dumps = [_worker_dump(seed) for seed in range(4)]
    forward, backward = MetricsRegistry(), MetricsRegistry()
    for dump in dumps:
        forward.merge(dump)
    for dump in reversed(dumps):
        backward.merge(dump)
    assert forward.to_dict() == backward.to_dict()
    merged = forward.to_dict()
    assert merged["counters"]["serve.requests"] == 1 + 2 + 3 + 4
    assert merged["gauges"]["session.pool_size"] == 3.0  # max wins
    assert merged["histograms"]["serve.request_s"]["count"] == 12


def test_record_serve_batch_counts_grouped_requests():
    from repro.obs.metrics import record_serve_batch

    registry = MetricsRegistry()
    record_serve_batch(4, 2, registry=registry)  # 2 rode a shared group
    record_serve_batch(3, 3, registry=registry)  # all distinct: no grouping
    record_serve_batch(1, 1, registry=registry)
    assert registry.counter("serve.batches") == 3
    assert registry.counter("serve.batch_grouped") == 2
    hist = registry.histogram("serve.batch_size")
    assert hist is not None
    assert hist.count == 3 and hist.sum == 8.0


def test_registry_counter_and_gauge_api():
    registry = MetricsRegistry()
    registry.inc_many({"a": 2, "b": 3}, prefix="soi.")
    registry.inc("soi.a")
    assert registry.counter("soi.a") == 3
    assert registry.counters_with_prefix("soi.") == {"a": 3, "b": 3}
    registry.reset()
    assert registry.to_dict() == \
        {"counters": {}, "gauges": {}, "histograms": {}, "sketches": {}}


# -- exporters ----------------------------------------------------------------

def test_jsonl_and_chrome_exports_are_well_formed(traced):
    with trace_span("export.root", city="vienna"):
        with trace_span("export.child"):
            pass
    spans = traced()
    lines = spans_to_jsonl(spans).splitlines()
    assert len(lines) == 2
    decoded = [json.loads(line) for line in lines]
    assert {d["name"] for d in decoded} == {"export.root", "export.child"}
    assert all(d["duration_ns"] >= 0 for d in decoded)

    chrome = spans_to_chrome(spans)
    assert chrome["displayTimeUnit"] == "ms"
    events = chrome["traceEvents"]
    assert len(events) == 2
    assert all(event["ph"] == "X" for event in events)
    # Events are sorted by start; the root starts first at ts == 0.
    assert events[0]["name"] == "export.root" and events[0]["ts"] == 0.0
    assert events[0]["args"]["city"] == "vienna"
    json.dumps(chrome)  # fully serialisable


def test_chrome_export_of_nothing():
    assert spans_to_chrome([]) == \
        {"traceEvents": [], "displayTimeUnit": "ms"}


# -- slow-query log -----------------------------------------------------------

def test_slowlog_threshold_zero_records_everything(traced):
    with trace_span("slow.query"):
        pass
    log = SlowQueryLog(threshold_s=0.0, capacity=2)
    assert log.enabled
    assert log.maybe_record("soi", {"k": 5}, 0.001,
                            counters={"pulls": 3}, spans=traced())
    record = log.records()[0]
    assert record["kind"] == "soi"
    assert record["descriptor"] == {"k": 5}
    assert record["counters"] == {"pulls": 3}
    assert [s["name"] for s in record["spans"]] == ["slow.query"]
    # Capacity bounds the log.
    assert log.maybe_record("soi", {"k": 6}, 0.002)
    assert log.maybe_record("soi", {"k": 7}, 0.003)
    assert [r["descriptor"]["k"] for r in log.records()] == [6, 7]


def test_slowlog_threshold_filters_and_disables():
    log = SlowQueryLog()
    assert not log.enabled
    assert not log.maybe_record("soi", {}, 100.0)
    log.configure(0.5)
    assert not log.maybe_record("soi", {}, 0.4)
    assert log.maybe_record("soi", {}, 0.6)
    assert len(log) == 1


def test_soi_slow_query_log_captures_span_tree(small_engine):
    from repro.obs.slowlog import SLOWLOG

    previous = SLOWLOG.threshold_s
    SLOWLOG.configure(0.0)
    try:
        SLOWLOG.clear()
        with tracing_scope(True):
            small_engine.top_k(["food"], k=5)
        records = [r for r in SLOWLOG.records() if r["kind"] == "soi"]
        assert records, "threshold 0.0 must capture the query"
        record = records[-1]
        assert record["descriptor"]["keywords"] == ["food"]
        assert any(s["name"] == "soi.filter" for s in record["spans"])
        assert record["counters"]["segments_popped"] > 0
    finally:
        SLOWLOG.configure(previous)
        SLOWLOG.clear()


# -- bit-identity and overhead ------------------------------------------------

def test_soi_results_bit_identical_tracing_on_off(small_engine):
    keywords, k = ["food", "shop"], 10
    with tracing_scope(False):
        baseline = small_engine.top_k(keywords, k=k)
    with tracing_scope(True):
        traced_result = small_engine.top_k(keywords, k=k)
    assert traced_result == baseline
    # And under the runtime contracts (REPRO_CHECK=1 equivalent).
    enable_contracts(True)
    try:
        with tracing_scope(True):
            checked = small_engine.top_k(keywords, k=k)
    finally:
        enable_contracts(False)
    assert checked == baseline


def test_describe_results_bit_identical_tracing_on_off(small_city):
    from repro.core.describe.profile import build_street_profile

    engine = SOIEngine(small_city.network, small_city.pois)
    street_id = engine.top_k(["food"], k=1)[0].street_id
    profile = build_street_profile(
        small_city.network, street_id, small_city.photos, eps=0.0005)
    describer = STRelDivDescriber(profile)
    with tracing_scope(False):
        baseline = describer.select(3, 0.5, 0.5)
    with tracing_scope(True):
        traced_result = describer.select(3, 0.5, 0.5)
    assert traced_result == baseline


def test_disabled_tracer_overhead_is_small():
    """The off-switch path must stay branch-cheap (lenient regression net)."""

    def plain(n):
        total = 0
        for i in range(n):
            total += i
        return total

    def instrumented(n):
        total = 0
        for i in range(n):
            with trace_span("overhead.probe"):
                total += i
        return total

    n = 20000
    with tracing_scope(False):
        plain(n); instrumented(n)  # warm up
        t0 = perf_now()
        plain(n)
        plain_s = perf_now() - t0
        t0 = perf_now()
        instrumented(n)
        instrumented_s = perf_now() - t0
    per_span = (instrumented_s - plain_s) / n
    # Generous bound: a disabled span is two method calls and one module
    # attribute read — microseconds would mean the switch regressed.
    assert per_span < 5e-6, f"disabled span costs {per_span * 1e9:.0f}ns"


# -- acceptance: phase coverage on every preset city --------------------------

@pytest.mark.parametrize("preset", sorted(CITY_PRESETS))
def test_traced_soi_query_covers_phases_on_preset(preset):
    city = build_preset(preset, scale=0.1)
    engine = SOIEngine(city.network, city.pois)
    keywords = list(PAPER_QUERY_KEYWORDS[:3])
    mark = TRACER.mark()
    with tracing_scope(True):
        results = engine.top_k(keywords, k=10)
    assert results, f"{preset}: query must return streets"
    spans = TRACER.spans_since(mark)
    query_roots = [s for s in roots(spans) if s.name == "soi.query"]
    assert len(query_roots) == 1
    root = query_roots[0]
    tree = build_tree(spans)

    subtree = []
    frontier = [root]
    while frontier:
        span = frontier.pop()
        subtree.append(span)
        frontier.extend(tree.get(span.span_id, ()))

    names = {span.name for span in subtree}
    assert {"soi.build_source_lists", "soi.filter", "soi.refine"} <= names
    assert "soi.pull" in names, \
        f"{preset}: no work spans under the query root"
    # Self-times telescope: they must account for >= 80% of the traced
    # wall time of the query (exactly 100% up to clock granularity).
    selfs = self_times_ns(spans)
    covered = sum(selfs[span.span_id] for span in subtree)
    assert covered >= 0.8 * root.duration_ns


@pytest.mark.parametrize("preset", ["vienna", "london"])
def test_traced_soi_query_emits_one_pull_span_per_block(preset):
    """Per-pull detail lives in the counters: a traced query emits one
    ``soi.pull`` span per filter block, so its span count is bounded by
    its termination checks plus the phase spans, and tracing never
    changes the payload."""
    city = build_preset(preset, scale=0.25)
    engine = SOIEngine(city.network, city.pois)
    for size in (1, 3):
        keywords = list(PAPER_QUERY_KEYWORDS[:size])
        plain = engine.top_k(keywords, k=10, use_session=False)
        mark = TRACER.mark()
        with tracing_scope(True):
            traced, stats = engine.top_k_with_stats(keywords, k=10,
                                                    use_session=False)
        spans = TRACER.spans_since(mark)
        pulls = [s for s in spans if s.name == "soi.pull"]
        assert traced == plain
        assert stats.termination_checks - 1 <= len(pulls) \
            <= stats.termination_checks
        assert len(spans) <= stats.termination_checks + 4
        assert sum(s.attrs["block"] for s in pulls) == stats.iterations
        for span in pulls:
            assert set(span.attrs["source"].split("+")) <= {
                "SL1", "SL2", "SL3"}
