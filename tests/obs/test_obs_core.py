"""Unit tests for the observability core: tracer, metrics, telemetry,
event-vocabulary validation and the exporters."""

import json
import threading

import pytest

from repro.obs import (
    MetricsRegistry,
    Telemetry,
    Tracer,
    ambient,
    chrome_events_from_raw,
    chrome_trace_document,
    chrome_trace_events,
    events,
    format_report,
    load_chrome_trace,
    production_telemetry,
    set_ambient,
    stats_document,
    summarize_chrome_events,
    trace,
    validate_chrome_trace,
    write_chrome_trace,
)


class FakeClock:
    """Deterministic nanosecond clock: each call advances by ``step``."""

    def __init__(self, step=1000):
        self.now = 0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


class TestTracer:
    def test_instants_and_spans_are_recorded_in_completion_order(self):
        tracer = Tracer(clock=FakeClock())
        tracer.instant(events.TIER_PROMOTE, {"function": "f"})
        start = tracer.now()
        tracer.instant(events.JIT_CACHE_MISS, {})
        tracer.complete(events.JIT_COMPILE, start, {"function": "f"})
        # the span is one complete event, appended when it ends
        assert [e["ph"] for e in tracer.events] == ["i", "i", "X"]
        span = tracer.events[-1]
        assert span["ts"] == start and span["args"] == {"function": "f"}
        assert span["tid"] == threading.get_ident()
        assert events.validate_events(tracer.events) == []

    def test_timestamps_are_monotonic_even_with_bad_clock(self):
        ticks = iter([100, 50, 400, 10])
        tracer = Tracer(clock=lambda: next(ticks))
        for _ in range(4):
            tracer.instant(events.OSR_FIRE, {})
        ts = [e["ts"] for e in tracer.events]
        assert ts == sorted(ts)

    def test_complete_returns_duration_ns(self):
        tracer = Tracer(clock=FakeClock(step=500))
        start = tracer.now()
        assert tracer.complete(events.JIT_COMPILE, start, {}) == 500
        assert tracer.events[0]["dur"] == 500

    # test_unbalanced_end_raises and test_clear_refuses_with_open_spans
    # are gone with the span stack (no begin/end/open_spans to misuse);
    # what replaces the stack discipline is checked by
    # test_overlapping_spans_from_two_threads_both_complete below and
    # TestEventVocabulary.test_validate_flags_partial_overlap_on_one_thread
    def test_clear_empties_the_stream(self):
        tracer = Tracer(clock=FakeClock())
        tracer.complete(events.OSR_INSERT, tracer.now(), {})
        tracer.clear()
        assert len(tracer) == 0 and tracer.events == []


class TestMetricsRegistry:
    def test_counters_gauges_timers(self):
        metrics = MetricsRegistry()
        assert metrics.inc("a") == 1
        assert metrics.inc("a", 4) == 5
        assert metrics.counter("a") == 5
        assert metrics.counter("missing") == 0
        metrics.gauge("depth", 3.5)
        assert metrics.gauge_value("depth") == 3.5
        metrics.record_time("t", 0.25)
        metrics.record_time("t", 0.75)
        stats = metrics.timer_stats("t")
        assert stats["count"] == 2
        assert stats["total"] == pytest.approx(1.0)
        assert stats["min"] == 0.25 and stats["max"] == 0.75
        assert stats["mean"] == pytest.approx(0.5)

    def test_timer_context_manager(self):
        metrics = MetricsRegistry()
        with metrics.timer("block"):
            pass
        assert metrics.timer_stats("block")["count"] == 1

    def test_snapshot_is_a_detached_copy(self):
        metrics = MetricsRegistry()
        metrics.inc("x", 3)
        snapshot = metrics.snapshot()
        metrics.inc("x")
        assert snapshot["counters"]["x"] == 3

    def test_snapshot_is_json_serializable(self):
        metrics = MetricsRegistry()
        metrics.inc("a")
        metrics.gauge("g", 1.0)
        metrics.record_time("t", 0.1)
        json.dumps(metrics.snapshot())


class TestTelemetry:
    def test_event_records_trace_and_counter_once(self):
        tel = Telemetry(clock=FakeClock())
        tel.event(events.TIER_PROMOTE, function="f")
        assert tel.metrics.counter(events.TIER_PROMOTE) == 1
        assert len(tel.events) == 1

    def test_span_feeds_the_timer(self):
        tel = Telemetry(clock=FakeClock())
        with tel.span(events.JIT_COMPILE, function="f"):
            pass
        assert tel.metrics.counter(events.JIT_COMPILE) == 1
        assert tel.metrics.timer_stats(events.JIT_COMPILE)["count"] == 1
        assert events.validate_events(tel.events) == []

    def test_span_keeps_its_attributes(self):
        tel = Telemetry(clock=FakeClock())
        with tel.span(events.JIT_COMPILE, function="f", code_version=3):
            pass
        assert tel.events[0]["args"] == {"function": "f", "code_version": 3}

    def test_sinkless_telemetry_counts_and_records_nothing(self):
        def no_clock():
            raise AssertionError("a sinkless span must not read the clock")

        tel = Telemetry(clock=no_clock, tracer=None)
        assert tel.enabled is False and tel.flight is None
        tel.event(events.OSR_FIRE, kind="open")
        with tel.span(events.JIT_COMPILE, function="f"):
            pass
        assert tel.events == []
        assert tel.metrics.counter(events.OSR_FIRE) == 1
        assert tel.metrics.counter(events.JIT_COMPILE) == 1
        assert tel.metrics.timer_stats(events.JIT_COMPILE) is None

    @pytest.mark.parametrize("make", [Telemetry, production_telemetry])
    def test_overlapping_spans_from_two_threads_both_complete(self, make):
        # thread A holds osr.continuation open while thread B opens and
        # closes deopt.continuation, then A closes: with one span stack
        # per sink, A's exit raised "innermost open span is ..."
        tel = make()
        a_open, b_done = threading.Event(), threading.Event()
        errors = []

        def thread_a():
            try:
                with tel.span(events.OSR_CONTINUATION, variant="f"):
                    a_open.set()
                    assert b_done.wait(10)
            except Exception as error:  # pragma: no cover - the old bug
                errors.append(error)

        def thread_b():
            try:
                assert a_open.wait(10)
                with tel.span(events.DEOPT_CONTINUATION, guard="g"):
                    pass
            except Exception as error:  # pragma: no cover - the old bug
                errors.append(error)
            finally:
                b_done.set()

        threads = [threading.Thread(target=thread_a),
                   threading.Thread(target=thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        spans = {e["name"]: e for e in tel.events}
        assert set(spans) == {events.OSR_CONTINUATION,
                              events.DEOPT_CONTINUATION}
        assert (spans[events.OSR_CONTINUATION]["tid"]
                != spans[events.DEOPT_CONTINUATION]["tid"])
        assert events.validate_events(tel.events) == []

    def test_trace_context_installs_and_restores_ambient(self, tmp_path):
        chrome = tmp_path / "trace.json"
        stats = tmp_path / "stats.json"
        assert not ambient().enabled
        with trace(chrome=str(chrome), stats=str(stats),
                   clock=FakeClock()) as tel:
            assert ambient() is tel
            tel.event(events.OSR_FIRE, kind="open")
        assert not ambient().enabled
        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"][0]["name"] == events.OSR_FIRE
        stats_doc = json.loads(stats.read_text())
        assert stats_doc["format"].startswith("repro.obs.stats/")
        assert stats_doc["metrics"]["counters"][events.OSR_FIRE] == 1

    def test_set_ambient_none_resets_to_untraced(self):
        tel = Telemetry()
        set_ambient(tel)
        try:
            assert ambient() is tel
        finally:
            set_ambient(None)
        assert not ambient().enabled


class TestEventVocabulary:
    def test_vocabulary_is_closed_and_consistent(self):
        assert events.INSTANT_NAMES.isdisjoint(events.SPAN_NAMES)
        assert events.EVENT_NAMES == events.INSTANT_NAMES | events.SPAN_NAMES
        for name in events.EVENT_NAMES:
            assert "." in name  # dotted subsystem.action pairs

    def test_validate_flags_unknown_names_and_phases(self):
        bad = [
            {"name": "nope.nope", "ph": "i", "ts": 1, "tid": 1, "args": {}},
            {"name": events.JIT_COMPILE, "ph": "i", "ts": 2, "tid": 1,
             "args": {}},
            {"name": events.OSR_FIRE, "ph": "X", "ts": 3, "dur": 1,
             "tid": 1, "args": {}},
            # the retired begin/end phases are not a shape any more
            {"name": events.JIT_COMPILE, "ph": "B", "ts": 5, "tid": 1,
             "args": {}},
        ]
        problems = events.validate_events(bad)
        assert len(problems) >= 4
        assert any("unknown phase 'B'" in p for p in problems)

    def test_validate_checks_completion_order_not_start_order(self):
        # an instant inside a span: the span starts earlier but is
        # recorded later — well formed
        good = [
            {"name": events.OSR_STATE_SIZE, "ph": "i", "ts": 5, "tid": 1,
             "args": {}},
            {"name": events.OSR_INSERT, "ph": "X", "ts": 1, "dur": 9,
             "tid": 1, "args": {}},
        ]
        assert events.validate_events(good) == []
        bad = [good[1], good[0]]  # ends at 10, then an instant at 5
        assert any("backwards" in p for p in events.validate_events(bad))

    def test_validate_flags_partial_overlap_on_one_thread(self):
        def span(ts, dur, tid):
            return {"name": events.JIT_COMPILE, "ph": "X", "ts": ts,
                    "dur": dur, "tid": tid, "args": {}}

        # nested, disjoint, and overlapping across threads are all fine
        good = [span(2, 1, 1), span(4, 2, 1), span(1, 9, 1), span(0, 12, 2),
                span(11, 2, 1)]
        assert events.validate_events(good) == []
        # [1, 5] and [3, 7] on one thread neither nest nor are disjoint
        problems = events.validate_events([span(1, 4, 1), span(3, 4, 1)])
        assert any("partially overlaps" in p for p in problems)

    def test_validate_flags_non_scalar_args_and_missing_tid(self):
        bad = [{"name": events.OSR_FIRE, "ph": "i", "ts": 1, "tid": 1,
                "args": {"x": [1, 2]}}]
        assert events.validate_events(bad)
        no_tid = [{"name": events.OSR_FIRE, "ph": "i", "ts": 1, "args": {}}]
        assert any("tid" in p for p in events.validate_events(no_tid))


class TestExporters:
    def _telemetry(self):
        tel = Telemetry(clock=FakeClock())
        with tel.span(events.JIT_COMPILE, function="f", code_version=0):
            tel.event(events.JIT_CACHE_MISS, function="f")
        tel.event(events.OSR_FIRE, kind="open")
        return tel

    def test_chrome_events_schema(self):
        tel = self._telemetry()
        chrome = chrome_trace_events(tel)
        assert validate_chrome_trace(chrome) == []
        for event in chrome:
            assert set(event) >= {"name", "cat", "ph", "ts", "pid", "tid"}
        cats = {e["cat"] for e in chrome}
        assert cats == {"jit", "osr"}
        instants = [e for e in chrome if e["ph"] == "i"]
        assert all(e["s"] == "t" for e in instants)
        # the emitting thread's id passes through
        assert {e["tid"] for e in chrome} == {threading.get_ident()}

    def test_chrome_document_round_trip(self, tmp_path):
        tel = self._telemetry()
        doc = chrome_trace_document(tel)
        assert doc["displayTimeUnit"] == "ms"
        path = tmp_path / "t.json"
        write_chrome_trace(tel, str(path))
        loaded = load_chrome_trace(str(path))
        assert loaded == doc["traceEvents"]
        # a bare event array loads too
        path.write_text(json.dumps(doc["traceEvents"]))
        assert load_chrome_trace(str(path)) == doc["traceEvents"]

    def test_report_and_stats(self):
        tel = self._telemetry()
        report = format_report(tel)
        assert events.JIT_COMPILE in report
        assert events.OSR_FIRE in report
        doc = stats_document(tel)
        assert doc["event_count"] == len(tel.events)
        assert doc["metrics"]["counters"][events.OSR_FIRE] == 1
        json.dumps(doc)

    def test_validate_chrome_trace_catches_corruption(self):
        tel = self._telemetry()
        chrome = chrome_trace_events(tel)
        chrome[0] = dict(chrome[0], ph="Z")
        assert validate_chrome_trace(chrome)

    # test_unbalanced_begin_is_flagged / test_unbalanced_end_is_flagged
    # are gone with the B/E phases: a span is one event, so it cannot be
    # cut in half.  B/E are now unsupported phases, and the stream rule
    # that replaces balance is checked here.
    def test_chrome_validator_checks_the_stream_rule(self):
        def span(ts, dur, tid=1):
            return {"name": events.JIT_COMPILE, "cat": "jit", "ph": "X",
                    "ts": ts, "dur": dur, "pid": 1, "tid": tid}

        assert validate_chrome_trace(
            [span(2.0, 1.0), span(1.0, 9.0), span(0.5, 20.0, tid=2)]) == []
        problems = validate_chrome_trace([span(1.0, 9.0), span(2.0, 1.0)])
        assert any("backwards" in p for p in problems)
        problems = validate_chrome_trace([span(1.0, 4.0), span(3.0, 4.0)])
        assert any("partially overlaps" in p for p in problems)
        begin = dict(span(1.0, 0.0), ph="B")
        assert any("unsupported phase 'B'" in p
                   for p in validate_chrome_trace([begin]))

    def test_empty_streams_validate_clean(self):
        assert events.validate_events([]) == []
        assert validate_chrome_trace([]) == []

    def test_complete_events_validate_and_summarize(self):
        # the span shape: accepted by both validators, and its dur
        # folds into the span totals
        raw = [{"name": events.JIT_COMPILE, "ph": "X", "ts": 1000,
                "dur": 2000, "tid": 7, "args": {}}]
        assert events.validate_events(raw) == []
        chrome = chrome_events_from_raw(raw)
        assert validate_chrome_trace(chrome) == []
        assert chrome[0]["dur"] == 2.0  # ns -> us
        summary = summarize_chrome_events(chrome)
        assert summary[events.JIT_COMPILE]["total_us"] == 2.0

    def test_complete_event_requires_integer_dur(self):
        missing = [{"name": events.JIT_COMPILE, "ph": "X", "ts": 1000,
                    "tid": 7, "args": {}}]
        assert any("integer dur" in p
                   for p in events.validate_events(missing))


class TestCLI:
    def test_report_and_validate_commands(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        tel = Telemetry(clock=FakeClock())
        tel.event(events.TIER_PROMOTE, function="f")
        path = tmp_path / "trace.json"
        write_chrome_trace(tel, str(path))

        assert main(["report", str(path)]) == 0
        assert events.TIER_PROMOTE in capsys.readouterr().out
        assert main(["validate", str(path)]) == 0
        assert "schema ok" in capsys.readouterr().out

    def test_validate_command_rejects_bad_trace(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            [{"name": "x", "cat": "x", "ph": "Z", "ts": 1,
              "pid": 1, "tid": 1}]
        ))
        assert main(["validate", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err
