"""Unit + integration tests: the always-on flight recorder.

Ring semantics (drop-oldest, dropped counter), spans as complete events
that keep their attributes, the stream rule on a ring, anomaly triggers
(deopt-thrash pin, invalidation storm, uncaught trap through the
engine), and the Chrome dump.
"""

import json

import pytest

from repro.ir import parse_module
from repro.obs import FlightRecorder, Tracer, events, production_telemetry
from repro.obs.export import chrome_events_from_raw, validate_chrome_trace
from repro.vm import ExecutionEngine
from repro.vm.interpreter import Trap


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 1000
        return self.now


class TestRing:
    def test_records_in_order(self):
        rec = FlightRecorder(capacity=8, clock=FakeClock())
        rec.instant(events.OSR_FIRE, {"kind": "open"})
        rec.complete(events.JIT_COMPILE, rec.now(), {"function": "f"})
        names = [e["name"] for e in rec.events]
        assert names == [events.OSR_FIRE, events.JIT_COMPILE]

    def test_drop_oldest_keeps_most_recent(self):
        rec = FlightRecorder(capacity=4, clock=FakeClock())
        for i in range(10):
            rec.instant(events.OSR_FIRE, {"i": i})
        assert rec.recorded == 10
        assert rec.dropped == 6
        assert len(rec) == 4
        kept = [e["args"]["i"] for e in rec.events]
        assert kept == [6, 7, 8, 9]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_recorder_is_a_bounded_tracer(self):
        # same clock/lock/event shapes as the unbounded tracer: the
        # recorder only swaps the buffer for a ring
        assert isinstance(FlightRecorder(capacity=1), Tracer)
        rec, tracer = (FlightRecorder(capacity=8, clock=FakeClock()),
                       Tracer(clock=FakeClock()))
        for sink in (rec, tracer):
            sink.instant(events.OSR_FIRE, {"kind": "open"})
            sink.complete(events.JIT_COMPILE, sink.now(), {"function": "f"})
        assert rec.events == tracer.events

    def test_spans_are_complete_events_with_their_attributes(self):
        rec = FlightRecorder(capacity=8, clock=FakeClock())
        dur = rec.complete(events.JIT_COMPILE, rec.now(), {"function": "f"})
        (event,) = rec.events
        assert event["ph"] == "X"
        assert event["dur"] == dur == 1000
        assert event["args"] == {"function": "f"}

    def test_production_span_keeps_its_attributes(self):
        # the ring used to record spans with "args": {} — a dumped
        # jit.compile could not say which function
        telemetry = production_telemetry(capacity=8)
        with telemetry.span(events.JIT_COMPILE, function="f",
                            code_version=2):
            pass
        (event,) = telemetry.flight.events
        assert event["args"] == {"function": "f", "code_version": 2}

    def test_instant_inside_a_span_validates(self):
        # osr.insert around osr.state_size: the span's start precedes the
        # instant but it is recorded after it — both validators used to
        # report "timestamp went backwards" for every such stream
        telemetry = production_telemetry(capacity=8)
        with telemetry.span(events.OSR_INSERT, function="f", kind="resolved"):
            telemetry.event(events.OSR_STATE_SIZE, function="f", live=3)
        with telemetry.span(events.JIT_COMPILE, function="f"):
            with telemetry.span(events.CODEGEN_BUILD, function="f"):
                pass
        raw = telemetry.flight.events
        assert [e["name"] for e in raw] == [
            events.OSR_STATE_SIZE, events.OSR_INSERT,
            events.CODEGEN_BUILD, events.JIT_COMPILE]
        assert events.validate_events(raw) == []
        assert validate_chrome_trace(chrome_events_from_raw(raw)) == []

    # test_unbalanced_end_raises and test_clear_refuses_with_open_spans
    # went with begin/end/open_spans (the behaviour is removed: a span is
    # held by its guard, not by the sink, so there is nothing to
    # unbalance); clearing is covered here, overlap by
    # test_obs_core.py::test_overlapping_spans_from_two_threads_both_complete
    def test_clear_empties_the_ring_but_keeps_lifetime_counters(self):
        rec = FlightRecorder(capacity=2, clock=FakeClock())
        for _ in range(3):
            rec.instant(events.OSR_FIRE, {})
        rec.clear()
        assert len(rec) == 0 and rec.events == []
        assert (rec.recorded, rec.dropped) == (3, 1)

    def test_dump_stays_valid_after_drops(self):
        # a span is one event, so whatever survives the ring validates —
        # even a span whose nested children were overwritten
        rec = FlightRecorder(capacity=3, clock=FakeClock())
        for _ in range(5):
            outer = rec.now()
            rec.complete(events.CODEGEN_BUILD, rec.now(), {})
            rec.instant(events.OSR_FIRE, {})
            rec.complete(events.JIT_COMPILE, outer, {})
        assert events.validate_events(rec.events) == []
        chrome = chrome_events_from_raw(rec.events)
        assert validate_chrome_trace(chrome) == []


class TestAnomalies:
    def test_spec_pinned_trips_deopt_thrash_anomaly(self):
        rec = FlightRecorder(capacity=32, clock=FakeClock())
        rec.instant(events.SPEC_PINNED, {"function": "f"})
        assert [reason for reason, _ in rec.anomalies] == ["deopt-thrash-pin"]
        assert rec.events[-1]["name"] == events.FLIGHT_ANOMALY
        assert rec.events[-1]["args"]["reason"] == "deopt-thrash-pin"

    def test_invalidation_storm_trips_once_per_burst(self):
        rec = FlightRecorder(capacity=64, clock=FakeClock(),
                             storm_threshold=4, storm_window_s=1.0)
        for _ in range(3):
            rec.instant(events.ENGINE_INVALIDATE, {})
        assert rec.anomalies == []
        rec.instant(events.ENGINE_INVALIDATE, {})
        assert [r for r, _ in rec.anomalies] == ["invalidation-storm"]
        # window cleared: the next burst must re-accumulate to trip again
        for _ in range(3):
            rec.instant(events.ENGINE_INVALIDATE, {})
        assert len(rec.anomalies) == 1
        rec.instant(events.ENGINE_INVALIDATE, {})
        assert len(rec.anomalies) == 2

    def test_slow_invalidations_never_trip(self):
        clock = FakeClock()
        rec = FlightRecorder(capacity=64, clock=clock,
                             storm_threshold=3, storm_window_s=1e-6)
        for _ in range(10):
            clock.now += 10_000  # 10us apart, window is 1us
            rec.instant(events.ENGINE_INVALIDATE, {})
        assert rec.anomalies == []

    def test_anomaly_auto_dumps_when_path_configured(self, tmp_path):
        path = tmp_path / "anomaly.json"
        rec = FlightRecorder(capacity=16, clock=FakeClock(),
                             dump_path=str(path))
        rec.instant(events.OSR_FIRE, {})
        assert not path.exists()
        rec.instant(events.SPEC_PINNED, {"function": "f"})
        doc = json.loads(path.read_text())
        names = [e["name"] for e in doc["traceEvents"]]
        # the dump holds the history leading up to the anomaly
        assert names == [events.OSR_FIRE, events.SPEC_PINNED,
                         events.FLIGHT_ANOMALY]
        assert doc["otherData"]["producer"] == "repro.obs.flight"

    def test_uncaught_trap_is_an_engine_anomaly(self):
        module = parse_module("""
define i64 @boom(i64 %x) {
entry:
  %q = sdiv i64 %x, 0
  ret i64 %q
}
""")
        telemetry = production_telemetry(capacity=32)
        engine = ExecutionEngine(module, tier="interp", telemetry=telemetry)
        with pytest.raises(Trap):
            engine.run("boom", 1)
        assert [r for r, _ in telemetry.flight.anomalies] == ["uncaught-trap"]
        assert telemetry.flight.stats()["anomalies"] == ["uncaught-trap"]


class TestStatsAndDump:
    def test_stats_shape(self):
        rec = FlightRecorder(capacity=4, clock=FakeClock())
        for _ in range(6):
            rec.instant(events.OSR_FIRE, {})
        stats = rec.stats()
        assert stats == {"capacity": 4, "buffered": 4, "recorded": 6,
                         "dropped": 2, "anomalies": []}

    def test_dump_writes_chrome_document(self, tmp_path):
        rec = FlightRecorder(capacity=8, clock=FakeClock())
        rec.complete(events.JIT_COMPILE, rec.now(), {"function": "f"})
        path = tmp_path / "flight.json"
        rec.dump(str(path))
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc["traceEvents"]) == []
        assert doc["otherData"]["recorded"] == 1

    def test_engine_stats_snapshot_includes_flight(self):
        module = parse_module("""
define i64 @f(i64 %x) {
entry:
  %y = add i64 %x, 1
  ret i64 %y
}
""")
        engine = ExecutionEngine(module, tier="tiered", call_threshold=2,
                                 flight=True)
        for _ in range(4):
            engine.run("f", 1)
        snapshot = engine.stats_snapshot()
        assert snapshot["flight"]["recorded"] > 0
        assert snapshot["flight"]["dropped"] == 0
        # the dispatch timer fed the histogram-backed percentiles
        assert snapshot["timers"][events.ENGINE_DISPATCH]["count"] == 4
        assert snapshot["timers"][events.ENGINE_DISPATCH]["p50"] > 0
