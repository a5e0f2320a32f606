"""Unit + integration tests: per-function tier-journey reports.

The builder (grouping + base-name rollup), every diagnose() verdict
branch, and a journey assembled from a real traced run.
"""

from repro.obs import Telemetry, build_journeys, events, format_journeys
from repro.obs.journey import Journey


def _ev(ts_us, name, **args):
    # raw tracer shape: ns timestamps, no pid
    return {"name": name, "ph": "i", "ts": int(ts_us * 1000), "tid": 1,
            "args": args}


class TestBuilder:
    def test_groups_by_function_arg(self):
        journeys = build_journeys([
            _ev(1, events.PROFILE_CALL_HOT, function="f"),
            _ev(2, events.PROFILE_CALL_HOT, function="g"),
            _ev(3, events.TIER_PROMOTE, function="f"),
        ])
        assert set(journeys) == {"f", "g"}
        assert journeys["f"].count(events.TIER_PROMOTE) == 1
        assert journeys["g"].count(events.TIER_PROMOTE) == 0

    def test_continuations_roll_up_under_base_function(self):
        journeys = build_journeys([
            _ev(1, events.TIER_PROMOTE, function="f"),
            _ev(2, events.OSR_FIRE, continuation="f.cloneto"),
            _ev(3, events.DEOPT_EXIT, target="f_to_g"),
        ])
        assert set(journeys) == {"f"}
        assert len(journeys["f"].steps) == 3

    def test_chrome_events_use_us_timestamps(self):
        # Chrome events carry a pid and µs timestamps — no rescale
        journeys = build_journeys([
            {"name": events.TIER_PROMOTE, "ph": "i", "ts": 1500.0,
             "pid": 1, "tid": 1, "args": {"function": "f"}},
        ])
        assert journeys["f"].steps[0][0] == 1500.0

    def test_spans_sort_by_start_and_foreign_events_are_skipped(self):
        journeys = build_journeys([
            # recorded on completion, after the instant inside it — the
            # journey still tells it in start order
            _ev(1.5, events.JIT_CACHE_MISS, function="f"),
            {"name": events.JIT_COMPILE, "ph": "X", "ts": 1000, "dur": 1000,
             "tid": 1, "args": {"function": "f"}},
            _ev(3, "not.vocabulary", function="f"),
            _ev(4, events.OSR_FIRE),  # no function arg: unattributable
        ])
        assert set(journeys) == {"f"}
        assert [name for _, name, _ in journeys["f"].steps] == [
            events.JIT_COMPILE, events.JIT_CACHE_MISS]


class TestDiagnose:
    def _journey(self, *steps):
        journey = Journey("f")
        for ts, name, args in steps:
            journey.steps.append((ts, name, args))
        return journey

    def test_promoted(self):
        journey = self._journey(
            (0.0, events.PROFILE_CALL_HOT, {}),
            (120.0, events.TIER_PROMOTE, {}),
        )
        assert journey.diagnose() == "promoted at +120us"

    def test_promoted_then_demoted_and_pinned(self):
        journey = self._journey(
            (0.0, events.TIER_PROMOTE, {}),
            (10.0, events.TIER_DEMOTE, {}),
            (20.0, events.SPEC_PINNED, {}),
        )
        verdict = journey.diagnose()
        assert "demoted 1x" in verdict
        assert "pinned to baseline by deopt thrash" in verdict

    def test_pinned_without_promotion(self):
        journey = self._journey(
            (0.0, events.DEOPT_GUARD_FAIL, {}),
            (1.0, events.DEOPT_GUARD_FAIL, {}),
            (2.0, events.SPEC_PINNED, {}),
        )
        assert journey.diagnose() == (
            "at baseline: pinned by the deopt-thrash limit after 2 guard "
            "failures")

    def test_decode_bailout(self):
        journey = self._journey(
            (0.0, events.DECODE_BAILOUT, {"reason": "indirect-call"}),
        )
        assert "decode bailed out (indirect-call)" in journey.diagnose()

    def test_compiled_but_never_published(self):
        journey = self._journey(
            (0.0, events.PROFILE_CALL_HOT, {}),
            (1.0, events.COMPILE_START, {}),
            (2.0, events.COMPILE_DISCARD, {}),
        )
        assert journey.diagnose() == (
            "at baseline: tier-up compiled but never published "
            "(1 started, 1 discarded)")

    def test_never_hot(self):
        journey = self._journey((0.0, events.DECODE_FUSE, {}))
        assert journey.diagnose() == (
            "at baseline: never crossed the hotness thresholds")

    def test_hot_but_no_compile(self):
        journey = self._journey((0.0, events.PROFILE_CALL_HOT, {}))
        assert journey.diagnose() == (
            "at baseline: hot, but no compile was observed")


class TestFormat:
    def test_report_contains_verdicts_and_steps(self):
        journeys = build_journeys([
            _ev(1, events.PROFILE_CALL_HOT, function="f", calls=4),
            _ev(100, events.TIER_PROMOTE, function="f"),
        ])
        text = format_journeys(journeys)
        assert "@f — promoted at +99us" in text
        assert events.PROFILE_CALL_HOT in text
        assert "calls=4" in text

    def test_function_filter_and_missing_function(self):
        journeys = build_journeys([
            _ev(1, events.TIER_PROMOTE, function="f"),
            _ev(2, events.TIER_PROMOTE, function="g"),
        ])
        only_f = format_journeys(journeys, function="f")
        assert "@f" in only_f and "@g" not in only_f
        assert "no journey recorded" in format_journeys(journeys,
                                                        function="zzz")

    def test_max_steps_truncation(self):
        stream = [_ev(i, events.OSR_FIRE, function="f") for i in range(30)]
        text = format_journeys(build_journeys(stream), max_steps=5)
        assert "... 25 more events" in text

    def test_empty_trace(self):
        assert format_journeys({}) == "(no journey events in trace)"


class TestIntegration:
    def test_journeys_from_a_real_traced_run(self):
        from repro.ir import parse_module
        from repro.vm import ExecutionEngine

        module = parse_module("""
define i64 @hot(i64 %n) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i1, %loop ]
  %acc = phi i64 [ 0, %entry ], [ %acc1, %loop ]
  %acc1 = add i64 %acc, %i
  %i1 = add i64 %i, 1
  %c = icmp sle i64 %i1, %n
  br i1 %c, label %loop, label %out
out:
  ret i64 %acc1
}
""")
        telemetry = Telemetry()
        engine = ExecutionEngine(module, tier="tiered", call_threshold=2,
                                 telemetry=telemetry)
        for _ in range(4):
            engine.run("hot", 50)
        journeys = build_journeys(telemetry.events)
        assert "hot" in journeys
        assert journeys["hot"].promoted
        assert journeys["hot"].diagnose().startswith("promoted at ")
