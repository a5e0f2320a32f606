"""TierProfiler: one profile per function name, reset in place.

A dispatcher binds its function's :class:`FunctionProfile` once, when it
is built, so the profiler must hand every caller — on any thread, before
and after an invalidation — the same object for a name.
"""

import threading

import pytest

from repro.vm import FunctionProfile, TierProfiler


def test_profile_for_returns_one_profile_per_name():
    profiler = TierProfiler()
    first = profiler.profile_for("f")
    assert isinstance(first, FunctionProfile) and first.name == "f"
    assert profiler.profile_for("f") is first
    assert profiler.profile_for("g") is not first


def test_invalidate_resets_the_profile_in_place():
    profiler = TierProfiler()
    profile = profiler.profile_for("f")
    profile.calls, profile.backedges, profile.promoted_version = 5, 40, 2
    profile.record_args((7,))
    profiler.invalidate("f")
    assert profiler.profile_for("f") is profile
    assert (profile.calls, profile.backedges, profile.promoted,
            profile.samples, profile.feedback) == (0, 0, False, 0, [])


def test_demote_replaces_the_feedback_list_a_reader_holds():
    # a thread still holding the old histogram list sees it whole; the
    # reset profile starts a new one
    profile = TierProfiler().profile_for("f")
    for _ in range(3):
        profile.record_args((7, 8))
    held = profile.feedback
    profile.demote()
    assert profile.feedback is not held and profile.feedback == []
    assert [slot.total for slot in held] == [3, 3]


def test_invalidate_of_an_unseen_name_makes_no_profile():
    profiler = TierProfiler()
    profiler.invalidate("never_called")
    assert profiler.snapshot() == {}


@pytest.mark.parametrize("thresholds", [(0, 1), (1, 0), (-3, 256)])
def test_thresholds_below_one_are_rejected(thresholds):
    call_threshold, backedge_threshold = thresholds
    with pytest.raises(ValueError):
        TierProfiler(call_threshold, backedge_threshold)


def test_should_promote_on_either_threshold():
    profiler = TierProfiler(call_threshold=3, backedge_threshold=10)
    profile = profiler.profile_for("f")
    profile.calls, profile.backedges = 2, 9
    assert not profiler.should_promote(profile)
    profile.calls = 3
    assert profiler.should_promote(profile)
    profile.calls, profile.backedges = 0, 10
    assert profiler.should_promote(profile)


def test_another_thread_sees_the_same_profile():
    profiler = TierProfiler()
    mine = profiler.profile_for("f")
    seen = []
    thread = threading.Thread(
        target=lambda: seen.append(profiler.profile_for("f")))
    thread.start()
    thread.join()
    assert seen == [mine]
    assert profiler.snapshot() == {
        "f": {"calls": 0, "backedges": 0, "promoted": False}}


def test_racing_first_lookups_agree_on_one_profile():
    profiler = TierProfiler()
    names = [f"f{i}" for i in range(200)]
    barrier = threading.Barrier(4)
    seen = [None] * 4

    def lookup(slot):
        barrier.wait()
        seen[slot] = [profiler.profile_for(name) for name in names]

    threads = [threading.Thread(target=lookup, args=(slot,))
               for slot in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for profiles in seen[1:]:
        assert all(a is b for a, b in zip(profiles, seen[0]))
    assert sorted(profiler.snapshot()) == sorted(names)
