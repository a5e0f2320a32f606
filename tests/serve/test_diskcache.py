"""DiskCodeCache: round trips, rejection paths, engine wiring."""

from __future__ import annotations

import pytest

from repro.ir import parse_module
from repro.serve import DiskCodeCache
from repro.vm import POLICIES, ExecutionEngine
from repro.vm.jit import CompiledCode, codegen_function

CHAIN = """
define i64 @chain(i64 %x) {
entry:
  br label %b0
b0:
  %a = add i64 %x, 10
  %m = mul i64 %a, 3
  br label %done
done:
  ret i64 %m
}
"""

PAIR = CHAIN + """
define i64 @other(i64 %x) {
entry:
  %r = sub i64 %x, 5
  ret i64 %r
}
"""


@pytest.fixture
def cache(tmp_path):
    return DiskCodeCache(tmp_path / "cache")


def _compiled(source: str = CHAIN, name: str = "chain"):
    module = parse_module(source)
    func = module.get_function(name)
    return module, func, codegen_function(func)


# -- round trip -------------------------------------------------------------------


def test_store_then_load_round_trip(cache):
    module, func, artifact = _compiled()
    assert cache.store(func, artifact)
    assert cache.entry_count() == 1

    fresh_module = parse_module(CHAIN)
    fresh = fresh_module.get_function("chain")
    loaded = cache.load(fresh, fresh_module)
    assert loaded is not None and loaded.matches(fresh)
    stats = cache.stats()
    assert stats == {"hits": 1, "misses": 0, "rejected": 0, "writes": 1,
                     "unserializable": 0, "errors": 0}


def test_load_missing_entry_is_a_miss(cache):
    module, func, _ = _compiled()
    assert cache.load(func, module) is None
    assert cache.stats()["misses"] == 1


def test_identity_hash_is_stable_across_parses(cache):
    _, one, _ = _compiled()
    _, two, _ = _compiled()
    assert one is not two
    assert DiskCodeCache.identity_hash(one) == DiskCodeCache.identity_hash(two)
    assert cache.key_for(one) == cache.key_for(two)


def test_different_bodies_get_different_keys(cache):
    module = parse_module(PAIR)
    chain = module.get_function("chain")
    other = module.get_function("other")
    assert cache.key_for(chain) != cache.key_for(other)


SCRATCH_C = """
long spin(long n) {
    long acc[2];
    long total = 0;
    for (long i = 0; i < n; i++) {
        acc[0] = i;
        acc[1] = acc[0] * 2;
        total = total + acc[1];
    }
    return total;
}
"""


def test_scalarization_toggles_the_key(cache):
    """Scalarizing rewrites the body (and bumps code_version), so a
    cached artifact for the unscalarized function must never be served
    for the scalarized one — the keys have to diverge."""
    from repro.frontend import compile_c
    from repro.transform import PassManager

    plain = compile_c(SCRATCH_C).get_function("spin")
    PassManager.pipeline("unoptimized").run(plain)
    scalarized = compile_c(SCRATCH_C).get_function("spin")
    PassManager.pipeline("scalarized").run(scalarized)
    assert cache.key_for(plain) != cache.key_for(scalarized)
    assert (DiskCodeCache.identity_hash(plain)
            != DiskCodeCache.identity_hash(scalarized))

    # a no-op scalarize run leaves the key stable: no spurious cold misses
    before = cache.key_for(scalarized)
    PassManager(["scalarize"]).run(scalarized)
    assert cache.key_for(scalarized) == before


# -- rejection paths --------------------------------------------------------------


def test_truncated_entry_rejected_and_dropped(cache):
    module, func, artifact = _compiled()
    cache.store(func, artifact)
    entry = cache.entry_path(cache.key_for(func))
    entry.write_bytes(entry.read_bytes()[:20])

    assert cache.load(func, module) is None
    stats = cache.stats()
    assert stats["rejected"] == 1 and stats["misses"] == 1
    assert not entry.exists()  # bad entries are unlinked best-effort


def test_corrupt_payload_rejected(cache):
    module, func, artifact = _compiled()
    cache.store(func, artifact)
    entry = cache.entry_path(cache.key_for(func))
    blob = bytearray(entry.read_bytes())
    blob[-1] ^= 0xFF  # flip a payload byte: checksum mismatch
    entry.write_bytes(bytes(blob))

    assert cache.load(func, module) is None
    assert cache.stats()["rejected"] == 1


def test_wrong_header_magic_rejected(cache):
    module, func, artifact = _compiled()
    cache.store(func, artifact)
    entry = cache.entry_path(cache.key_for(func))
    blob = bytearray(entry.read_bytes())
    blob[:4] = b"XXXX"
    entry.write_bytes(bytes(blob))

    assert cache.load(func, module) is None
    assert cache.stats()["rejected"] == 1


def test_stale_entry_rejected_after_version_bump(cache):
    # satellite (c): write an entry, bump the code version (a body
    # rewrite), attach a fresh consumer — the old entry must never be
    # instantiated
    module, func, artifact = _compiled()
    assert cache.store(func, artifact)

    fresh_module = parse_module(CHAIN)
    fresh = fresh_module.get_function("chain")
    fresh.bump_code_version()
    # key includes the version stamp, so the old entry isn't even addressed
    assert cache.key_for(fresh) != cache.key_for(func)
    assert cache.load(fresh, fresh_module) is None
    assert cache.stats()["hits"] == 0

    # recompile + write-through replaces it under the new key; the next
    # same-version consumer hits
    new_artifact = codegen_function(fresh)
    assert cache.store(fresh, new_artifact)
    again_module = parse_module(CHAIN)
    again = again_module.get_function("chain")
    again.bump_code_version()
    assert cache.load(again, again_module) is not None


def test_transplanted_entry_rejected_by_stamp_recheck(cache, tmp_path):
    # even a hand-copied file under the "right" key is rejected by the
    # embedded-stamp re-check (second line of defense after keying)
    module, func, artifact = _compiled()
    cache.store(func, artifact)
    source_entry = cache.entry_path(cache.key_for(func))

    fresh_module = parse_module(CHAIN)
    fresh = fresh_module.get_function("chain")
    fresh.bump_code_version()
    target_entry = cache.entry_path(cache.key_for(fresh))
    target_entry.parent.mkdir(parents=True, exist_ok=True)
    target_entry.write_bytes(source_entry.read_bytes())

    assert cache.load(fresh, fresh_module) is None
    assert cache.stats()["rejected"] == 1


def test_unserializable_artifact_not_stored(cache):
    module, func, artifact = _compiled()
    poisoned = CompiledCode(
        artifact.code, artifact.py_name,
        {**artifact.bindings, "stub": ("resolve", 3)},
        artifact.version, artifact.shape)
    assert not cache.store(func, poisoned)
    assert cache.stats()["unserializable"] == 1
    assert cache.entry_count() == 0


def test_readonly_cache_never_writes(tmp_path):
    cache = DiskCodeCache(tmp_path / "ro", readonly=True)
    module, func, artifact = _compiled()
    assert not cache.store(func, artifact)
    assert not (tmp_path / "ro").exists()
    assert cache.load(func, module) is None  # miss, no crash


def test_clear_removes_entries(cache):
    module, func, artifact = _compiled()
    cache.store(func, artifact)
    assert cache.entry_count() == 1
    assert cache.clear() == 1
    assert cache.entry_count() == 0


# -- engine wiring ----------------------------------------------------------------


@pytest.mark.parametrize(
    "tier", [tier for tier, policy in POLICIES.items()
             if policy.baseline == "jit" or policy.promote])
def test_engine_warm_starts_from_disk(tmp_path, tier):
    """Whatever the policy that compiles — on first call, inline at the
    threshold or on a queue worker — every artifact is written through
    once, and a fresh engine of the same tier is served from disk."""
    cache_dir = tmp_path / "cache"

    def run_hot(engine):
        results = {engine.run("chain", 4) for _ in range(5)}
        assert engine.drain_background(10.0)
        results.add(engine.run("chain", 4))
        engine.shutdown_background()
        return results

    cold_engine = ExecutionEngine(parse_module(CHAIN), tier=tier,
                                  call_threshold=3,
                                  disk_cache=str(cache_dir))
    cold = run_hot(cold_engine)
    assert cold == {(4 + 10) * 3}
    # @chain, plus its guarded specialization under ``speculative``
    compiled = 2 if POLICIES[tier].speculate else 1
    assert cold_engine.disk_cache.stats()["writes"] == compiled

    # a fresh parse simulates a new process: new Function objects, empty
    # in-memory caches, same identity hash
    warm_engine = ExecutionEngine(parse_module(CHAIN), tier=tier,
                                  call_threshold=3,
                                  disk_cache=str(cache_dir))
    assert run_hot(warm_engine) == cold
    stats = warm_engine.disk_cache.stats()
    assert (stats["hits"], stats["misses"], stats["writes"]) == (
        compiled, 0, 0)
    assert warm_engine.metrics.counter("diskcache.hit") == compiled


def test_engine_accepts_cache_instance(tmp_path):
    cache = DiskCodeCache(tmp_path / "cache")
    engine = ExecutionEngine(parse_module(CHAIN), tier="jit",
                             disk_cache=cache)
    assert engine.disk_cache is cache
    engine.run("chain", 1)
    assert cache.stats()["writes"] == 1


def test_engine_without_cache_has_no_disk_traffic():
    engine = ExecutionEngine(parse_module(CHAIN), tier="jit")
    assert engine.disk_cache is None
    engine.run("chain", 1)
    assert engine.disk_lookup(engine.module.get_function("chain")) is None


def test_stats_snapshot_includes_diskcache(tmp_path):
    engine = ExecutionEngine(parse_module(CHAIN), tier="jit",
                             disk_cache=str(tmp_path / "cache"))
    engine.run("chain", 2)
    snapshot = engine.stats_snapshot()
    assert snapshot["diskcache"]["writes"] == 1


def test_tiered_promotion_writes_through(tmp_path):
    cache_dir = tmp_path / "cache"
    engine = ExecutionEngine(parse_module(CHAIN), tier="tiered",
                             call_threshold=3, disk_cache=str(cache_dir))
    for _ in range(4):
        engine.run("chain", 2)
    assert engine.disk_cache.stats()["writes"] == 1

    warm = ExecutionEngine(parse_module(CHAIN), tier="jit",
                           disk_cache=str(cache_dir))
    warm.run("chain", 2)
    assert warm.disk_cache.stats()["hits"] == 1


def test_background_promotion_writes_through(tmp_path):
    cache_dir = tmp_path / "cache"
    engine = ExecutionEngine(parse_module(CHAIN), tier="tiered-bg",
                             call_threshold=3, disk_cache=str(cache_dir))
    for _ in range(6):
        engine.run("chain", 2)
    assert engine.drain_background(10.0)
    engine.shutdown_background()
    assert engine.disk_cache.stats()["writes"] >= 1

    warm = ExecutionEngine(parse_module(CHAIN), tier="jit",
                           disk_cache=str(cache_dir))
    assert warm.run("chain", 2) == (2 + 10) * 3
    assert warm.disk_cache.stats()["hits"] == 1
