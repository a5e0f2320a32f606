"""VMServer: correctness, tenancy, drain/shutdown, transports."""

from __future__ import annotations

import threading

import pytest

from repro.ir import parse_module
from repro.obs import events as EV
from repro.serve import (
    DiskCodeCache,
    ServeError,
    SocketVMClient,
    VMServer,
)
from repro.vm import ExecutionEngine

SOURCE = """
define i64 @double(i64 %x) {
entry:
  %r = mul i64 %x, 2
  ret i64 %r
}

define i64 @boom(i64 %x) {
entry:
  %p = inttoptr i64 %x to i64*
  %v = load i64, i64* %p
  ret i64 %v
}
"""


def make_server(**kwargs):
    kwargs.setdefault("workers", 4)
    kwargs.setdefault("call_threshold", 100)
    return VMServer(parse_module(SOURCE), **kwargs)


# -- correctness ------------------------------------------------------------------


def test_single_request():
    with make_server(workers=1) as server:
        assert server.call("double", [21], timeout=10) == 42


def test_many_concurrent_requests_resolve_correctly():
    with make_server() as server:
        pending = [server.submit("double", [i]) for i in range(100)]
        assert [p.result(10) for p in pending] == [2 * i for i in range(100)]
        stats = server.stats()
        assert stats["completed"] == 100 and stats["errors"] == 0
        assert stats["outstanding"] == 0


def test_requests_from_many_client_threads():
    with make_server() as server:
        results = {}

        def client(tag):
            results[tag] = [server.call("double", [i], timeout=10)
                            for i in range(20)]

        threads = [threading.Thread(target=client, args=(t,))
                   for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(results[t] == [2 * i for i in range(20)]
                   for t in range(4))


def test_error_propagates_to_caller_and_is_counted():
    with make_server(workers=1) as server:
        with pytest.raises(Exception):
            server.call("boom", [0], timeout=10)
        with pytest.raises(Exception):
            server.call("missing", [], timeout=10)
        assert server.call("double", [3], timeout=10) == 6  # still serving
        assert server.stats()["errors"] == 2


def test_serve_latency_histogram_is_populated():
    with make_server() as server:
        for i in range(10):
            server.call("double", [i], timeout=10)
        latency = server.engine.metrics.timer_stats(EV.SERVE_LATENCY)
        assert latency["count"] == 10
        assert latency["p99"] >= latency["p50"] >= 0.0
        assert server.engine.metrics.counter(EV.SERVE_REQUEST) == 10


# -- tenant isolation -------------------------------------------------------------


def test_per_tenant_profiles_are_isolated():
    with make_server() as server:
        for _ in range(7):
            server.call("double", [1], tenant="alpha", timeout=10)
        for _ in range(2):
            server.call("double", [1], tenant="beta", timeout=10)
        server.call("double", [1], timeout=10)  # default scope

        tenants = server.engine.profiler.tenant_snapshot()
        assert tenants["alpha"]["double"]["calls"] == 7
        assert tenants["beta"]["double"]["calls"] == 2
        assert server.engine.profiler.snapshot()["double"]["calls"] == 1
        assert server.engine.stats_snapshot()["tenants"] == tenants


def test_tenant_scope_nests_and_restores():
    engine = ExecutionEngine(parse_module(SOURCE), tier="tiered")
    profiler = engine.profiler
    assert profiler.current_tenant() is None
    with profiler.tenant_scope("outer"):
        assert profiler.current_tenant() == "outer"
        with profiler.tenant_scope("inner"):
            assert profiler.current_tenant() == "inner"
        assert profiler.current_tenant() == "outer"
    assert profiler.current_tenant() is None


def test_invalidate_demotes_every_tenant_scope():
    engine = ExecutionEngine(parse_module(SOURCE), tier="tiered",
                             call_threshold=2)
    profiler = engine.profiler
    with profiler.tenant_scope("alpha"):
        profiler.profile_for("double").calls = 5
    profiler.profile_for("double").calls = 3
    profiler.invalidate("double")
    assert profiler.snapshot()["double"]["calls"] == 0
    assert profiler.tenant_snapshot()["alpha"]["double"]["calls"] == 0


def test_promoted_code_is_shared_across_tenants(tmp_path):
    # hotness is per tenant but the compiled artifact is not: alpha's
    # promotion serves beta too (one compile, one code cache)
    server = VMServer(parse_module(SOURCE), workers=1, call_threshold=3)
    try:
        for _ in range(4):
            server.call("double", [5], tenant="alpha", timeout=10)
        tenants = server.engine.profiler.tenant_snapshot()
        assert tenants["alpha"]["double"]["promoted"]
        assert server.call("double", [5], tenant="beta", timeout=10) == 10
        assert server.engine.compile_count == 1
    finally:
        server.shutdown()


# -- drain / shutdown -------------------------------------------------------------


def test_drain_waits_for_all_requests():
    with make_server() as server:
        pending = [server.submit("double", [i]) for i in range(50)]
        assert server.drain(10)
        assert server.stats()["outstanding"] == 0
        assert all(p.done() for p in pending)


def test_submit_after_shutdown_raises():
    server = make_server()
    server.shutdown()
    with pytest.raises(ServeError):
        server.submit("double", [1])


def test_shutdown_is_idempotent_and_graceful():
    server = make_server()
    pending = [server.submit("double", [i]) for i in range(20)]
    assert server.shutdown(wait=True)
    assert server.shutdown(wait=True)  # second call is a no-op
    assert [p.result(1) for p in pending] == [2 * i for i in range(20)]


def test_result_timeout_raises_serve_error():
    from repro.serve.server import PendingRequest, Request

    never_resolved = PendingRequest(Request("never", ()))
    with pytest.raises(ServeError):
        never_resolved.result(0.01)


# -- constructor contract ---------------------------------------------------------


def test_requires_exactly_one_of_module_or_engine():
    module = parse_module(SOURCE)
    engine = ExecutionEngine(module, tier="tiered")
    with pytest.raises(ValueError):
        VMServer(module, engine=engine)
    with pytest.raises(ValueError):
        VMServer()
    server = VMServer(engine=engine, workers=1)
    try:
        assert server.engine is engine
        assert server.call("double", [2], timeout=10) == 4
    finally:
        server.shutdown()


def test_server_wires_disk_cache_through_engine(tmp_path):
    cache_dir = tmp_path / "cache"
    with VMServer(parse_module(SOURCE), workers=1, tier="jit",
                  disk_cache=str(cache_dir)) as server:
        server.call("double", [8], timeout=10)
        assert server.engine.disk_cache.stats()["writes"] == 1

    with VMServer(parse_module(SOURCE), workers=1, tier="jit",
                  disk_cache=str(cache_dir)) as warm:
        assert warm.call("double", [8], timeout=10) == 16
        assert warm.engine.disk_cache.stats()["hits"] == 1


# -- socket transport -------------------------------------------------------------


def test_socket_round_trip(tmp_path):
    with make_server() as server:
        path = server.serve_unix(tmp_path / "vm.sock")
        with SocketVMClient(path) as client:
            assert client.call("double", [21]) == 42
            assert client.call("double", [5], tenant="alpha") == 10
            with pytest.raises(ServeError):
                client.call("missing", [])
        assert server.engine.profiler.tenant_snapshot()[
            "alpha"]["double"]["calls"] == 1


def test_socket_file_removed_on_shutdown(tmp_path):
    server = make_server()
    sock_path = tmp_path / "vm.sock"
    server.serve_unix(sock_path)
    assert sock_path.exists()
    server.shutdown()
    assert not sock_path.exists()


def test_in_process_call_and_submit():
    with make_server(workers=1) as server:
        assert server.call("double", [4], timeout=10) == 8
        assert server.submit("double", [5]).result(10) == 10
