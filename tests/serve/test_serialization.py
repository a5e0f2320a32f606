"""Artifact serialization: the audit, round trips, and determinism."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.ir import parse_module
from repro.ir import types as T
from repro.vm import ExecutionEngine
from repro.vm.jit import (
    ArtifactFormatError,
    UnserializableArtifact,
    audit_bindings,
    codegen_function,
    deserialize_artifact,
    serialize_artifact,
)

from ..vm.test_jit_codegen import NESTED_BREAK_CONTINUE, dispatches

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

CALLER = """
define i64 @callee(i64 %x) {
entry:
  %r = add i64 %x, 1
  ret i64 %r
}

define i64 @caller(i64 %x) {
entry:
  %r = call i64 @callee(i64 %x)
  ret i64 %r
}
"""


# -- the audit (satellite: fail fast on unserializable bindings) ------------------


def test_audit_accepts_marshalable_bindings():
    module = parse_module(CALLER)
    artifact = codegen_function(module.get_function("caller"))
    audit_bindings(artifact.bindings)  # must not raise


def test_audit_rejects_resolve_handles():
    # ("resolve", n) bakes an engine-session object-table slot: valid
    # only inside the process that created it, so the audit must refuse
    # it loudly instead of letting marshal write a meaningless integer
    with pytest.raises(UnserializableArtifact) as excinfo:
        audit_bindings({"stub": ("resolve", 7)})
    message = str(excinfo.value)
    assert "stub" in message
    assert "object-table" in message


def test_audit_rejects_non_marshalable_static_value():
    class Opaque:
        pass

    with pytest.raises(UnserializableArtifact) as excinfo:
        audit_bindings({"ok": ("static", 42),
                        "bad": ("static", Opaque())})
    message = str(excinfo.value)
    assert "bad" in message and "ok" not in message


def test_audit_rejects_unknown_kind():
    with pytest.raises(UnserializableArtifact):
        audit_bindings({"weird": ("mystery",)})


def test_audit_reports_every_problem_at_once():
    class Opaque:
        pass

    with pytest.raises(UnserializableArtifact) as excinfo:
        audit_bindings({"one": ("resolve", 1),
                        "two": ("static", Opaque())})
    message = str(excinfo.value)
    assert "one" in message and "two" in message


# -- round trips ------------------------------------------------------------------


def test_serialize_round_trip_preserves_semantics():
    module = parse_module(CHAIN)
    func = module.get_function("chain")
    artifact = codegen_function(func)
    payload = serialize_artifact(func, artifact)

    fresh_module = parse_module(CHAIN)
    fresh = fresh_module.get_function("chain")
    restored = deserialize_artifact(payload, fresh_module)
    assert restored.matches(fresh)

    engine = ExecutionEngine(fresh_module, tier="jit")
    fresh._cached_code = restored
    assert engine.run("chain", 4) == (4 + 10) * 3


def test_round_trip_restores_handle_bindings():
    module = parse_module(CALLER)
    caller = module.get_function("caller")
    payload = serialize_artifact(caller, codegen_function(caller))

    fresh_module = parse_module(CALLER)
    restored = deserialize_artifact(payload, fresh_module)
    fresh_module.get_function("caller")._cached_code = restored
    engine = ExecutionEngine(fresh_module, tier="jit")
    assert engine.run("caller", 41) == 42


def test_deserialize_rejects_garbage():
    module = parse_module(CHAIN)
    with pytest.raises(ArtifactFormatError):
        deserialize_artifact(b"not an artifact", module)


def test_deserialize_rejects_wrong_format_version():
    import marshal

    module = parse_module(CHAIN)
    func = module.get_function("chain")
    payload = serialize_artifact(func, codegen_function(func))
    doc = marshal.loads(payload)
    doc["format"] = 999
    with pytest.raises(ArtifactFormatError):
        deserialize_artifact(marshal.dumps(doc), module)


def test_deserialize_rejects_dangling_function_reference():
    module = parse_module(CALLER)
    caller = module.get_function("caller")
    payload = serialize_artifact(caller, codegen_function(caller))
    # a module that lacks @callee cannot satisfy the handle binding
    with pytest.raises(ArtifactFormatError):
        deserialize_artifact(payload, parse_module(CHAIN))


# -- determinism (satellite: byte-identical across fresh processes) ---------------

_DIGEST_SCRIPT = textwrap.dedent("""
    import hashlib, sys
    from repro.ir import parse_module
    from repro.vm.jit import codegen_function, serialize_artifact

    source = sys.stdin.read()
    module = parse_module(source)
    func = module.get_function(sys.argv[1])
    payload = serialize_artifact(func, codegen_function(func))
    print(hashlib.sha256(payload).hexdigest())
""")


def _subprocess_digest(source: str, name: str) -> str:
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "random"  # determinism must not lean on hashing
    result = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT, name], input=source,
        capture_output=True, text=True, env=env, check=True)
    return result.stdout.strip()


#: a loop nest with two ``break`` edges and a merge: the structured
#: emitter's layout reads the loop forest and the dominator tree, and no
#: set's iteration order (block addresses differ per process) may reach it
LOOP_NEST = NESTED_BREAK_CONTINUE


@pytest.mark.parametrize("source, name", [(CHAIN, "chain"),
                                          (LOOP_NEST, "f")])
def test_serialized_artifact_is_deterministic_across_processes(source, name):
    digests = {_subprocess_digest(source, name) for _ in range(2)}
    assert len(digests) == 1
    # and the parent process agrees with the children
    module = parse_module(source)
    func = module.get_function(name)
    assert not dispatches(codegen_function(func).source)
    payload = serialize_artifact(func, codegen_function(func))
    assert hashlib.sha256(payload).hexdigest() == digests.pop()
