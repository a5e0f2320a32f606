"""A ``jit`` process imports only what it runs.

The package surfaces keep their ``__all__``, but the submodules a
``tier="jit"`` run from mini-C source to result never uses load on
first access, and the engine loads the other tiers' machinery only when
a policy first needs it.  Each check runs in a fresh interpreter, since
this one has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: what a process_start child imports, then b-trees at a tiny argument
JIT_RUN = """
import json, sys
from repro.frontend import compile_c
from repro.shootout import SUITE
from repro.transform import PassManager
from repro.vm import ExecutionEngine
cache = None
if len(sys.argv) > 1:
    from repro.serve import DiskCodeCache
    cache = DiskCodeCache(sys.argv[1])
bench = SUITE["b-trees"]
module = compile_c(bench.source, module_name=bench.name)
PassManager.pipeline("optimized").run_module(module)
engine = ExecutionEngine(module, tier="jit", disk_cache=cache)
print(json.dumps({"result": engine.run(bench.entry, 3),
                  "modules": sorted(m for m in sys.modules
                                    if m.startswith("repro"))}))
"""

#: loaded by the tiers, readers and tools a ``jit`` run never reaches
NEVER_IN_A_JIT_RUN = {
    "repro.ir.parser", "repro.ir.printer",
    "repro.vm.decode", "repro.vm.interpreter", "repro.vm.background",
    "repro.obs.export", "repro.obs.journey",
    "repro.transform.clone", "repro.transform.inline",
    "repro.transform.ssaupdater",
    "repro.core", "repro.spec", "repro.serve.server",
}

LAZY_PACKAGES = ("repro.ir", "repro.obs", "repro.vm", "repro.transform",
                 "repro.serve")


def _python(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def _jit_run(*args: str) -> dict:
    out = json.loads(_python(JIT_RUN, *args))
    from repro.shootout import SUITE, compile_benchmark
    from repro.vm import ExecutionEngine

    bench = SUITE["b-trees"]
    oracle = ExecutionEngine(compile_benchmark(bench), tier="interp")
    assert out["result"] == oracle.run(bench.entry, 3)
    return out


def test_a_jit_run_loads_no_other_tier():
    loaded = set(_jit_run()["modules"])
    assert not loaded & NEVER_IN_A_JIT_RUN, sorted(loaded & NEVER_IN_A_JIT_RUN)
    assert len(loaded) <= 44, len(loaded)


def test_a_disk_cache_does_not_load_the_serving_loop(tmp_path):
    loaded = set(_jit_run(str(tmp_path / "cache"))["modules"])
    assert "repro.serve.diskcache" in loaded
    assert not loaded & {"repro.serve.server", "repro.serve.client"}


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_exported_name_resolves(package):
    # a fresh interpreter per package: ``import *`` first, then getattr,
    # so both reach the lazy names before anything else has loaded them
    checked = _python(f"""
import importlib
namespace = {{}}
exec("from {package} import *", namespace)
pkg = importlib.import_module("{package}")
missing = [n for n in pkg.__all__ if n not in namespace]
assert not missing, missing
for name in pkg.__all__:
    assert getattr(pkg, name) is namespace[name], name
    assert name in vars(pkg), name  # bound for later lookups
print(len(pkg.__all__))
""")
    assert int(checked) > 0


def test_an_unknown_name_is_still_an_attribute_error():
    import repro.vm

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.vm.no_such_name


def test_one_trap_class():
    import repro.vm
    import repro.vm.interpreter
    import repro.vm.runtime

    assert repro.vm.Trap is repro.vm.runtime.Trap
    assert repro.vm.runtime.Trap is repro.vm.interpreter.Trap
