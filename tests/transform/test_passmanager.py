"""The pass manager verifies after every pass of a pipeline."""

from collections import Counter

from repro.frontend import compile_c
from repro.shootout import SUITE
from repro.transform import PIPELINES, PassManager, passmanager


def test_optimized_pipeline_verifies_each_function_after_each_pass(
        monkeypatch):
    bench = SUITE["n-body"]
    module = compile_c(bench.source, module_name=bench.name)
    defined = [f.name for f in module.functions if not f.is_declaration]
    verified = Counter()
    real = passmanager.verify_function

    def counting(func, *args):
        verified[func.name] += 1
        return real(func, *args)

    monkeypatch.setattr(passmanager, "verify_function", counting)
    PassManager.pipeline("optimized").run_module(module)
    assert len(PIPELINES["optimized"]) == 8
    assert len(defined) > 1
    assert verified == Counter({name: 8 for name in defined})
