"""The pass manager verifies each IR state a pipeline produces once: after
every step that changes the function, or once at the end if none does."""

from collections import Counter

import pytest

from repro.analysis import PreservedAnalyses
from repro.frontend import compile_c
from repro.ir import parse_function
from repro.ir.verifier import VerificationError
from repro.shootout import SUITE
from repro.transform import PIPELINES, PassManager, passmanager

SOURCE = """
define i64 @f(i64 %x) {
entry:
  %y = add i64 %x, 1
  ret i64 %y
}
"""


@pytest.fixture
def verified(monkeypatch):
    """Counts ``verify_function`` calls made by the pass manager, per
    function name."""
    counts = Counter()
    real = passmanager.verify_function

    def counting(func, *args):
        counts[func.name] += 1
        return real(func, *args)

    monkeypatch.setattr(passmanager, "verify_function", counting)
    return counts


def _drop_entry_terminator(func):
    func.blocks[0].terminator.erase_from_parent()


def test_optimized_pipeline_verifies_each_function_state_once(
        monkeypatch, verified):
    bench = SUITE["n-body"]
    module = compile_c(bench.source, module_name=bench.name)
    defined = [f.name for f in module.functions if not f.is_declaration]
    changing = Counter()

    def recording(pass_fn):
        def step(func, am):
            preserved = pass_fn(func, am)
            if not preserved.preserves_all:
                changing[func.name] += 1
            return preserved
        return step

    for name, pass_fn in list(passmanager.PASSES.items()):
        monkeypatch.setitem(passmanager.PASSES, name, recording(pass_fn))
    PassManager.pipeline("optimized").run_module(module)
    assert len(PIPELINES["optimized"]) == 8
    assert len(defined) > 1
    assert verified == Counter({name: max(changing[name], 1)
                                for name in defined})
    # the steps that changed nothing were not verified again
    assert sum(verified.values()) < 8 * len(defined)


def test_a_corrupting_pass_is_named_in_the_error():
    func = parse_function(SOURCE)

    def corrupt(func, am):
        _drop_entry_terminator(func)
        return PreservedAnalyses.none()

    manager = PassManager(["constfold", corrupt, "dce"])
    with pytest.raises(VerificationError) as raised:
        manager.run(func)
    assert raised.value.function is func
    assert "after pass 'corrupt' (step 2 of 3)" in str(raised.value)
    assert "@f" in str(raised.value)


def test_a_pass_that_returns_nothing_is_verified(verified):
    func = parse_function(SOURCE)

    def forgetful(func, am):
        return None

    PassManager([forgetful]).run(func)
    assert verified == Counter({"f": 1})

    def corrupt_silently(func, am):
        _drop_entry_terminator(func)

    with pytest.raises(VerificationError,
                       match="after pass 'corrupt_silently'"):
        PassManager(["dce", corrupt_silently]).run(func)


def test_malformed_input_raises_when_no_step_changes_it(verified):
    func = parse_function(SOURCE)
    _drop_entry_terminator(func)

    def unchanged(func, am):
        return PreservedAnalyses.all()

    with pytest.raises(VerificationError, match="on input"):
        PassManager([unchanged, unchanged]).run(func)
    assert verified == Counter({"f": 1})

