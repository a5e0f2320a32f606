"""Structure guard: one measurement tree, and docs that cite live commands.

The ledger measures (``benchmarks/ledger``, declared by ``BENCHMARK.json``),
``python -m repro.experiments`` regenerates the paper's tables, and the
tier-1 tests assert.  The repository once carried two more benchmark
trees whose documented commands nobody could run and whose CI steps
passed whatever the numbers were; these checks fail when a second tree,
a dead ``make`` target, an unimportable ``python -m`` module or a
subcommand its parser rejects comes back.
"""

import ast
import contextlib
import importlib
import importlib.util
import io
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DOCS = sorted(
    [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
     ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
     *(ROOT / "docs").glob("*.md")]
)


def test_benchmarks_holds_only_the_ledger():
    entries = {path.name for path in (ROOT / "benchmarks").iterdir()
               if path.name != "__pycache__"}
    assert entries == {"__init__.py", "ledger"}


def _makefile_targets():
    text = (ROOT / "Makefile").read_text()
    return set(re.findall(r"^([a-z][a-z0-9-]*):", text, re.MULTILINE))


def _parser_accepts(module: str, word: str) -> bool:
    """Whether ``python -m module word --help`` gets as far as the help:
    argparse rejects an unknown subcommand or target (exit 2) before it
    reaches the option that follows it."""
    main = importlib.import_module(f"{module}.__main__").main
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            main([word, "--help"])
        except SystemExit as done:
            return done.code == 0
    return False


@pytest.mark.parametrize("module, word, accepted", [
    ("repro.obs", "validate", True),
    ("repro.obs", "report", False),  # folded into ``validate``
    ("repro.serve", "smoke", True),
    ("repro.serve", "client", False),
    ("repro.experiments", "ablation", True),
    ("repro.experiments", "q9", False),
], ids=lambda value: value if isinstance(value, str) else None)
def test_parser_accepts_only_live_words(module, word, accepted):
    # the check below can fail: each module's parser tells a live
    # subcommand or target from a dead one
    assert _parser_accepts(module, word) is accepted


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_cited_commands_exist(doc):
    text = doc.read_text()
    # a command is cited in backticks or opens a line of a code block;
    # "make" in the middle of a sentence is English
    cited_targets = set(re.findall(r"(?:^|`)make ([a-z][a-z0-9-]*)", text,
                                   re.MULTILINE))
    assert cited_targets <= _makefile_targets()
    for module in set(re.findall(r"python3? -m\s+([A-Za-z_][\w.]*)", text)):
        assert importlib.util.find_spec(module) is not None, module
    # the word after a command-line module must be a subcommand or target
    # its parser accepts, not only the module an importable one
    for module, word in set(re.findall(
            r"python3? -m\s+(repro\.(?:obs|serve|experiments))[ \t]+"
            r"([a-z][\w-]*)", text)):
        assert _parser_accepts(module, word), f"python -m {module} {word}"


def test_ci_has_one_perf_step():
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    steps = re.split(r"\n\s+- (?=name:|uses:)", text)[1:]
    commands = [step.partition("run:")[2] for step in steps]
    perf = [command.strip() for command in commands
            if re.search(r"benchmarks|ledger", command)]
    assert perf == ["make ledger-smoke"]


def test_verifier_does_not_import_the_analyses():
    # the analyses assume verified input, so the verifier computes its
    # own dominators (its module docstring says why)
    tree = ast.parse(
        (ROOT / "src" / "repro" / "ir" / "verifier.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # ``from ..x import y``, resolved against ``repro.ir``, may
            # name a module in ``x`` or in ``y``
            package = ["repro", "ir"][:3 - node.level] if node.level else []
            module = ".".join(package + [node.module or ""]).strip(".")
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
    assert "repro.ir.function.BasicBlock" in imported
    assert not [name for name in imported
                if (name + ".").startswith("repro.analysis.")]
