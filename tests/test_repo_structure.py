"""Structure guard: one measurement tree, and docs that cite live commands.

The ledger measures (``benchmarks/ledger``, declared by ``BENCHMARK.json``),
``python -m repro.experiments`` regenerates the paper's tables, and the
tier-1 tests assert.  The repository once carried two more benchmark
trees whose documented commands nobody could run and whose CI steps
passed whatever the numbers were; these checks fail when a second tree,
a dead ``make`` target or an unimportable ``python -m`` module comes back.
"""

import importlib.util
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


def test_ci_has_one_perf_step():
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    steps = re.split(r"\n\s+- (?=name:|uses:)", text)[1:]
    commands = [step.partition("run:")[2] for step in steps]
    perf = [command.strip() for command in commands
            if re.search(r"benchmarks|ledger", command)]
    assert perf == ["make ledger-smoke"]
