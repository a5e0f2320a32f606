"""pytest wiring for the ledger's self-test.

    python -m pytest benchmarks/ledger -q            # helpers, seconds
    python -m pytest benchmarks/ledger -q --smoke    # + every workload once
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)


def pytest_addoption(parser):
    parser.addoption("--smoke", action="store_true", default=False,
                     help="also run every ledger workload at one repetition")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--smoke"):
        return
    skip = pytest.mark.skip(reason="needs --smoke")
    for item in items:
        if "smoke" in item.keywords:
            item.add_marker(skip)


def pytest_configure(config):
    config.addinivalue_line("markers", "smoke: runs a whole workload")
