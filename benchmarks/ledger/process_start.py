"""process_start: the cold- and warm-process regime.  Each op is one
child interpreter, timed by the parent from spawn to exit."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path
from typing import Dict, List

from repro.serve import DiskCodeCache
from repro.vm import codegen_function

from .common import build, defined, probe
from .compile_cold import ARGS as TINY
from .harness import Op, OpFailed, Run
from .stats import median

NAME = "process_start"
ARGS = {name: TINY[name]
        for name in ("b-trees", "fannkuch", "n-body", "rev-comp")}
ARMS = ("nocache", "cold", "warm")
CENSUS = {"b-trees": TINY["b-trees"]}
CENSUS_REPS = 5

CHILD = Path(__file__).resolve().parent / "child.py"
#: a child that has not exited by then is a failed op
CHILD_TIMEOUT_S = 10.0


def spawn(name: str, arg: int, cache: str, stages: bool = False
          ) -> subprocess.CompletedProcess:
    command = [sys.executable, str(CHILD), "--program", name,
               "--arg", str(arg), "--cache", cache]
    if stages:
        command.append("--stages")
    # run() kills and reaps the child itself when the timeout expires
    return subprocess.run(command, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)


def parse(name: str, proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise OpFailed(f"child {name} exited {proc.returncode}: "
                       f"{proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def start(run: Run, name: str, arg: int, arm: str, warm_dir: Path) -> None:
    cold_dir = None
    if arm == "nocache":
        cache = "-"
    elif arm == "warm":
        cache = str(warm_dir)
    else:
        cold_dir = run.workdir() / f"cold-{name}"
        shutil.rmtree(cold_dir, ignore_errors=True)
        cache = str(cold_dir)
    tracer = run.tracer
    try:
        proc = run.timed(f"start_{arm}_ms", name,
                         lambda: spawn(name, arg, cache, tracer.enabled))
        out = parse(name, proc)
    finally:
        if cold_dir is not None:
            shutil.rmtree(cold_dir, ignore_errors=True)
    run.expect("shootout", name, arg, out["result"])
    stats = out["diskcache"]
    if arm == "cold" and not (stats["writes"] > 0 and stats["hits"] == 0):
        raise OpFailed(f"cold {name}: expected only writes, got {stats}")
    if arm == "warm" and not (stats["hits"] > 0 and stats["misses"] == 0):
        raise OpFailed(f"warm {name}: expected only hits, got {stats}")
    if run.recording:
        run.counts.setdefault("import_ms", []).append(out["import_ms"])
        if stats is not None:
            run.counts[f"diskcache.{arm}.{name}"] = stats
    if tracer.enabled and "stages" in out:
        _adopt_child_spans(tracer, out)


def _adopt_child_spans(tracer, out: dict) -> None:
    """Place the child's stages inside the parent's span of the op.  The
    two processes share no clock, so the child's timeline is anchored
    with its last reading at the parent's span end (its exit takes
    ~0); interpreter start-up before the child's first reading, and
    the spawn, stay the op's own self time."""
    root = tracer.last_root
    offset = max(root["end"] - out["end"], root["start"])
    for name, begin, end in out["stages"]:
        tracer.add(name, offset + begin, offset + end, root["id"])


def populate(run: Run, name: str, arg: int, warm_dir: Path) -> None:
    """Fill the warm directory, so that a "warm" child only reads."""
    out = parse(name, spawn(name, arg, str(warm_dir)))
    run.expect("shootout", name, arg, out["result"])


def setup(run: Run, inputs: Dict[str, int]) -> List[Op]:
    warm_dir = run.workdir() / "warm"
    shutil.rmtree(warm_dir, ignore_errors=True)
    for name, arg in inputs.items():
        run.warm(partial(populate, name=name, arg=arg, warm_dir=warm_dir))
    return [partial(start, name=name, arg=arg, arm=arm, warm_dir=warm_dir)
            for name, arg in inputs.items() for arm in ARMS]


# -- per-layer --------------------------------------------------------------


def _store(name: str, root: Path):
    _, module = build(name)
    shutil.rmtree(root, ignore_errors=True)
    cache = DiskCodeCache(root)
    pairs = [(f, codegen_function(f)) for f in defined(module)]
    return lambda: [cache.store(f, artifact) for f, artifact in pairs]


def _load(name: str, root: Path):
    _store(name, root)()
    _, module = build(name)
    cache = DiskCodeCache(root)
    return lambda: [cache.load(f, module) for f in defined(module)]


def layers(run: Run, layer_ms, e2e) -> Dict[str, float]:
    root = run.workdir() / "probe"
    out = {
        "python.import_ms": median(run.counts.get("import_ms", [0.0])),
        "serve.diskcache.store_ms": probe(ARGS, lambda n: _store(n, root)),
        "serve.diskcache.load_ms": probe(ARGS, lambda n: _load(n, root)),
        "serve.warm_vs_nocache": (e2e["start_warm_ms"]
                                  / e2e["start_nocache_ms"]),
    }
    writes = hits = misses = 0
    for name in ARGS:
        writes += run.counts[f"diskcache.cold.{name}"]["writes"]
        hits += run.counts[f"diskcache.warm.{name}"]["hits"]
        misses += run.counts[f"diskcache.warm.{name}"]["misses"]
    out["serve.diskcache.writes"] = writes
    out["serve.diskcache.hits"] = hits
    out["serve.diskcache.misses"] = misses
    warm_dir = run.workdir() / "warm"
    out["serve.diskcache.entry_bytes"] = sum(
        entry.stat().st_size for entry in warm_dir.glob("*/*.rpc"))
    return out
