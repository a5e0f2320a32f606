"""Structure guard: the tier machinery says each thing once.

One dispatcher over one :class:`PublishBox` per function, one
compile-and-publish path on the calling thread, one closure skeleton in
the decoder, one memory access protocol for the compiled tiers, one
vocabulary for the state an OSR edge carries, one continuation store.
Each of these used to exist two to five times, kept in step by hand, and
the copies drifted (a worker that never read the disk cache, an inline
promotion that raised where the background one latched, a deopt
continuation that outlived the arming of its landing version).  These
checks turn a reintroduced second copy into a failure with a file:line
pointer.
"""

import ast
import re
from functools import lru_cache
from pathlib import Path

import repro

SRC_ROOT = Path(repro.__file__).resolve().parent


@lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


def _innermost_sites(path: Path, matches):
    """Names of the innermost functions (methods too) of ``path`` that
    contain a node for which ``matches(node)`` holds."""
    sites = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if owner is not None and owner not in sites and matches(node):
            sites.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(_tree(path), None)
    return sites


def _calls(name: str):
    def matches(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (getattr(func, "id", None) == name
                or getattr(func, "attr", None) == name)
    return matches


def _assigns_box_value(node) -> bool:
    """``<...box>.value = ...`` (boxes are named ``box`` everywhere)."""
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AugAssign) else [])
    return any(isinstance(target, ast.Attribute) and target.attr == "value"
               and "box" in ast.unparse(target.value).lower()
               for target in targets)


def test_one_dispatcher_over_one_box():
    engine = SRC_ROOT / "vm" / "engine.py"
    # the function's one box is made where its one dispatcher is made
    assert _innermost_sites(engine, _calls("PublishBox")) == [
        "_make_dispatcher"]
    # and written by one routine, which both clauses of its contract run
    # (a compile job fills an empty box, speculation republishes over a
    # filled one) and which also re-points every caller at the code
    assert _innermost_sites(engine, _assigns_box_value) == ["_route"]
    assert sorted(_innermost_sites(engine, _calls("_route"))) == [
        "_publish", "republish"]
    for path in sorted(SRC_ROOT.rglob("*.py")):
        if path != engine:
            sites = _innermost_sites(path, _assigns_box_value)
            assert not sites, f"{path.relative_to(SRC_ROOT)}: {sites}"
    defined = {node.name for node in ast.walk(_tree(engine))
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {
        "_make_interp_thunk", "_make_decoded_thunk",
        "_make_tierup_dispatcher", "_tierup_cold_path",
        "_make_speculative_dispatcher", "_promote_inline",
        "_promote_background", "_publish_background",
    }


def test_speculation_keeps_no_call_boundary_target_of_its_own():
    # what calls of a baseline reach lives in its box and nowhere else:
    # no attribute or table entry of the speculation package is bound
    # straight to freshly compiled code (a version's code lives in the
    # engine's store, where an invalidation of the baseline retires it)
    stored = re.compile(r"[\w\]]\s*=\s*compile_function\(")
    offenders = []
    for path in sorted((SRC_ROOT / "spec").glob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            code = line.split("#", 1)[0]
            if stored.search(code) and not re.match(r"\s*\w+\s*=", code):
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert not offenders, "\n".join(offenders)
    from repro.spec.manager import SpecState

    assert "active" not in SpecState.__slots__


def test_speculation_is_one_entry_check():
    # a specialization compares its argument once, at entry, and a miss
    # is an ordinary call: no guard instruction, per-guard frame state,
    # forced failure or deopt-exit hook is defined anywhere
    gone = {"GuardInst", "FrameState", "force_failure", "should_force",
            "deopt_exit", "guard_force_check", "DeoptManager"}
    offenders = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        for node in ast.walk(_tree(path)):
            names = [getattr(node, "name", None)] + [
                target.id for target in getattr(node, "targets", ())
                if isinstance(target, ast.Name)]
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.Assign)):
                offenders += [f"{path.relative_to(SRC_ROOT)}:{node.lineno}"
                              for name in names if name in gone]
    assert not offenders, offenders
    assert not (SRC_ROOT / "spec" / "deopt.py").exists()
    lines = sum(len(path.read_text().splitlines())
                for path in (SRC_ROOT / "spec").glob("*.py"))
    assert lines <= 450, f"spec/ is {lines} lines"


def test_one_continuation_store_owned_by_the_engine():
    # speculation and feval keep no private code caches beside the
    # engine's store, and invalidate() is what retires an entry
    for pattern, paths in (
            (r"\b_continuations\b", (SRC_ROOT / "spec").glob("*.py")),
            (r"\bcode_cache\b", (SRC_ROOT / "mcvm").glob("*.py")),
            (r"\b(external_exit|invalidate_function)\b",
             SRC_ROOT.rglob("*.py"))):
        for path in sorted(paths):
            assert not re.search(pattern, path.read_text()), (
                f"{path.relative_to(SRC_ROOT)}: {pattern}")
    # only the engine touches its compiled map; a FunctionHandle's
    # ``self._compiled`` is the handle's own slot
    runtime = SRC_ROOT / "vm" / "runtime.py"
    offenders = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        if path == SRC_ROOT / "vm" / "engine.py":
            continue
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.Attribute) and node.attr == "_compiled"
                    and not (path == runtime
                             and ast.unparse(node.value) == "self")):
                offenders.append(f"{path.relative_to(SRC_ROOT)}:"
                                 f"{node.lineno}")
    assert not offenders, offenders


def test_one_compile_and_publish_path():
    callers = {}
    for path in sorted(SRC_ROOT.rglob("*.py")):
        for target in ("codegen_function", "acquire_artifact", "_publish"):
            for site in _innermost_sites(path, _calls(target)):
                callers.setdefault(target, set()).add(
                    f"{path.relative_to(SRC_ROOT)}:{site}")
    # code generation is reached through the one acquisition routine ...
    assert callers["codegen_function"] == {"vm/jit.py:acquire_artifact"}
    # ... which a direct compile and the one promote step both go through
    assert callers["acquire_artifact"] == {
        "vm/jit.py:compile_function", "vm/engine.py:_promote"}
    # ... and that promote step is the only way into the engine's publish
    assert callers["_publish"] == {"vm/engine.py:_promote"}


def test_tier_up_compiles_on_the_calling_thread():
    # no compile queue, worker pool or preset that promotes off-thread:
    # the one thread started under src/ is the trace smoke's second
    # caller, which exists to put a second ``tid`` into its trace
    spawns = ("Thread", "ThreadPoolExecutor", "ProcessPoolExecutor",
              "start_new_thread", "Timer")
    sites = set()
    for path in sorted(SRC_ROOT.rglob("*.py")):
        for name in spawns:
            for site in _innermost_sites(path, _calls(name)):
                sites.add(f"{path.relative_to(SRC_ROOT)}:{site}")
    assert sites == {"obs/smoke.py:run_trace_smoke"}, sites
    assert not (SRC_ROOT / "vm" / "background.py").exists()
    import inspect

    import repro.vm as vm
    from repro.vm import TIERS, ExecutionEngine

    for gone in ("CompileQueue", "CompileJob"):
        assert gone not in vm.__all__
        assert not hasattr(vm, gone), gone
    parameters = inspect.signature(ExecutionEngine.__init__).parameters
    assert "compile_queue" not in parameters
    assert TIERS == ("jit", "interp", "decoded", "tiered", "speculative")
    assert all(isinstance(policy.promote, bool)
               for policy in vm.POLICIES.values())
    gone_methods = {"_ensure_bg_queue", "background_queue",
                    "drain_background", "shutdown_background"}
    assert not gone_methods & set(dir(ExecutionEngine))


def test_decoder_has_no_run_time_operand_shape_test():
    text = (SRC_ROOT / "vm" / "decode.py").read_text()
    assert "is not None else frame[" not in text


def test_the_compiled_tiers_leave_the_byte_layout_to_the_runtime():
    # decoded closures and JIT'd code index a buffer's typed views
    # (``runtime.bind_view`` off the fast path) and call the oracle's
    # accessors for the rest, so neither names a struct codec or a
    # buffer's bytes: not in its own code, not in the source it builds
    codec = re.compile(r"\b(struct|unpack\w*|pack_into)\b|\.data\b")
    offenders = []
    for name in ("decode.py", "jit.py"):
        tree = _tree(SRC_ROOT / "vm" / name)
        docstrings = {
            id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [
                    alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr, "." + node.attr]
            elif (isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in docstrings):
                names = [node.value, "." + node.value]
            else:
                continue
            if any(codec.search(text) for text in names):
                offenders.append(f"{name}:{node.lineno}: {names[0]!r}")
    assert not offenders, offenders


def test_jit_stamps_locations_at_construction():
    # ``ast.fix_missing_locations`` is a recursive pure-Python walk of
    # the finished tree, 45 % of codegen when it was last there; nodes
    # take ``**_LOC`` from their constructor helper instead
    assert "fix_missing_locations" not in (
        SRC_ROOT / "vm" / "jit.py").read_text()


def test_one_jit_emitter():
    # structured emission is the only form: the block-dispatch emitter and
    # its abandoned-attempt protocol are gone, and what does not nest runs
    # on the tree-walker rather than in a second emitter
    jit = SRC_ROOT / "vm" / "jit.py"
    defined = {node.name for node in ast.walk(_tree(jit))
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_dispatch_body", "_goto", "_compile_block",
                          "_compile_switch", "_reset"}
    assert not re.search(r"\b(_block_ids|_chained|_chain_stack|_forced)\b",
                         jit.read_text())
    from repro.vm.jit import CompiledCode

    assert "fallback" not in CompiledCode.__slots__


def test_one_vocabulary_for_what_crosses_an_osr_edge():
    # a state mapping is a dict and a frame state a tuple: the classes
    # that encoded them, and the version manager nothing reached, are gone
    for gone in ("core/statemap.py", "spec/framestate.py",
                 "core/multiversion.py"):
        assert not (SRC_ROOT / gone).exists(), gone
    # IR values hash by identity, so no map along the way keys by id()
    for module in ("core/continuation.py", "core/autostate.py",
                   "transform/clone.py"):
        assert not re.search(r"\bid\(", (SRC_ROOT / module).read_text()), (
            module)
    # one routine gives a landing block its second way in; the only other
    # SSA repair in core is the hot counter's phi
    sites = {f"{path.name}:{site}"
             for path in sorted((SRC_ROOT / "core").glob("*.py"))
             for site in _innermost_sites(path, _calls("SSAUpdater"))}
    assert sites == {"conditions.py:emit", "continuation.py:join_landing"}


def test_an_osr_condition_overrides_emit_and_nothing_else():
    # prepare()/finalize() existed so the hot counter could be spilled to
    # a slot and lifted back by a mem2reg run; a condition that wants
    # state places it in SSA form from emit()
    from repro.core import conditions

    surface = {name for name, member in vars(conditions.OSRCondition).items()
               if callable(member) and not name.startswith("__")}
    assert surface == {"emit"}
    for node in ast.walk(_tree(SRC_ROOT / "core" / "conditions.py")):
        if isinstance(node, ast.ClassDef) and node.name != "OSRCondition":
            methods = {item.name for item in node.body
                       if isinstance(item, ast.FunctionDef)}
            assert methods <= {"__init__", "emit"}, (node.name, methods)


def test_nothing_kept_that_only_its_own_cli_ran():
    # the sampling profiler, the stats JSON and the in-process client
    # veneer had no caller outside their own CLI and tests; a thunk's
    # stamped ``co_name`` now serves tracebacks and debuggers alone
    assert not (SRC_ROOT / "obs" / "profiler.py").exists()
    gone = re.compile(r"\b(SamplingProfiler|classify_frame|stats_document"
                      r"|write_stats_json|VMClient)\b")
    for path in sorted(SRC_ROOT.rglob("*.py")):
        match = gone.search(path.read_text())
        assert match is None, (
            f"{path.relative_to(SRC_ROOT)}: {match and match.group()}")


def _buffer_mutations():
    """``(file, owner, what)`` for each place in ``src/`` that rebinds a
    buffer's ``data`` or ``freed``, changes the bytes' length or
    writes a slice of them, makes or releases a view, or sets a view
    slot; ``owner`` is the enclosing ``Class.function``."""
    resizing = {"extend", "append", "insert", "pop", "remove", "clear"}
    found = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        def visit(node, owner, cls):
            if isinstance(node, ast.ClassDef):
                cls = node.name
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = f"{cls}.{node.name}" if cls else node.name
            targets = []
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                kind = type(node).__name__
                if (isinstance(target, ast.Attribute)
                        and (target.attr in ("data", "freed", "views")
                             or target.attr.startswith("view_"))):
                    found.append((path.name, owner,
                                  f"{kind} {ast.unparse(target)}"))
                if (isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Attribute)
                        and target.value.attr == "data"
                        and isinstance(target.slice, ast.Slice)):
                    found.append((path.name, owner, f"{kind} data[:]"))
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr",
                                                            None)
                if name in ("memoryview", "release"):
                    found.append((path.name, owner, name))
                if (isinstance(func, ast.Attribute) and name in resizing
                        and getattr(func.value, "attr", None) == "data"):
                    found.append((path.name, owner, f"data.{name}"))
                if name == "setattr" and len(node.args) > 1:
                    attr = getattr(node.args[1], "value", None)
                    if (path.parent.name == "vm" if attr is None else
                            attr in ("data", "freed", "views")
                            or str(attr).startswith("view_")):
                        found.append((path.name, owner, "setattr"))
            for child in ast.iter_child_nodes(node):
                visit(child, owner, cls)

        visit(_tree(path), None, None)
    return found


def test_buffer_data_is_bound_only_in_init():
    # JIT'd code keeps the typed views of an addressed pointer's buffer
    # in locals for the rest of the function: sound only while nothing
    # rebinds a MemoryBuffer's ``data``, changes its length or makes a
    # second view of it.  So ``data`` is bound in ``__init__``; a slice
    # of its bytes is written only by the bounds-checked ``write``, and
    # nothing deletes one; only ``runtime.free`` marks a buffer freed and
    # releases its views; and its one accessor ``view`` makes them
    allowed = {
        ("runtime.py", "MemoryBuffer.__init__", "Assign self.data"),
        ("runtime.py", "MemoryBuffer.__init__", "Assign self.freed"),
        ("runtime.py", "free", "Assign buf.freed"),
        ("runtime.py", "free", "release"),
        ("runtime.py", "MemoryBuffer.write", "Assign data[:]"),
        ("runtime.py", "MemoryBuffer.view", "memoryview"),
        ("runtime.py", "MemoryBuffer.view", "AugAssign self.views"),
        ("runtime.py", "MemoryBuffer.view", "setattr"),
        # a view made after a racing ``free`` looked is released here
        ("runtime.py", "MemoryBuffer.view", "release"),
    }
    # (an IR constant's own ``data``, in its ``__init__``, is no buffer's)
    found = [entry for entry in _buffer_mutations()
             if entry[2] != "Assign self.data"
             or entry[1] == "MemoryBuffer.__init__"
             or not entry[1].endswith(".__init__")]
    assert not set(found) - allowed, sorted(set(found) - allowed)
    # each allowed site is still there: the rule is not vacuous
    assert {entry for entry in found if entry in allowed} == allowed


def test_the_engine_serves_one_caller():
    # one host embeds the engine: no request server, socket transport or
    # per-tenant profile scope is defined anywhere, and the serve package
    # is the disk cache and its smoke CLI
    gone = {"VMServer", "SocketVMClient", "PendingRequest", "tenant_scope",
            "tenant_snapshot", "current_tenant"}
    offenders = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        for node in ast.walk(_tree(path)):
            where = f"{path.relative_to(SRC_ROOT)}:{getattr(node, 'lineno', 0)}"
            if (isinstance(node, (ast.ClassDef, ast.FunctionDef))
                    and node.name in gone):
                offenders.append(f"{where}: {node.name}")
            if isinstance(node, ast.Import) and any(
                    alias.name == "socket" for alias in node.names):
                offenders.append(f"{where}: import socket")
    assert not offenders, offenders
    lines = sum(len(path.read_text().splitlines())
                for path in (SRC_ROOT / "serve").glob("*.py"))
    assert lines <= 400, f"serve/ is {lines} lines"


def test_one_analysis_manager_and_no_unset_settings():
    """The settings no caller set are gone: every insertion, continuation
    and pass pipeline is verified, every consumer reads the process-wide
    analysis manager, and no tier bounds a run's steps."""
    import inspect

    import repro.vm as vm
    from repro import core
    from repro.analysis import default_manager
    from repro.mcvm import IIRCompiler
    from repro.transform import PassManager
    from repro.vm import POLICIES, ExecutionEngine, Interpreter
    from repro.vm.decode import DecodedFunction

    def parameters(function):
        return set(inspect.signature(function).parameters)

    assert not {"interp_step_limit", "analysis_manager"} & parameters(
        ExecutionEngine.__init__)
    assert "step_limit" not in parameters(Interpreter.__init__)
    assert parameters(DecodedFunction.run_counted) == {"self", "args",
                                                       "profile"}
    assert "analysis_manager" not in parameters(IIRCompiler.__init__)
    for name in ("open_osr_point", "insert_resolved_osr_point",
                 "insert_open_osr_point", "remove_osr_point",
                 "insert_mcosr_point", "generate_continuation",
                 "required_landing_state", "derive_state_mapping"):
        taken = parameters(getattr(core, name))
        assert "am" not in taken and "verify" not in taken, name
    assert "verify" in parameters(core.close_osr_point)
    assert parameters(core.HotCounterCondition.__init__) == {"self",
                                                             "threshold"}
    assert all(policy._fields == ("baseline", "promote", "speculate")
               for policy in POLICIES.values())
    assert not hasattr(vm, "StepLimitExceeded")
    assert "verify" not in parameters(PassManager.__init__)
    assert "verify" not in parameters(PassManager.pipeline)
    assert ExecutionEngine(repro.ir.Module("m")).analysis is default_manager()
