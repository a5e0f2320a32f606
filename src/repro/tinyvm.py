"""TinyVM — an interactive shell over the whole stack.

The paper's artifact is *tinyvm*, "a proof-of-concept virtual machine"
for experimenting with OSRKit interactively.  This module reproduces that
experience: load IR or mini-C modules, inspect functions, insert OSR
points, call functions, and watch transitions fire.

Run ``python -m repro.tinyvm`` for a REPL, or drive it programmatically::

    vm = TinyVM()
    vm.execute("load_ir examples/loop.ll")
    vm.execute("insert_osr 1000 hot_loop loop")
    print(vm.execute("hot_loop(100000)"))

Commands::

    load_ir <file>            parse an IR file into the session module
    load_c <file>             compile a mini-C file
    load_matlab <file>        load MATLAB-subset functions (run via mcvm_run)
    show_funs                 list functions
    show <fn>                 print a function's IR
    show_jit <fn>             print the Python the JIT emits for a function
    show_blocks <fn>          list a function's basic blocks
    insert_osr <t> <fn> <b>   resolved OSR to a clone at block <b>, threshold <t>
    insert_open_osr <t> <fn> <b>   open OSR (clone generator) at block <b>
    remove_osr <fn>           de-instrument the last OSR point of <fn>
    opt <fn> [pipeline]       run 'unoptimized' or 'optimized' pipeline
    verify                    verify every function in the module
    stats                     engine statistics (compiles, calls)
    mcvm_run <fn> <args...>   run a loaded MATLAB function (@name for handles)
    <fn>(<args>)              call an IR function (ints/floats)
    help / quit
"""

from __future__ import annotations

import re
import shlex
from typing import Dict, List, Optional

from .core import (
    HotCounterCondition,
    generate_continuation,
    insert_open_osr_point,
    insert_resolved_osr_point,
    remove_osr_point,
    required_landing_state,
)
from .frontend import compile_c
from .ir import Module, parse_module, print_function, verify_module
from .ir.function import Function
from .transform import PassManager
from .vm import ExecutionEngine, compile_function


class TinyVMError(Exception):
    pass


_CALL_RE = re.compile(r"^\s*([A-Za-z_][\w.]*)\s*\((.*)\)\s*$")


class TinyVM:
    """A stateful interactive session."""

    def __init__(self) -> None:
        self.module = Module("tinyvm")
        self.engine = ExecutionEngine(self.module)
        self.osr_points: Dict[str, list] = {}
        self.mcvm = None

    # -- command dispatch -----------------------------------------------------

    def execute(self, line: str) -> str:
        """Execute one command line; returns the textual response."""
        line = line.strip()
        if not line or line.startswith("#"):
            return ""
        call = _CALL_RE.match(line)
        if call and not line.split()[0] in _COMMANDS:
            return self._call(call.group(1), call.group(2))
        parts = shlex.split(line)
        command, args = parts[0].lower(), parts[1:]
        handler = _COMMANDS.get(command)
        if handler is None:
            raise TinyVMError(
                f"unknown command {command!r} (try 'help')"
            )
        return handler(self, args)

    # -- loading ----------------------------------------------------------------

    def _merge(self, incoming: Module) -> List[str]:
        names = []
        for gv in incoming.globals:
            if not self.module.has_global(gv.name):
                gv.module = None
                self.module.add_global(gv)
        for func in incoming.functions:
            if self.module.has_function(func.name):
                raise TinyVMError(f"@{func.name} already loaded")
            func.module = None
            self.module.add_function(func)
            names.append(func.name)
        return names

    def cmd_load_ir(self, args: List[str]) -> str:
        if len(args) != 1:
            raise TinyVMError("usage: load_ir <file>")
        with open(args[0]) as fh:
            incoming = parse_module(fh.read())
        names = self._merge(incoming)
        return f"loaded {len(names)} function(s): {', '.join(names)}"

    def cmd_load_c(self, args: List[str]) -> str:
        if len(args) != 1:
            raise TinyVMError("usage: load_c <file>")
        with open(args[0]) as fh:
            incoming = compile_c(fh.read())
        names = self._merge(incoming)
        return f"compiled {len(names)} function(s): {', '.join(names)}"

    def cmd_load_matlab(self, args: List[str]) -> str:
        if len(args) != 1:
            raise TinyVMError("usage: load_matlab <file>")
        from .mcvm import McVM

        with open(args[0]) as fh:
            self.mcvm = McVM(fh.read(), enable_osr=True)
        names = ", ".join(self.mcvm.functions)
        return f"loaded MATLAB functions: {names} (run with mcvm_run)"

    # -- inspection ----------------------------------------------------------------

    def _function(self, name: str) -> Function:
        if not self.module.has_function(name):
            raise TinyVMError(f"no function @{name} (see show_funs)")
        return self.module.get_function(name)

    def cmd_show_funs(self, args: List[str]) -> str:
        rows = []
        for func in self.module.functions:
            kind = "declare" if func.is_declaration else "define"
            rows.append(f"{kind}  @{func.name}  {func.function_type}")
        return "\n".join(rows) if rows else "(no functions loaded)"

    def cmd_show(self, args: List[str]) -> str:
        if len(args) != 1:
            raise TinyVMError("usage: show <function>")
        return print_function(self._function(args[0]))

    def cmd_show_jit(self, args: List[str]) -> str:
        if len(args) != 1:
            raise TinyVMError("usage: show_jit <function>")
        func = self._function(args[0])
        if func.is_declaration:
            raise TinyVMError(f"@{func.name} is a declaration: no body")
        compiled = compile_function(func, self.engine)
        reason = getattr(compiled, "__jit_fallback__", None)
        if reason is not None:
            return f"runs on the tree-walker: {reason}"
        return compiled.__ir_source__()

    def cmd_show_blocks(self, args: List[str]) -> str:
        if len(args) != 1:
            raise TinyVMError("usage: show_blocks <function>")
        func = self._function(args[0])
        return "\n".join(
            f"%{b.name}  ({len(b)} instructions)" for b in func.blocks
        )

    # -- OSR ---------------------------------------------------------------------------

    def _location(self, func: Function, block_name: str):
        block = func.get_block(block_name)
        return block.instructions[block.first_non_phi_index]

    def cmd_insert_osr(self, args: List[str]) -> str:
        if len(args) != 3:
            raise TinyVMError("usage: insert_osr <threshold> <fn> <block>")
        threshold = int(args[0])
        func = self._function(args[1])
        location = self._location(func, args[2])
        point = insert_resolved_osr_point(
            func, location, HotCounterCondition(threshold),
            engine=self.engine,
        )
        self.osr_points.setdefault(func.name, []).append(point)
        return (
            f"resolved OSR point in @{func.name} at %{args[2]} "
            f"(threshold {threshold}); continuation "
            f"@{point.continuation.name}"
        )

    def cmd_insert_open_osr(self, args: List[str]) -> str:
        if len(args) != 3:
            raise TinyVMError(
                "usage: insert_open_osr <threshold> <fn> <block>"
            )
        threshold = int(args[0])
        func = self._function(args[1])
        location = self._location(func, args[2])
        module = self.module
        env: dict = {"live": None}

        def clone_generator(f, block, _env, val):
            live = env["live"]
            by_name = {v.name: i for i, v in enumerate(live)}
            mapping = {v: by_name[v.name]
                       for v in required_landing_state(f, block)}
            cont = generate_continuation(
                f, block, live, mapping,
                name=module.unique_name(f"{f.name}to"), module=module,
            )
            print(f"[tinyvm] open OSR fired in @{f.name}; generated "
                  f"@{cont.name}")
            return cont

        point = insert_open_osr_point(
            func, location, HotCounterCondition(threshold),
            clone_generator, self.engine, env=env,
        )
        env["live"] = point.live_values
        self.osr_points.setdefault(func.name, []).append(point)
        return (
            f"open OSR point in @{func.name} at %{args[2]} "
            f"(threshold {threshold}); stub @{point.stub.name}"
        )

    def cmd_remove_osr(self, args: List[str]) -> str:
        if len(args) != 1:
            raise TinyVMError("usage: remove_osr <fn>")
        points = self.osr_points.get(args[0])
        if not points:
            raise TinyVMError(f"@{args[0]} has no OSR points")
        remove_osr_point(points.pop(), engine=self.engine)
        return f"removed the most recent OSR point of @{args[0]}"

    # -- pipeline / engine ------------------------------------------------------------------

    def cmd_opt(self, args: List[str]) -> str:
        if not 1 <= len(args) <= 2:
            raise TinyVMError("usage: opt <fn> [unoptimized|optimized]")
        func = self._function(args[0])
        pipeline = args[1] if len(args) == 2 else "optimized"
        before = func.instruction_count
        PassManager.pipeline(pipeline).run(func)
        self.engine.invalidate(func)
        return (
            f"@{func.name}: {before} -> {func.instruction_count} "
            f"instructions ({pipeline})"
        )

    def cmd_verify(self, args: List[str]) -> str:
        verify_module(self.module)
        count = sum(1 for f in self.module.functions
                    if not f.is_declaration)
        return f"{count} function(s) verified OK"

    def cmd_stats(self, args: List[str]) -> str:
        lines = [f"functions compiled: {self.engine.compile_count}"]
        for name, count in sorted(self.engine.call_counts.items()):
            lines.append(f"  calls via engine @{name}: {count}")
        return "\n".join(lines)

    def cmd_mcvm_run(self, args: List[str]) -> str:
        if self.mcvm is None:
            raise TinyVMError("no MATLAB module loaded (load_matlab)")
        if not args:
            raise TinyVMError("usage: mcvm_run <fn> <args...>")
        values = [a if a.startswith("@") else float(a) for a in args[1:]]
        result = self.mcvm.run(args[0], *values)
        return repr(result)

    def cmd_help(self, args: List[str]) -> str:
        return __doc__.split("Commands::", 1)[1].strip()

    def cmd_quit(self, args: List[str]) -> str:
        raise EOFError

    # -- calls --------------------------------------------------------------------------------

    def _call(self, name: str, arg_text: str) -> str:
        func = self._function(name)
        args = []
        arg_text = arg_text.strip()
        if arg_text:
            for piece in arg_text.split(","):
                piece = piece.strip()
                args.append(float(piece) if ("." in piece or "e" in piece)
                            else int(piece, 0))
        result = self.engine.run(name, *args)
        return repr(result)


_COMMANDS = {
    "load_ir": TinyVM.cmd_load_ir,
    "load_c": TinyVM.cmd_load_c,
    "load_matlab": TinyVM.cmd_load_matlab,
    "show_funs": TinyVM.cmd_show_funs,
    "show": TinyVM.cmd_show,
    "show_jit": TinyVM.cmd_show_jit,
    "show_blocks": TinyVM.cmd_show_blocks,
    "insert_osr": TinyVM.cmd_insert_osr,
    "insert_open_osr": TinyVM.cmd_insert_open_osr,
    "remove_osr": TinyVM.cmd_remove_osr,
    "opt": TinyVM.cmd_opt,
    "verify": TinyVM.cmd_verify,
    "stats": TinyVM.cmd_stats,
    "mcvm_run": TinyVM.cmd_mcvm_run,
    "help": TinyVM.cmd_help,
    "quit": TinyVM.cmd_quit,
    "exit": TinyVM.cmd_quit,
}


def main() -> None:  # pragma: no cover - interactive loop
    vm = TinyVM()
    print("tinyvm — OSRKit playground (type 'help' for commands)")
    while True:
        try:
            line = input("tinyvm> ")
        except (EOFError, KeyboardInterrupt):
            print()
            break
        try:
            output = vm.execute(line)
        except EOFError:
            break
        except (TinyVMError, Exception) as exc:  # noqa: BLE001
            output = f"error: {exc}"
        if output:
            print(output)


if __name__ == "__main__":  # pragma: no cover
    main()
