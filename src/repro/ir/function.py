"""Basic blocks, functions, and modules.

A :class:`Function` owns an ordered list of :class:`BasicBlock`; each block
owns an ordered list of instructions ending in exactly one terminator.
Blocks are themselves :class:`~repro.ir.values.Value` (of label type) so
branch instructions reference them through ordinary operand slots, which
lets CFG edits reuse the use-def machinery.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .instructions import Instruction, PhiInst, TerminatorInst
from .types import FunctionType, PointerType, Type, label
from .values import Argument, GlobalValue, GlobalVariable, Value


class BasicBlock(Value):
    """A straight-line sequence of instructions with a single terminator."""

    __slots__ = ("parent", "_instructions")

    def __init__(self, name: str = "", parent: Optional["Function"] = None):
        super().__init__(label, name)
        self.parent = parent
        self._instructions: List[Instruction] = []
        if parent is not None:
            parent.add_block(self)

    # -- instruction list ----------------------------------------------------

    @property
    def instructions(self) -> List[Instruction]:
        return list(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(list(self._instructions))

    def __len__(self) -> int:
        return len(self._instructions)

    def append(self, inst: Instruction) -> Instruction:
        if self._instructions and self._instructions[-1].is_terminator:
            raise ValueError(
                f"block {self.name!r} is already terminated; "
                f"cannot append {inst.opcode}"
            )
        self._instructions.append(inst)
        inst.parent = self
        return inst

    def insert(self, index: int, inst: Instruction) -> Instruction:
        self._instructions.insert(index, inst)
        inst.parent = self
        return inst

    def index(self, inst: Instruction, hint: int = 0) -> int:
        """Position of ``inst`` in the block; ``hint`` is tried first."""
        instructions = self._instructions
        if hint < len(instructions) and instructions[hint] is inst:
            return hint
        return instructions.index(inst)

    def insert_before_terminator(self, inst: Instruction) -> Instruction:
        """Insert just before the terminator (block must be terminated)."""
        if not self.is_terminated:
            raise ValueError(f"block {self.name!r} has no terminator")
        return self.insert(len(self._instructions) - 1, inst)

    def remove(self, inst: Instruction) -> None:
        self._instructions.remove(inst)
        inst.parent = None

    def move_tail(self, first: Instruction, target: "BasicBlock") -> None:
        """Move ``first`` and every instruction after it to the end of
        ``target`` (block splitting), in one slice."""
        if target.is_terminated:
            raise ValueError(f"block {target.name!r} is already terminated")
        index = self.index(first)
        tail = self._instructions[index:]
        del self._instructions[index:]
        for inst in tail:
            inst.parent = target
        target._instructions.extend(tail)

    @property
    def terminator(self) -> Optional[TerminatorInst]:
        if self._instructions and self._instructions[-1].is_terminator:
            return self._instructions[-1]  # type: ignore[return-value]
        return None

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    @property
    def phis(self) -> List[PhiInst]:
        out = []
        for inst in self._instructions:
            if not inst.is_phi:
                break
            out.append(inst)
        return out

    @property
    def first_non_phi_index(self) -> int:
        for index, inst in enumerate(self._instructions):
            if not inst.is_phi:
                return index
        return len(self._instructions)

    # -- CFG -----------------------------------------------------------------

    def successors(self) -> List["BasicBlock"]:
        term = self.terminator
        return term.successors() if term is not None else []

    def predecessors(self) -> List["BasicBlock"]:
        """Blocks whose terminator targets this block, in stable order."""
        preds: List[BasicBlock] = []
        seen = set()
        for use in self._uses:
            user = use.user
            if isinstance(user, TerminatorInst) and user.parent is not None:
                pred = user.parent
                if id(pred) not in seen:
                    seen.add(id(pred))
                    preds.append(pred)
        return preds

    def erase_from_parent(self) -> None:
        """Remove this block and drop all its instructions' references."""
        for inst in list(self._instructions):
            inst.erase_from_parent()
        if self.parent is not None:
            self.parent.remove_block(self)

    @property
    def ref(self) -> str:
        return f"%{self.name}" if self.name else "%<block>"

    def __repr__(self) -> str:  # pragma: no cover
        return f"<BasicBlock {self.name!r} ({len(self._instructions)} insts)>"


class Function(GlobalValue):
    """An IR function: a signature plus a list of basic blocks.

    Functions are global values whose *value* type is a pointer to the
    function type, so taking the address of a function (for indirect calls,
    as OSR stubs do) needs no special casing.
    """

    __slots__ = ("function_type", "args", "_blocks", "attributes",
                 "_code_version", "_cached_code")

    def __init__(self, function_type: FunctionType, name: str,
                 arg_names: Optional[Sequence[str]] = None):
        super().__init__(PointerType(function_type), name)
        self.function_type = function_type
        names = list(arg_names) if arg_names is not None else [
            f"arg{i}" for i in range(len(function_type.params))
        ]
        if len(names) != len(function_type.params):
            raise ValueError("argument name count mismatch")
        self.args: List[Argument] = [
            Argument(ty, nm, self, i)
            for i, (ty, nm) in enumerate(zip(function_type.params, names))
        ]
        self._blocks: List[BasicBlock] = []
        #: free-form attribute set ('nocapture', 'readonly', ...)
        self.attributes: Dict[str, object] = {}
        #: monotonically increasing stamp bumped whenever the body is
        #: rewritten (transform passes, OSR instrumentation); execution
        #: tiers key their caches on it
        self._code_version: int = 0
        #: cached tier artifacts (see repro.vm.jit.CompiledCode); validated
        #: against (code_version, code_shape) before reuse
        self._cached_code = None

    # -- declarations vs definitions ------------------------------------------

    @property
    def is_declaration(self) -> bool:
        return not self._blocks

    @property
    def return_type(self) -> Type:
        return self.function_type.return_type

    # -- block list ------------------------------------------------------------

    @property
    def blocks(self) -> List[BasicBlock]:
        return list(self._blocks)

    @property
    def entry(self) -> BasicBlock:
        if not self._blocks:
            raise ValueError(f"function {self.name!r} has no blocks")
        return self._blocks[0]

    def add_block(self, block: BasicBlock, after: Optional[BasicBlock] = None
                  ) -> BasicBlock:
        block.parent = self
        if after is None:
            self._blocks.append(block)
        else:
            self._blocks.insert(self._blocks.index(after) + 1, block)
        return block

    def insert_block_front(self, block: BasicBlock) -> BasicBlock:
        """Make ``block`` the new entry block."""
        block.parent = self
        self._blocks.insert(0, block)
        return block

    def remove_block(self, block: BasicBlock) -> None:
        self._blocks.remove(block)
        block.parent = None

    def get_block(self, name: str) -> BasicBlock:
        for block in self._blocks:
            if block.name == name:
                return block
        raise KeyError(f"no block named {name!r} in @{self.name}")

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(list(self._blocks))

    # -- whole-function iteration ----------------------------------------------

    def instructions(self) -> Iterator[Instruction]:
        for block in self._blocks:
            yield from block.instructions

    @property
    def instruction_count(self) -> int:
        return sum(len(b) for b in self._blocks)

    # -- code versioning ---------------------------------------------------------

    @property
    def code_version(self) -> int:
        """Version stamp for compiled-code caches.

        Bumped by :meth:`bump_code_version` whenever the body is rewritten
        (pass pipelines, OSR instrumentation, engine invalidation).  Tiers
        cache decoded/compiled artifacts keyed on this stamp.
        """
        return self._code_version

    def bump_code_version(self) -> int:
        self._code_version += 1
        return self._code_version

    def code_shape(self) -> Tuple[int, int]:
        """A cheap structural fingerprint: (block count, instruction count).

        Used alongside :attr:`code_version` to invalidate cached code when
        a pass mutated the body without bumping the version explicitly.
        """
        return (len(self._blocks), sum(len(b) for b in self._blocks))

    # -- naming hygiene ----------------------------------------------------------

    def assign_names(self, prefix: str = "t") -> None:
        """Give unique names to unnamed values and deduplicate block names.

        Run before printing or JIT-compiling so every value has a stable,
        unique identifier.
        """
        taken = {arg.name for arg in self.args}
        counter = 0

        def fresh(base: str) -> str:
            nonlocal counter
            candidate = base
            while candidate in taken or not candidate:
                candidate = f"{base}{counter}" if base != prefix else f"{prefix}{counter}"
                counter += 1
            taken.add(candidate)
            return candidate

        for index, block in enumerate(self._blocks):
            if not block.name:
                block.name = f"bb{index}"

        block_names = set()
        for block in self._blocks:
            if block.name in block_names:
                base = block.name
                suffix = 1
                while f"{base}.{suffix}" in block_names:
                    suffix += 1
                block.name = f"{base}.{suffix}"
            block_names.add(block.name)

        for inst in self.instructions():
            if inst.type.is_void:
                continue
            if not inst.name or inst.name in taken:
                inst.name = fresh(inst.name or prefix)
            else:
                taken.add(inst.name)

    def __repr__(self) -> str:  # pragma: no cover
        kind = "declare" if self.is_declaration else "define"
        return f"<Function {kind} @{self.name}>"


class Module:
    """A compilation unit: functions plus global variables."""

    def __init__(self, name: str = "module"):
        self.name = name
        self._functions: Dict[str, Function] = {}
        self._globals: Dict[str, GlobalVariable] = {}

    # -- functions ---------------------------------------------------------------

    @property
    def functions(self) -> List[Function]:
        return list(self._functions.values())

    def add_function(self, func: Function) -> Function:
        if func.name in self._functions:
            raise ValueError(f"duplicate function @{func.name}")
        self._functions[func.name] = func
        func.module = self
        return func

    def get_function(self, name: str) -> Function:
        try:
            return self._functions[name]
        except KeyError:
            raise KeyError(f"no function @{name} in module {self.name!r}") from None

    def has_function(self, name: str) -> bool:
        return name in self._functions

    def remove_function(self, func: Function) -> None:
        del self._functions[func.name]
        func.module = None

    def declare_function(self, name: str, function_type: FunctionType) -> Function:
        """Get-or-create a declaration with the given signature."""
        if name in self._functions:
            existing = self._functions[name]
            if existing.function_type != function_type:
                raise TypeError(
                    f"redeclaration of @{name} with different type"
                )
            return existing
        return self.add_function(Function(function_type, name))

    def unique_name(self, base: str) -> str:
        """Return a function name not yet present in the module."""
        if base not in self._functions:
            return base
        suffix = 1
        while f"{base}.{suffix}" in self._functions:
            suffix += 1
        return f"{base}.{suffix}"

    # -- globals -------------------------------------------------------------------

    @property
    def globals(self) -> List[GlobalVariable]:
        return list(self._globals.values())

    def add_global(self, gv: GlobalVariable) -> GlobalVariable:
        if gv.name in self._globals:
            raise ValueError(f"duplicate global @{gv.name}")
        self._globals[gv.name] = gv
        gv.module = self
        return gv

    def get_global(self, name: str) -> GlobalVariable:
        try:
            return self._globals[name]
        except KeyError:
            raise KeyError(f"no global @{name} in module {self.name!r}") from None

    def has_global(self, name: str) -> bool:
        return name in self._globals

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Module {self.name!r}: {len(self._functions)} functions, "
            f"{len(self._globals)} globals>"
        )
