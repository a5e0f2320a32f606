"""Function cloning.

The workhorse of OSR continuation generation: produce a structurally
identical copy of a function, returning the value/block correspondence map
so the caller can remap live variables, redirect the entry point and patch
phis — exactly the CloneFunction + ValueToValueMap workflow OSRKit uses
in LLVM.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..ir.function import BasicBlock, Function, Module
from ..ir.instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    CondBranchInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    IndirectCallInst,
    Instruction,
    LoadInst,
    PhiInst,
    RetInst,
    SelectInst,
    StoreInst,
    SwitchInst,
    UnreachableInst,
)
from ..ir.values import Value


class ValueMap(dict):
    """Old-value -> new-value correspondence produced by cloning.

    A plain ``dict``: IR values hash and compare by identity."""

    #: set when :meth:`lookup` passes through an instruction that has no
    #: copy (yet): a forward reference for the caller to patch
    unresolved = False

    def lookup(self, old: Value) -> Value:
        """Map instruction/argument/block values; pass constants through."""
        mapped = self.get(old)
        if mapped is None:
            if isinstance(old, Instruction):
                self.unresolved = True
            return old
        return mapped


def clone_instruction(inst: Instruction, vmap: ValueMap) -> Instruction:
    """Copy one instruction, remapping operands through ``vmap``.

    Phi incoming entries are remapped for values; incoming *blocks* are
    remapped if present in the map (they will be, when cloning a whole
    function) and left as-is otherwise.
    """
    lookup = vmap.lookup
    if isinstance(inst, BinaryInst):
        return BinaryInst(inst.opcode, lookup(inst.lhs), lookup(inst.rhs),
                          inst.name, inst.flags)
    if isinstance(inst, ICmpInst):
        return ICmpInst(inst.predicate, lookup(inst.lhs), lookup(inst.rhs),
                        inst.name)
    if isinstance(inst, FCmpInst):
        return FCmpInst(inst.predicate, lookup(inst.lhs), lookup(inst.rhs),
                        inst.name)
    if isinstance(inst, SelectInst):
        return SelectInst(lookup(inst.condition), lookup(inst.true_value),
                          lookup(inst.false_value), inst.name)
    if isinstance(inst, AllocaInst):
        return AllocaInst(inst.allocated_type, inst.name, inst.count)
    if isinstance(inst, LoadInst):
        return LoadInst(lookup(inst.pointer), inst.name)
    if isinstance(inst, StoreInst):
        return StoreInst(lookup(inst.value), lookup(inst.pointer))
    if isinstance(inst, GEPInst):
        return GEPInst(lookup(inst.pointer),
                       [lookup(i) for i in inst.indices],
                       inst.name, inst.inbounds)
    if isinstance(inst, CastInst):
        return CastInst(inst.opcode, lookup(inst.value), inst.type, inst.name)
    if isinstance(inst, CallInst):
        return CallInst(lookup(inst.callee), [lookup(a) for a in inst.args],
                        inst.name, inst.is_tail)
    if isinstance(inst, IndirectCallInst):
        return IndirectCallInst(lookup(inst.callee),
                                [lookup(a) for a in inst.args],
                                inst.name, inst.is_tail)
    if isinstance(inst, PhiInst):
        phi = PhiInst(inst.type, inst.name)
        for value, block in inst.incoming:
            phi.add_incoming(lookup(value), lookup(block))
        return phi
    if isinstance(inst, RetInst):
        return RetInst(lookup(inst.value) if inst.value is not None else None)
    if isinstance(inst, CondBranchInst):
        return CondBranchInst(lookup(inst.condition),
                              lookup(inst.true_target),
                              lookup(inst.false_target))
    if isinstance(inst, BranchInst):
        return BranchInst(lookup(inst.target))
    if isinstance(inst, SwitchInst):
        new = SwitchInst(lookup(inst.value), lookup(inst.default))
        for const, block in inst.cases:
            new.add_case(const, lookup(block))
        return new
    if isinstance(inst, UnreachableInst):
        return UnreachableInst()
    raise NotImplementedError(f"cannot clone {type(inst).__name__}")


def clone_function(
    func: Function,
    new_name: str,
    module: Optional[Module] = None,
) -> tuple:
    """Clone ``func`` as ``new_name``; returns ``(clone, vmap)``.

    The clone is added to ``module`` (defaults to the original's module).
    ``vmap`` maps every original argument, block and instruction to its
    copy, which OSR continuation generation then uses to rewire live
    values to continuation-function parameters.
    """
    target_module = module if module is not None else func.module
    clone = Function(func.function_type, new_name,
                     [arg.name for arg in func.args])
    clone.attributes.update(func.attributes)
    if target_module is not None:
        target_module.add_function(clone)

    vmap = ValueMap()
    for old_arg, new_arg in zip(func.args, clone.args):
        vmap[old_arg] = new_arg

    clone_blocks(func.blocks, vmap, clone)
    return clone, vmap


def clone_blocks(blocks: Iterable[BasicBlock], vmap: ValueMap,
                 target: Function) -> None:
    """Append copies of ``blocks`` to ``target`` in one walk.

    ``vmap`` arrives holding whatever the copies may name from outside
    ``blocks`` (arguments, values defined elsewhere) and leaves holding
    every copied block and instruction as well.  A phi incoming from a
    block that is not copied is dropped, so a region closed under
    successors can be cut out of its function.

    Operands usually resolve as the walk reaches them.  The ones that do
    not — a phi's back-edge value, a use laid out above its dominating
    definition — are noted by :attr:`ValueMap.unresolved` and only those
    instructions are patched once the map is complete.
    """
    blocks = list(blocks)
    # create all blocks first so branches and phis can resolve targets
    for block in blocks:
        copy_block = BasicBlock(block.name)
        target.add_block(copy_block)
        vmap[block] = copy_block

    forward = []
    for block in blocks:
        copy_block = vmap[block]
        for inst in block.instructions:
            vmap.unresolved = False
            if inst.is_phi:
                copy = PhiInst(inst.type, inst.name)
                for value, pred in inst.incoming:
                    if pred in vmap:
                        copy.add_incoming(vmap.lookup(value), vmap[pred])
            else:
                copy = clone_instruction(inst, vmap)
            copy_block.append(copy)
            if not inst.type.is_void:
                vmap[inst] = copy
            if vmap.unresolved:
                forward.append(copy)

    for copy in forward:
        for index, op in enumerate(copy.operands):
            mapped = vmap.get(op)
            if mapped is not None:
                copy.set_operand(index, mapped)
