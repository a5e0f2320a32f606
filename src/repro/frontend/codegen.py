"""Code generation: mini-C AST → repro IR.

Generates clang -O0-style code: every local lives in an entry-block
alloca, expressions load/store through it.  The paper's "unoptimized"
configuration then runs mem2reg only; the "optimized" configuration runs
the -O1-like pipeline (see :mod:`repro.transform.passmanager`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir import types as T
from ..ir.builder import IRBuilder
from ..ir.function import BasicBlock, Function, Module
from ..ir.instructions import AllocaInst
from ..ir.types import FunctionType
from ..ir.values import (
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    ConstantString,
    GlobalVariable,
    Value,
)
from ..ir.verifier import verify_module
from . import cast as C
from .parser import parse_c


class CodegenError(Exception):
    def __init__(self, message: str, line: int = 0):
        prefix = f"line {line}: " if line else ""
        super().__init__(f"{prefix}{message}")


#: builtin functions available without declaration (resolved to VM natives)
BUILTINS: Dict[str, Tuple[C.CType, List[C.CType]]] = {
    "malloc": (C.CType("char", 1), [C.CType("long")]),
    "free": (C.CType("void"), [C.CType("char", 1)]),
    "memcpy": (C.CType("char", 1),
               [C.CType("char", 1), C.CType("char", 1), C.CType("long")]),
    "memset": (C.CType("char", 1),
               [C.CType("char", 1), C.CType("long"), C.CType("long")]),
    "putchar": (C.CType("int"), [C.CType("int")]),
    "puts": (C.CType("int"), [C.CType("char", 1)]),
    "print_i64": (C.CType("void"), [C.CType("long")]),
    "print_f64": (C.CType("void"), [C.CType("double")]),
    "sqrt": (C.CType("double"), [C.CType("double")]),
    "sin": (C.CType("double"), [C.CType("double")]),
    "cos": (C.CType("double"), [C.CType("double")]),
    "exp": (C.CType("double"), [C.CType("double")]),
    "log": (C.CType("double"), [C.CType("double")]),
    "pow": (C.CType("double"), [C.CType("double"), C.CType("double")]),
    "floor": (C.CType("double"), [C.CType("double")]),
    "fabs": (C.CType("double"), [C.CType("double")]),
}

_BASE_TYPES = {
    "long": T.i64,
    "unsigned": T.i64,
    "int": T.i32,
    "char": T.i8,
    "double": T.f64,
    "float": T.f32,
    "void": T.void,
}

#: integer rank for usual arithmetic conversions
_RANK = {"char": 0, "int": 1, "long": 2, "unsigned": 2}


def lower_type(ctype: C.CType) -> T.Type:
    base = _BASE_TYPES[ctype.base]
    if ctype.pointers:
        if base.is_void:
            base = T.i8  # void* is modelled as char*
        ty: T.Type = base
        for _ in range(ctype.pointers):
            ty = T.ptr(ty)
        return ty
    return base


class _LocalVar:
    __slots__ = ("ctype", "slot", "is_array", "element")

    def __init__(self, ctype: C.CType, slot: Value, is_array: bool = False):
        self.ctype = ctype
        self.slot = slot
        self.is_array = is_array


class CodeGenerator:
    """Translates one mini-C program into an IR module."""

    def __init__(self, module_name: str = "cmodule"):
        self.module = Module(module_name)
        self._globals: Dict[str, Tuple[C.CType, GlobalVariable, bool]] = {}
        self._signatures: Dict[str, Tuple[C.CType, List[C.CType]]] = {}
        self._string_counter = 0
        # per-function state
        self.builder = IRBuilder()
        self._locals_stack: List[Dict[str, _LocalVar]] = []
        self._function: Optional[Function] = None
        self._return_ctype: Optional[C.CType] = None
        self._break_targets: List[BasicBlock] = []
        self._continue_targets: List[BasicBlock] = []
        #: where the next local's alloca goes in the entry block
        self._alloca_index = 0

    # -- program -------------------------------------------------------------------

    def generate(self, program: C.Program) -> Module:
        for gd in program.globals:
            self._declare_global(gd)
        for fd in program.functions:
            self._declare_function(fd)
        for fd in program.functions:
            if fd.body is not None:
                self._generate_function(fd)
        verify_module(self.module)
        return self.module

    def _declare_global(self, gd: C.GlobalDecl) -> None:
        if gd.array_size is not None:
            value_type = T.array(gd.array_size, lower_type(gd.type))
            init = None
            if isinstance(gd.init, bytes):
                data = gd.init + b"\x00"
                if len(data) > gd.array_size:
                    raise CodegenError("string longer than array", gd.line)
                data = data + b"\x00" * (gd.array_size - len(data))
                init = ConstantString(value_type, data)
            gv = GlobalVariable(value_type, gd.name, init)
            self._globals[gd.name] = (gd.type, gv, True)
        else:
            value_type = lower_type(gd.type)
            init = self._constant_init(gd.type, gd.init, gd.line)
            gv = GlobalVariable(value_type, gd.name, init)
            self._globals[gd.name] = (gd.type, gv, False)
        self.module.add_global(gv)

    def _constant_init(self, ctype: C.CType, init, line: int):
        if init is None:
            ty = lower_type(ctype)
            if isinstance(ty, T.IntType):
                return ConstantInt(ty, 0)
            if isinstance(ty, T.FloatType):
                return ConstantFloat(ty, 0.0)
            if isinstance(ty, T.PointerType):
                return ConstantNull(ty)
            raise CodegenError(f"cannot zero-init {ctype}", line)
        if isinstance(init, C.IntLit):
            ty = lower_type(ctype)
            if isinstance(ty, T.FloatType):
                return ConstantFloat(ty, float(init.value))
            return ConstantInt(ty, init.value)
        if isinstance(init, C.FloatLit):
            return ConstantFloat(lower_type(ctype), init.value)
        if isinstance(init, C.Unary) and init.op == "-":
            inner = self._constant_init(ctype, init.operand, line)
            if isinstance(inner, ConstantInt):
                return ConstantInt(inner.type, -inner.value)
            return ConstantFloat(inner.type, -inner.value)
        raise CodegenError("global initializer must be a constant", line)

    def _declare_function(self, fd: C.FuncDef) -> None:
        param_ctypes = [p.type for p in fd.params]
        self._signatures[fd.name] = (fd.return_type, param_ctypes)
        fnty = FunctionType(
            lower_type(fd.return_type),
            [lower_type(t) for t in param_ctypes],
        )
        if not self.module.has_function(fd.name):
            self.module.add_function(
                Function(fnty, fd.name, [p.name for p in fd.params])
            )

    def _ensure_builtin(self, name: str, line: int) -> Function:
        if name not in BUILTINS:
            raise CodegenError(f"unknown function {name!r}", line)
        ret, params = BUILTINS[name]
        self._signatures[name] = (ret, params)
        fnty = FunctionType(lower_type(ret), [lower_type(p) for p in params])
        return self.module.declare_function(name, fnty)

    # -- functions --------------------------------------------------------------------

    def _generate_function(self, fd: C.FuncDef) -> None:
        func = self.module.get_function(fd.name)
        self._function = func
        self._return_ctype = fd.return_type
        self._locals_stack = [{}]
        entry = BasicBlock("entry", func)
        self.builder.position_at_end(entry)
        # spill parameters into allocas (clang -O0 style)
        for param, arg in zip(fd.params, func.args):
            slot = self.builder.alloca(arg.type, f"{arg.name}.addr")
            self.builder.store(arg, slot)
            self._locals_stack[0][param.name] = _LocalVar(param.type, slot)
        self._alloca_index = len(entry.instructions)
        self._gen_block(fd.body)
        # implicit return on fall-through
        if not self.builder.block.is_terminated:
            if fd.return_type.is_void:
                self.builder.ret_void()
            else:
                ty = lower_type(fd.return_type)
                if isinstance(ty, T.FloatType):
                    self.builder.ret(ConstantFloat(ty, 0.0))
                elif isinstance(ty, T.PointerType):
                    self.builder.ret(ConstantNull(ty))
                else:
                    self.builder.ret(ConstantInt(ty, 0))
        # drop blocks that ended up unreachable and unterminated (e.g. code
        # after return inside a loop)
        for block in func.blocks:
            if not block.is_terminated:
                IRBuilder(block).unreachable()
        self._function = None

    # -- scope helpers ------------------------------------------------------------------

    def _lookup(self, name: str, line: int) -> _LocalVar:
        for scope in reversed(self._locals_stack):
            if name in scope:
                return scope[name]
        raise CodegenError(f"undefined variable {name!r}", line)

    def _try_lookup(self, name: str) -> Optional[_LocalVar]:
        for scope in reversed(self._locals_stack):
            if name in scope:
                return scope[name]
        return None

    def _new_block(self, name: str) -> BasicBlock:
        block = BasicBlock(name)
        self._function.add_block(block)
        return block

    # -- statements ------------------------------------------------------------------------

    def _gen_block(self, block: C.Block) -> None:
        self._locals_stack.append({})
        for stmt in block.statements:
            self._gen_statement(stmt)
        self._locals_stack.pop()

    def _gen_statement(self, stmt: C.Stmt) -> None:
        if self.builder.block.is_terminated:
            # unreachable statement (code after return/break); emit into a
            # fresh dead block so declarations still typecheck
            dead = self._new_block("dead")
            self.builder.position_at_end(dead)
        if isinstance(stmt, C.Block):
            self._gen_block(stmt)
        elif isinstance(stmt, C.VarDecl):
            self._gen_var_decl(stmt)
        elif isinstance(stmt, C.ExprStmt):
            self._gen_expr(stmt.expr)
        elif isinstance(stmt, C.If):
            self._gen_if(stmt)
        elif isinstance(stmt, C.While):
            self._gen_while(stmt)
        elif isinstance(stmt, C.DoWhile):
            self._gen_do_while(stmt)
        elif isinstance(stmt, C.For):
            self._gen_for(stmt)
        elif isinstance(stmt, C.Return):
            self._gen_return(stmt)
        elif isinstance(stmt, C.Break):
            if not self._break_targets:
                raise CodegenError("break outside loop", stmt.line)
            self.builder.br(self._break_targets[-1])
        elif isinstance(stmt, C.Continue):
            if not self._continue_targets:
                raise CodegenError("continue outside loop", stmt.line)
            self.builder.br(self._continue_targets[-1])
        else:
            raise CodegenError(f"cannot generate {type(stmt).__name__}",
                               stmt.line)

    def _entry_alloca(self, ty: T.Type, name: str) -> AllocaInst:
        """Every local's slot lives in the entry block, wherever it is
        declared (clang -O0 style): it is allocated once per call and
        mem2reg / scalarize, which only look there, can promote it.  The
        initialising store stays at the declaration."""
        slot = AllocaInst(ty, name=name)
        self._function.entry.insert(self._alloca_index, slot)
        self._alloca_index += 1
        return slot

    def _gen_var_decl(self, decl: C.VarDecl) -> None:
        if decl.array_size is not None:
            elem_ty = lower_type(decl.type)
            slot = self._entry_alloca(
                T.array(decl.array_size, elem_ty), decl.name
            )
            var = _LocalVar(decl.type.pointer_to(), slot, is_array=True)
            self._locals_stack[-1][decl.name] = var
            if decl.init is not None:
                raise CodegenError("array initializers are not supported",
                                   decl.line)
            return
        ty = lower_type(decl.type)
        slot = self._entry_alloca(ty, decl.name)
        self._locals_stack[-1][decl.name] = _LocalVar(decl.type, slot)
        if decl.init is not None:
            value, vtype = self._gen_expr(decl.init)
            value = self._convert(value, vtype, decl.type, decl.line)
            self.builder.store(value, slot)

    def _gen_if(self, stmt: C.If) -> None:
        cond = self._gen_condition(stmt.cond)
        then_block = self._new_block("if.then")
        merge_block = self._new_block("if.end")
        else_block = merge_block
        if stmt.otherwise is not None:
            else_block = self._new_block("if.else")
        self.builder.cond_br(cond, then_block, else_block)

        self.builder.position_at_end(then_block)
        self._gen_statement(stmt.then)
        if not self.builder.block.is_terminated:
            self.builder.br(merge_block)

        if stmt.otherwise is not None:
            self.builder.position_at_end(else_block)
            self._gen_statement(stmt.otherwise)
            if not self.builder.block.is_terminated:
                self.builder.br(merge_block)

        self.builder.position_at_end(merge_block)

    def _gen_while(self, stmt: C.While) -> None:
        cond_block = self._new_block("while.cond")
        body_block = self._new_block("while.body")
        end_block = self._new_block("while.end")
        self.builder.br(cond_block)

        self.builder.position_at_end(cond_block)
        cond = self._gen_condition(stmt.cond)
        self.builder.cond_br(cond, body_block, end_block)

        self.builder.position_at_end(body_block)
        self._break_targets.append(end_block)
        self._continue_targets.append(cond_block)
        self._gen_statement(stmt.body)
        self._break_targets.pop()
        self._continue_targets.pop()
        if not self.builder.block.is_terminated:
            self.builder.br(cond_block)

        self.builder.position_at_end(end_block)

    def _gen_do_while(self, stmt: C.DoWhile) -> None:
        body_block = self._new_block("do.body")
        cond_block = self._new_block("do.cond")
        end_block = self._new_block("do.end")
        self.builder.br(body_block)

        self.builder.position_at_end(body_block)
        self._break_targets.append(end_block)
        self._continue_targets.append(cond_block)
        self._gen_statement(stmt.body)
        self._break_targets.pop()
        self._continue_targets.pop()
        if not self.builder.block.is_terminated:
            self.builder.br(cond_block)

        self.builder.position_at_end(cond_block)
        cond = self._gen_condition(stmt.cond)
        self.builder.cond_br(cond, body_block, end_block)

        self.builder.position_at_end(end_block)

    def _gen_for(self, stmt: C.For) -> None:
        self._locals_stack.append({})
        if stmt.init is not None:
            self._gen_statement(stmt.init)
        cond_block = self._new_block("for.cond")
        body_block = self._new_block("for.body")
        step_block = self._new_block("for.step")
        end_block = self._new_block("for.end")
        self.builder.br(cond_block)

        self.builder.position_at_end(cond_block)
        if stmt.cond is not None:
            cond = self._gen_condition(stmt.cond)
            self.builder.cond_br(cond, body_block, end_block)
        else:
            self.builder.br(body_block)

        self.builder.position_at_end(body_block)
        self._break_targets.append(end_block)
        self._continue_targets.append(step_block)
        self._gen_statement(stmt.body)
        self._break_targets.pop()
        self._continue_targets.pop()
        if not self.builder.block.is_terminated:
            self.builder.br(step_block)

        self.builder.position_at_end(step_block)
        if stmt.step is not None:
            self._gen_expr(stmt.step)
        self.builder.br(cond_block)

        self.builder.position_at_end(end_block)
        self._locals_stack.pop()

    def _gen_return(self, stmt: C.Return) -> None:
        if stmt.value is None:
            if not self._return_ctype.is_void:
                raise CodegenError("missing return value", stmt.line)
            self.builder.ret_void()
            return
        value, vtype = self._gen_expr(stmt.value)
        value = self._convert(value, vtype, self._return_ctype, stmt.line)
        self.builder.ret(value)

    # -- expressions ------------------------------------------------------------------------

    def _gen_condition(self, expr: C.Expr) -> Value:
        """Evaluate an expression as an i1 truth value.  A comparison,
        ``&&``, ``||`` or ``!`` is branched on directly, with no
        ``zext i32`` / ``icmp ne 0`` round trip."""
        value, ctype = self._gen_raw(expr)
        return self._truthy(value, ctype)

    def _truthy(self, value: Value, ctype: C.CType) -> Value:
        if value.type == T.i1:
            return value
        if ctype.is_pointer:
            null = ConstantNull(value.type)
            return self.builder.icmp("ne", value, null, "tobool")
        if ctype.is_float:
            zero = ConstantFloat(value.type, 0.0)
            return self.builder.fcmp("one", value, zero, "tobool")
        zero = ConstantInt(value.type, 0)
        return self.builder.icmp("ne", value, zero, "tobool")

    def _gen_expr(self, expr: C.Expr) -> Tuple[Value, C.CType]:
        """Evaluate an expression; returns (IR value, C type)."""
        value, ctype = self._gen_raw(expr)
        if value.type == T.i1:  # a truth value used as an int
            value = self.builder.zext(value, T.i32, f"{value.name}.ext")
        return value, ctype

    def _gen_raw(self, expr: C.Expr) -> Tuple[Value, C.CType]:
        """As :meth:`_gen_expr`, except that comparisons and logical
        operators return their ``i1`` (with C type ``int``) unwidened."""
        if isinstance(expr, C.IntLit):
            if -(1 << 31) <= expr.value < (1 << 31):
                return ConstantInt(T.i64, expr.value), C.CType("long")
            return ConstantInt(T.i64, expr.value), C.CType("long")
        if isinstance(expr, C.FloatLit):
            return ConstantFloat(T.f64, expr.value), C.CType("double")
        if isinstance(expr, C.StringLit):
            return self._gen_string(expr)
        if isinstance(expr, C.Var):
            return self._gen_var_read(expr)
        if isinstance(expr, C.Unary):
            return self._gen_unary(expr)
        if isinstance(expr, C.Binary):
            return self._gen_binary(expr)
        if isinstance(expr, C.Assign):
            return self._gen_assign(expr)
        if isinstance(expr, C.Ternary):
            return self._gen_ternary(expr)
        if isinstance(expr, C.Call):
            return self._gen_call(expr)
        if isinstance(expr, C.Index):
            address, ctype = self._gen_index_address(expr)
            return self.builder.load(address), ctype
        if isinstance(expr, C.CastExpr):
            value, vtype = self._gen_expr(expr.operand)
            return (
                self._convert(value, vtype, expr.target, expr.line,
                              explicit=True),
                expr.target,
            )
        if isinstance(expr, C.SizeOf):
            size = T.size_of(lower_type(expr.target))
            return ConstantInt(T.i64, size), C.CType("long")
        raise CodegenError(f"cannot generate {type(expr).__name__}",
                           expr.line)

    def _gen_string(self, expr: C.StringLit) -> Tuple[Value, C.CType]:
        data = expr.value + b"\x00"
        name = f".str{self._string_counter}"
        self._string_counter += 1
        gv = GlobalVariable(
            T.array(len(data), T.i8), name,
            ConstantString(T.array(len(data), T.i8), data),
            is_constant=True,
        )
        self.module.add_global(gv)
        pointer = self.builder.gep(gv, [0, 0], "str")
        return pointer, C.CType("char", 1)

    def _gen_var_read(self, expr: C.Var) -> Tuple[Value, C.CType]:
        var = self._try_lookup(expr.name)
        if var is not None:
            if var.is_array:
                pointer = self.builder.gep(var.slot, [0, 0], expr.name)
                return pointer, var.ctype
            return self.builder.load(var.slot, expr.name), var.ctype
        if expr.name in self._globals:
            ctype, gv, is_array = self._globals[expr.name]
            if is_array:
                pointer = self.builder.gep(gv, [0, 0], expr.name)
                return pointer, ctype.pointer_to()
            return self.builder.load(gv, expr.name), ctype
        raise CodegenError(f"undefined variable {expr.name!r}", expr.line)

    # -- lvalues -----------------------------------------------------------------------------

    def _gen_address(self, expr: C.Expr) -> Tuple[Value, C.CType]:
        """Address of an lvalue; returns (pointer value, pointee C type)."""
        if isinstance(expr, C.Var):
            var = self._try_lookup(expr.name)
            if var is not None:
                if var.is_array:
                    raise CodegenError("cannot assign to an array",
                                       expr.line)
                return var.slot, var.ctype
            if expr.name in self._globals:
                ctype, gv, is_array = self._globals[expr.name]
                if is_array:
                    raise CodegenError("cannot assign to an array",
                                       expr.line)
                return gv, ctype
            raise CodegenError(f"undefined variable {expr.name!r}", expr.line)
        if isinstance(expr, C.Index):
            return self._gen_index_address(expr)
        if isinstance(expr, C.Unary) and expr.op == "*":
            value, ctype = self._gen_expr(expr.operand)
            if not ctype.is_pointer:
                raise CodegenError("cannot dereference non-pointer",
                                   expr.line)
            return value, ctype.pointee()
        raise CodegenError("expression is not an lvalue", expr.line)

    def _gen_index_address(self, expr: C.Index) -> Tuple[Value, C.CType]:
        base, btype = self._gen_expr(expr.base)
        if not btype.is_pointer:
            raise CodegenError("cannot index non-pointer", expr.line)
        index, itype = self._gen_expr(expr.index)
        index = self._to_i64(index, itype, expr.line)
        address = self.builder.gep(base, [index], "idx", inbounds=True)
        return address, btype.pointee()

    # -- operators ----------------------------------------------------------------------------

    def _gen_unary(self, expr: C.Unary) -> Tuple[Value, C.CType]:
        op = expr.op
        if op == "-":
            value, ctype = self._gen_expr(expr.operand)
            if ctype.is_float:
                return self.builder.fneg(value, "neg"), ctype
            return self.builder.neg(value, "neg"), ctype
        if op == "!":
            truth = self._gen_condition(expr.operand)
            flipped = self.builder.xor(truth, ConstantInt(T.i1, 1), "lnot")
            return flipped, C.CType("int")
        if op == "~":
            value, ctype = self._gen_expr(expr.operand)
            return self.builder.not_(value, "not"), ctype
        if op == "*":
            value, ctype = self._gen_expr(expr.operand)
            if not ctype.is_pointer:
                raise CodegenError("cannot dereference non-pointer",
                                   expr.line)
            return self.builder.load(value, "deref"), ctype.pointee()
        if op == "&":
            address, ctype = self._gen_address(expr.operand)
            return address, ctype.pointer_to()
        if op in ("++", "--", "p++", "p--"):
            return self._gen_incdec(expr)
        raise CodegenError(f"unknown unary operator {op!r}", expr.line)

    def _gen_incdec(self, expr: C.Unary) -> Tuple[Value, C.CType]:
        address, ctype = self._gen_address(expr.operand)
        old = self.builder.load(address, "incdec.old")
        delta = 1 if expr.op in ("++", "p++") else -1
        if ctype.is_pointer:
            new = self.builder.gep(old, [ConstantInt(T.i64, delta)],
                                   "incdec.ptr", inbounds=True)
        elif ctype.is_float:
            new = self.builder.fadd(old, ConstantFloat(old.type, float(delta)),
                                    "incdec.new")
        else:
            new = self.builder.add(old, ConstantInt(old.type, delta),
                                   "incdec.new")
        self.builder.store(new, address)
        if expr.op.startswith("p"):
            return old, ctype
        return new, ctype

    def _gen_binary(self, expr: C.Binary) -> Tuple[Value, C.CType]:
        op = expr.op
        if op == "&&":
            return self._gen_logical(expr, is_and=True)
        if op == "||":
            return self._gen_logical(expr, is_and=False)
        if op == ",":
            self._gen_expr(expr.lhs)
            return self._gen_expr(expr.rhs)

        lhs, ltype = self._gen_expr(expr.lhs)
        rhs, rtype = self._gen_expr(expr.rhs)

        # the integer literal 0 compares against pointers as NULL
        if (ltype.is_pointer and isinstance(rhs, ConstantInt)
                and rhs.value == 0 and op in ("==", "!=")):
            rhs, rtype = ConstantNull(lhs.type), ltype
        elif (rtype.is_pointer and isinstance(lhs, ConstantInt)
                and lhs.value == 0 and op in ("==", "!=")):
            lhs, ltype = ConstantNull(rhs.type), rtype

        # pointer arithmetic
        if ltype.is_pointer and op in ("+", "-") and not rtype.is_pointer:
            offset = self._to_i64(rhs, rtype, expr.line)
            if op == "-":
                offset = self.builder.neg(offset, "ptr.negoff")
            return (
                self.builder.gep(lhs, [offset], "ptr.add", inbounds=True),
                ltype,
            )
        if rtype.is_pointer and op == "+" and not ltype.is_pointer:
            offset = self._to_i64(lhs, ltype, expr.line)
            return (
                self.builder.gep(rhs, [offset], "ptr.add", inbounds=True),
                rtype,
            )
        if ltype.is_pointer and rtype.is_pointer:
            if op in ("==", "!=", "<", "<=", ">", ">="):
                pred = {"==": "eq", "!=": "ne", "<": "ult", "<=": "ule",
                        ">": "ugt", ">=": "uge"}[op]
                return self.builder.icmp(pred, lhs, rhs, "cmp"), C.CType("int")
            raise CodegenError(f"unsupported pointer operation {op!r}",
                               expr.line)

        # usual arithmetic conversions
        lhs, rhs, common = self._usual_conversions(lhs, ltype, rhs, rtype,
                                                   expr.line)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            if common.is_float:
                pred = {"==": "oeq", "!=": "one", "<": "olt", "<=": "ole",
                        ">": "ogt", ">=": "oge"}[op]
                result = self.builder.fcmp(pred, lhs, rhs, "cmp")
            else:
                pred = {"==": "eq", "!=": "ne", "<": "slt", "<=": "sle",
                        ">": "sgt", ">=": "sge"}[op]
                result = self.builder.icmp(pred, lhs, rhs, "cmp")
            return result, C.CType("int")

        if common.is_float:
            opcode = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv",
                      "%": "frem"}.get(op)
            if opcode is None:
                raise CodegenError(f"invalid float operation {op!r}",
                                   expr.line)
            method = getattr(self.builder, opcode)
            return method(lhs, rhs, opcode), common
        opcode = {"+": "add", "-": "sub", "*": "mul", "/": "sdiv",
                  "%": "srem", "&": "and_", "|": "or_", "^": "xor",
                  "<<": "shl", ">>": "ashr"}.get(op)
        if opcode is None:
            raise CodegenError(f"invalid integer operation {op!r}", expr.line)
        method = getattr(self.builder, opcode)
        return method(lhs, rhs, "b" + opcode.rstrip("_")), common

    def _gen_logical(self, expr: C.Binary, is_and: bool) -> Tuple[Value, C.CType]:
        lhs_cond = self._gen_condition(expr.lhs)
        lhs_block = self.builder.block
        rhs_block = self._new_block("land.rhs" if is_and else "lor.rhs")
        merge = self._new_block("land.end" if is_and else "lor.end")
        if is_and:
            self.builder.cond_br(lhs_cond, rhs_block, merge)
        else:
            self.builder.cond_br(lhs_cond, merge, rhs_block)

        self.builder.position_at_end(rhs_block)
        rhs_cond = self._gen_condition(expr.rhs)
        rhs_end = self.builder.block
        self.builder.br(merge)

        self.builder.position_at_end(merge)
        phi = self.builder.phi(T.i1, "logic")
        phi.add_incoming(ConstantInt(T.i1, 0 if is_and else 1), lhs_block)
        phi.add_incoming(rhs_cond, rhs_end)
        return phi, C.CType("int")

    def _gen_ternary(self, expr: C.Ternary) -> Tuple[Value, C.CType]:
        cond = self._gen_condition(expr.cond)
        then_block = self._new_block("cond.true")
        else_block = self._new_block("cond.false")
        merge = self._new_block("cond.end")
        self.builder.cond_br(cond, then_block, else_block)

        self.builder.position_at_end(then_block)
        tvalue, ttype = self._gen_expr(expr.if_true)
        then_end = self.builder.block

        self.builder.position_at_end(else_block)
        fvalue, ftype = self._gen_expr(expr.if_false)
        else_end = self.builder.block

        # unify arms
        if ttype != ftype:
            common = self._common_type(ttype, ftype, expr.line)
            self.builder.position_at_end(then_end)
            tvalue = self._convert(tvalue, ttype, common, expr.line)
            self.builder.position_at_end(else_end)
            fvalue = self._convert(fvalue, ftype, common, expr.line)
            ttype = common
        self.builder.position_at_end(then_end)
        self.builder.br(merge)
        self.builder.position_at_end(else_end)
        self.builder.br(merge)

        self.builder.position_at_end(merge)
        phi = self.builder.phi(tvalue.type, "cond.val")
        phi.add_incoming(tvalue, then_end)
        phi.add_incoming(fvalue, else_end)
        return phi, ttype

    def _gen_assign(self, expr: C.Assign) -> Tuple[Value, C.CType]:
        address, ctype = self._gen_address(expr.target)
        if expr.op == "=":
            value, vtype = self._gen_expr(expr.value)
            value = self._convert(value, vtype, ctype, expr.line)
            self.builder.store(value, address)
            return value, ctype
        # compound assignment: a op= b  ==>  a = a op b
        base_op = expr.op[:-1]
        synthetic = C.Binary(base_op, expr.target, expr.value, expr.line)
        value, vtype = self._gen_binary(synthetic)
        value = self._convert(value, vtype, ctype, expr.line)
        self.builder.store(value, address)
        return value, ctype

    def _gen_call(self, expr: C.Call) -> Tuple[Value, C.CType]:
        if expr.name in self._signatures:
            ret_ctype, param_ctypes = self._signatures[expr.name]
            callee = self.module.get_function(expr.name)
        else:
            callee = self._ensure_builtin(expr.name, expr.line)
            ret_ctype, param_ctypes = self._signatures[expr.name]
        if len(expr.args) != len(param_ctypes):
            raise CodegenError(
                f"{expr.name} expects {len(param_ctypes)} args, "
                f"got {len(expr.args)}", expr.line,
            )
        args: List[Value] = []
        for arg_expr, param_ctype in zip(expr.args, param_ctypes):
            value, vtype = self._gen_expr(arg_expr)
            args.append(self._convert(value, vtype, param_ctype, expr.line))
        name = "" if ret_ctype.is_void else "call"
        result = self.builder.call(callee, args, name)
        return result, ret_ctype

    # -- conversions ---------------------------------------------------------------------------

    def _to_i64(self, value: Value, ctype: C.CType, line: int) -> Value:
        return self._convert(value, ctype, C.CType("long"), line)

    def _common_type(self, a: C.CType, b: C.CType, line: int) -> C.CType:
        if a.is_pointer or b.is_pointer:
            if a.is_pointer and b.is_pointer:
                return a
            raise CodegenError("cannot unify pointer and scalar", line)
        if a.is_float or b.is_float:
            return C.CType("double")
        # C's integer promotions: arithmetic never happens below int rank
        winner = a if _RANK[a.base] >= _RANK[b.base] else b
        if _RANK[winner.base] < _RANK["int"]:
            return C.CType("int")
        return winner

    def _usual_conversions(self, lhs: Value, ltype: C.CType, rhs: Value,
                           rtype: C.CType, line: int):
        common = self._common_type(ltype, rtype, line)
        lhs = self._convert(lhs, ltype, common, line)
        rhs = self._convert(rhs, rtype, common, line)
        return lhs, rhs, common

    def _convert(self, value: Value, from_type: C.CType, to_type: C.CType,
                 line: int, explicit: bool = False) -> Value:
        if from_type == to_type:
            return value
        src = lower_type(from_type)
        dst = lower_type(to_type)
        if src == dst:
            return value
        # constant folding of the common literal cases keeps IR readable
        if isinstance(value, ConstantInt):
            if isinstance(dst, T.IntType):
                return ConstantInt(dst, value.value)
            if isinstance(dst, T.FloatType):
                return ConstantFloat(dst, float(value.value))
            if isinstance(dst, T.PointerType) and value.value == 0:
                return ConstantNull(dst)  # assigning/passing literal NULL
        if isinstance(value, ConstantFloat) and isinstance(dst, T.FloatType):
            return ConstantFloat(dst, value.value)

        if isinstance(src, T.IntType) and isinstance(dst, T.IntType):
            if dst.bits > src.bits:
                return self.builder.sext(value, dst, "conv")
            return self.builder.trunc(value, dst, "conv")
        if isinstance(src, T.IntType) and isinstance(dst, T.FloatType):
            return self.builder.sitofp(value, dst, "conv")
        if isinstance(src, T.FloatType) and isinstance(dst, T.IntType):
            return self.builder.fptosi(value, dst, "conv")
        if isinstance(src, T.FloatType) and isinstance(dst, T.FloatType):
            opcode = "fpext" if dst.bits > src.bits else "fptrunc"
            return self.builder.cast(opcode, value, dst, "conv")
        if isinstance(src, T.PointerType) and isinstance(dst, T.PointerType):
            return self.builder.bitcast(value, dst, "conv")
        raise CodegenError(f"cannot convert {from_type} to {to_type}", line)


def compile_c(source: str, module_name: str = "cmodule") -> Module:
    """Compile mini-C source text into a verified IR module."""
    program = parse_c(source)
    return CodeGenerator(module_name).generate(program)
