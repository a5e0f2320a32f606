"""IIR → IR compiler for the mini-McVM.

Lowers a type-inferred IIR function to repro IR.  Storage model: every
MATLAB variable gets one entry-block alloca whose IR type follows its
inferred class — ``f64`` for DOUBLE, ``i8*`` for HANDLE/BOXED.  DOUBLE
code uses fast float instructions; BOXED code calls the generic ``mc_*``
runtime (the paper's "slow generic instructions").

The compiler records the artifacts the feval machinery needs (paper
component 2, "track the variable map between IIR and IR objects"):

* ``var_slots`` — IIR variable name → alloca;
* ``loop_headers`` — IIR loop id → IR loop-header block (the OSR landing
  correlation).

mem2reg is *not* run here: the OSR inserter reads live state through the
allocas first (and promotes everything afterwards), and continuation
generation wants the alloca form so compensation code can rebuild frame
slots exactly like the paper's Figure 9.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.manager import default_manager
from ..ir import types as T
from ..ir.builder import IRBuilder
from ..ir.function import BasicBlock, Function, Module
from ..ir.instructions import AllocaInst
from ..ir.types import FunctionType
from ..ir.values import ConstantFloat, ConstantNull, Value
from ..ir.verifier import verify_function
from . import mcast as M
from .mctypes import BOXED, DOUBLE, HANDLE, BUILTIN_FUNCTIONS, TypeInfo
from .runtime import I8P, declare_builtin, declare_runtime


class McCompileError(Exception):
    def __init__(self, message: str, line: int = 0):
        prefix = f"line {line}: " if line else ""
        super().__init__(f"{prefix}{message}")


def ir_type_of(cls: str) -> T.Type:
    return T.f64 if cls == DOUBLE else I8P


class CompiledVersion:
    """One type-specialized compilation of a MATLAB function."""

    def __init__(self, ir_function: Function, info: TypeInfo,
                 var_slots: Dict[str, AllocaInst],
                 loop_headers: Dict[int, BasicBlock]):
        self.ir_function = ir_function
        self.info = info
        self.var_slots = var_slots
        self.loop_headers = loop_headers

    def __repr__(self) -> str:  # pragma: no cover
        return f"<CompiledVersion @{self.ir_function.name}>"


class IIRCompiler:
    """Compiles one inferred IIR function into a module.

    ``version_oracle(name, arg_classes) -> CompiledVersion`` resolves
    direct calls to other user functions (the VM supplies it, compiling
    callees recursively).
    """

    def __init__(self, module: Module, version_oracle=None,
                 object_table=None):
        self.module = module
        self.version_oracle = version_oracle
        self._object_table_ref = object_table
        self._output_name: Optional[str] = None
        self.builder = IRBuilder()
        self._function: Optional[Function] = None
        self._slots: Dict[str, AllocaInst] = {}
        self._classes: Dict[str, str] = {}
        self._loop_headers: Dict[int, BasicBlock] = {}
        self._break_targets: List[BasicBlock] = []
        self._continue_targets: List[BasicBlock] = []
        self._handle_consts: Dict[str, Value] = {}

    # -- entry point ---------------------------------------------------------

    @staticmethod
    def make_shell(info: TypeInfo, ir_name: str, params,
                   forced_return_class: Optional[str] = None) -> Function:
        """Create the (empty) IR function for a version's signature.

        The VM registers the shell in its version cache *before* the body
        is generated, so directly/mutually recursive MATLAB functions can
        reference their own version while it is being compiled.
        """
        return_class = forced_return_class or info.return_class
        fnty = FunctionType(
            ir_type_of(return_class),
            [ir_type_of(c) for c in info.arg_classes],
        )
        return Function(fnty, ir_name, list(params))

    def compile(self, function: M.McFunction, info: TypeInfo,
                ir_name: str,
                forced_return_class: Optional[str] = None,
                into: Optional[Function] = None) -> CompiledVersion:
        return_class = forced_return_class or info.return_class
        if into is not None:
            func = into
        else:
            func = self.make_shell(info, ir_name, function.params,
                                   forced_return_class)
            self.module.add_function(func)
        self._function = func
        self._classes = info.var_classes
        self._slots = {}
        self._loop_headers = {}
        self._handle_consts = {}
        self._output_name = function.output

        entry = BasicBlock("entry", func)
        self.builder.position_at_end(entry)

        # allocate a slot per variable; params are spilled on entry
        for name, cls in sorted(info.var_classes.items()):
            slot = self.builder.alloca(ir_type_of(cls), f"{name}.slot")
            self._slots[name] = slot
            if cls == DOUBLE:
                self.builder.store(ConstantFloat(T.f64, 0.0), slot)
            else:
                self.builder.store(ConstantNull(I8P), slot)
        for param, arg in zip(function.params, func.args):
            self.builder.store(arg, self._slots[param])

        returned = self._gen_body(function.body)
        if not self.builder.block.is_terminated:
            self._emit_return(function, info, return_class)
        # terminate stray blocks (code after return)
        for block in func.blocks:
            if not block.is_terminated:
                IRBuilder(block).unreachable()
        verify_function(func)
        if into is not None:
            # compiling into a pre-registered shell rewrites a function
            # other code may already have analyzed — retire stale entries
            default_manager().invalidate(func)
        result = CompiledVersion(func, info, dict(self._slots),
                                 dict(self._loop_headers))
        self._function = None
        return result

    def _emit_return(self, function: M.McFunction, info: TypeInfo,
                     return_class: str) -> None:
        if function.output is not None and function.output in self._slots:
            out_cls = self._classes[function.output]
            value = self.builder.load(self._slots[function.output],
                                      function.output)
            value = self._coerce(value, out_cls, return_class)
        else:
            value = self._default_value(return_class)
        self.builder.ret(value)

    def _default_value(self, cls: str) -> Value:
        if cls == DOUBLE:
            return ConstantFloat(T.f64, 0.0)
        return ConstantNull(I8P)

    # -- statements ------------------------------------------------------------

    def _gen_body(self, body: List[M.Stmt]) -> None:
        for stmt in body:
            if self.builder.block.is_terminated:
                dead = self._new_block("dead")
                self.builder.position_at_end(dead)
            self._gen_statement(stmt)

    def _gen_statement(self, stmt: M.Stmt) -> None:
        if isinstance(stmt, M.AssignStmt):
            value, cls = self._gen_expr(stmt.value)
            target_cls = self._classes[stmt.name]
            value = self._coerce(value, cls, target_cls)
            self.builder.store(value, self._slots[stmt.name])
        elif isinstance(stmt, M.ExprStmt):
            self._gen_expr(stmt.expr)
        elif isinstance(stmt, M.IfStmt):
            self._gen_if(stmt)
        elif isinstance(stmt, M.WhileStmt):
            self._gen_while(stmt)
        elif isinstance(stmt, M.ForStmt):
            self._gen_for(stmt)
        elif isinstance(stmt, M.BreakStmt):
            if not self._break_targets:
                raise McCompileError("break outside loop", stmt.line)
            self.builder.br(self._break_targets[-1])
        elif isinstance(stmt, M.ContinueStmt):
            if not self._continue_targets:
                raise McCompileError("continue outside loop", stmt.line)
            self.builder.br(self._continue_targets[-1])
        elif isinstance(stmt, M.ReturnStmt):
            # jump to a synthetic return; simplest encoding: emit the
            # return inline (the output variable already holds its value)
            info_cls = self._function.return_type
            out_name = self._current_output()
            if out_name is not None and out_name in self._slots:
                value = self.builder.load(self._slots[out_name], out_name)
                value = self._coerce(
                    value, self._classes[out_name],
                    DOUBLE if info_cls == T.f64 else BOXED,
                )
            else:
                value = (ConstantFloat(T.f64, 0.0) if info_cls == T.f64
                         else ConstantNull(I8P))
            self.builder.ret(value)
        else:
            raise McCompileError(
                f"cannot compile {type(stmt).__name__}", stmt.line
            )

    def _current_output(self) -> Optional[str]:
        return self._output_name

    def _new_block(self, name: str) -> BasicBlock:
        block = BasicBlock(name)
        self._function.add_block(block)
        return block

    def _gen_if(self, stmt: M.IfStmt) -> None:
        cond = self._gen_condition(stmt.cond)
        then_block = self._new_block("if.then")
        merge = self._new_block("if.end")
        else_block = merge
        if stmt.orelse:
            else_block = self._new_block("if.else")
        self.builder.cond_br(cond, then_block, else_block)

        self.builder.position_at_end(then_block)
        self._gen_body(stmt.body)
        if not self.builder.block.is_terminated:
            self.builder.br(merge)

        if stmt.orelse:
            self.builder.position_at_end(else_block)
            self._gen_body(stmt.orelse)
            if not self.builder.block.is_terminated:
                self.builder.br(merge)

        self.builder.position_at_end(merge)

    def _gen_while(self, stmt: M.WhileStmt) -> None:
        header = self._new_block(f"loop{stmt.loop_id}.header")
        body = self._new_block(f"loop{stmt.loop_id}.body")
        end = self._new_block(f"loop{stmt.loop_id}.end")
        self._loop_headers[stmt.loop_id] = header
        self.builder.br(header)

        self.builder.position_at_end(header)
        cond = self._gen_condition(stmt.cond)
        self.builder.cond_br(cond, body, end)

        self.builder.position_at_end(body)
        self._break_targets.append(end)
        self._continue_targets.append(header)
        self._gen_body(stmt.body)
        self._break_targets.pop()
        self._continue_targets.pop()
        if not self.builder.block.is_terminated:
            self.builder.br(header)

        self.builder.position_at_end(end)

    def _gen_for(self, stmt: M.ForStmt) -> None:
        # lower 'for v = lo:step:hi' (positive step) to a while loop
        lo, lo_cls = self._gen_expr(stmt.lo)
        lo = self._coerce(lo, lo_cls, DOUBLE)
        if stmt.step is not None:
            step, step_cls = self._gen_expr(stmt.step)
            step = self._coerce(step, step_cls, DOUBLE)
        else:
            step = ConstantFloat(T.f64, 1.0)
        hi, hi_cls = self._gen_expr(stmt.hi)
        hi = self._coerce(hi, hi_cls, DOUBLE)

        var_cls = self._classes[stmt.var]
        self.builder.store(self._coerce(lo, DOUBLE, var_cls),
                           self._slots[stmt.var])

        header = self._new_block(f"loop{stmt.loop_id}.header")
        body = self._new_block(f"loop{stmt.loop_id}.body")
        step_block = self._new_block(f"loop{stmt.loop_id}.step")
        end = self._new_block(f"loop{stmt.loop_id}.end")
        self._loop_headers[stmt.loop_id] = header
        self.builder.br(header)

        self.builder.position_at_end(header)
        current = self.builder.load(self._slots[stmt.var], stmt.var)
        current = self._coerce(current, var_cls, DOUBLE)
        # MATLAB ranges run while i<=hi for positive steps and i>=hi for
        # negative ones; select on the step's sign covers both
        ascending = self.builder.fcmp("ole", current, hi, "for.le")
        descending = self.builder.fcmp("oge", current, hi, "for.ge")
        step_pos = self.builder.fcmp("oge", step,
                                     ConstantFloat(T.f64, 0.0), "step.pos")
        cond = self.builder.select(step_pos, ascending, descending,
                                   "for.cond")
        self.builder.cond_br(cond, body, end)

        self.builder.position_at_end(body)
        self._break_targets.append(end)
        self._continue_targets.append(step_block)
        self._gen_body(stmt.body)
        self._break_targets.pop()
        self._continue_targets.pop()
        if not self.builder.block.is_terminated:
            self.builder.br(step_block)

        self.builder.position_at_end(step_block)
        value = self.builder.load(self._slots[stmt.var], stmt.var)
        value = self._coerce(value, var_cls, DOUBLE)
        bumped = self.builder.fadd(value, step, f"{stmt.var}.next")
        self.builder.store(self._coerce(bumped, DOUBLE, var_cls),
                           self._slots[stmt.var])
        self.builder.br(header)

        self.builder.position_at_end(end)

    # -- expressions ---------------------------------------------------------------

    def _gen_condition(self, expr: M.Expr) -> Value:
        value, cls = self._gen_expr(expr)
        if cls == DOUBLE:
            zero = ConstantFloat(T.f64, 0.0)
            return self.builder.fcmp("one", value, zero, "tobool")
        truthy = declare_runtime(self.module, "mc_truthy")
        return self.builder.call(truthy, [self._coerce(value, cls, BOXED)],
                                 "tobool")

    def _gen_expr(self, expr: M.Expr) -> Tuple[Value, str]:
        if isinstance(expr, M.Num):
            return ConstantFloat(T.f64, expr.value), DOUBLE
        if isinstance(expr, M.Ident):
            cls = self._classes.get(expr.name)
            if cls is None or expr.name not in self._slots:
                raise McCompileError(f"undefined variable {expr.name!r}",
                                     expr.line)
            return self.builder.load(self._slots[expr.name], expr.name), cls
        if isinstance(expr, M.FuncHandle):
            return self._handle_constant(expr.name), HANDLE
        if isinstance(expr, M.UnaryOp):
            return self._gen_unary(expr)
        if isinstance(expr, M.BinOp):
            return self._gen_binop(expr)
        if isinstance(expr, M.CallExpr):
            return self._gen_call(expr)
        if isinstance(expr, M.FevalExpr):
            return self._gen_feval(expr)
        raise McCompileError(f"cannot compile {type(expr).__name__}",
                             expr.line)

    def _handle_constant(self, name: str) -> Value:
        """An ``@name`` literal, baked in as an object-table handle."""
        cached = self._handle_consts.get(name)
        if cached is not None:
            return cached
        from ..ir.constexpr import ConstantIntToPtr
        from .runtime import McFunctionHandleValue

        handle_id = self._object_table().intern(McFunctionHandleValue(name))
        const = ConstantIntToPtr(I8P, handle_id)
        self._handle_consts[name] = const
        return const

    def _object_table(self):
        if self._object_table_ref is None:
            raise McCompileError(
                "function handles require an engine object table; "
                "construct IIRCompiler via McVM"
            )
        return self._object_table_ref

    def _gen_unary(self, expr: M.UnaryOp) -> Tuple[Value, str]:
        value, cls = self._gen_expr(expr.operand)
        if expr.op == "-":
            if cls == DOUBLE:
                return self.builder.fneg(value, "neg"), DOUBLE
            neg = declare_runtime(self.module, "mc_neg")
            return (
                self.builder.call(neg, [self._coerce(value, cls, BOXED)],
                                  "neg"),
                BOXED,
            )
        if expr.op == "~":
            if cls == DOUBLE:
                zero = ConstantFloat(T.f64, 0.0)
                is_zero = self.builder.fcmp("oeq", value, zero, "not")
                return (
                    self.builder.select(
                        is_zero, ConstantFloat(T.f64, 1.0),
                        ConstantFloat(T.f64, 0.0), "not.val",
                    ),
                    DOUBLE,
                )
            lnot = declare_runtime(self.module, "mc_logical_not")
            return (
                self.builder.call(lnot, [self._coerce(value, cls, BOXED)],
                                  "not"),
                BOXED,
            )
        raise McCompileError(f"unknown unary {expr.op!r}", expr.line)

    _CMP_PREDICATES = {"<": "olt", "<=": "ole", ">": "ogt", ">=": "oge",
                       "==": "oeq", "~=": "one"}
    _CMP_RUNTIME = {"<": "mc_cmp_lt", "<=": "mc_cmp_le", ">": "mc_cmp_gt",
                    ">=": "mc_cmp_ge", "==": "mc_cmp_eq", "~=": "mc_cmp_ne"}
    _ARITH_RUNTIME = {"+": "mc_add", "-": "mc_sub", "*": "mc_mul",
                      "/": "mc_div", "^": "mc_pow"}

    def _gen_binop(self, expr: M.BinOp) -> Tuple[Value, str]:
        lhs, lcls = self._gen_expr(expr.lhs)
        rhs, rcls = self._gen_expr(expr.rhs)
        op = expr.op
        fast = lcls == DOUBLE and rcls == DOUBLE

        if op in ("+", "-", "*", "/", "^"):
            if fast:
                if op == "^":
                    pow_fn = declare_builtin(self.module, "power")
                    return self.builder.call(pow_fn, [lhs, rhs], "pow"), DOUBLE
                method = {"+": self.builder.fadd, "-": self.builder.fsub,
                          "*": self.builder.fmul, "/": self.builder.fdiv}[op]
                return method(lhs, rhs, "arith"), DOUBLE
            runtime = declare_runtime(self.module, self._ARITH_RUNTIME[op])
            return (
                self.builder.call(
                    runtime,
                    [self._coerce(lhs, lcls, BOXED),
                     self._coerce(rhs, rcls, BOXED)],
                    "generic",
                ),
                BOXED,
            )

        if op in self._CMP_PREDICATES:
            if fast:
                flag = self.builder.fcmp(self._CMP_PREDICATES[op], lhs, rhs,
                                         "cmp")
                return (
                    self.builder.select(
                        flag, ConstantFloat(T.f64, 1.0),
                        ConstantFloat(T.f64, 0.0), "cmp.val",
                    ),
                    DOUBLE,
                )
            runtime = declare_runtime(self.module, self._CMP_RUNTIME[op])
            return (
                self.builder.call(
                    runtime,
                    [self._coerce(lhs, lcls, BOXED),
                     self._coerce(rhs, rcls, BOXED)],
                    "generic.cmp",
                ),
                BOXED,
            )

        if op in ("&&", "&", "||", "|"):
            if fast:
                zero = ConstantFloat(T.f64, 0.0)
                lflag = self.builder.fcmp("one", lhs, zero, "ltrue")
                rflag = self.builder.fcmp("one", rhs, zero, "rtrue")
                combined = (self.builder.and_(lflag, rflag, "logic")
                            if op in ("&&", "&")
                            else self.builder.or_(lflag, rflag, "logic"))
                return (
                    self.builder.select(
                        combined, ConstantFloat(T.f64, 1.0),
                        ConstantFloat(T.f64, 0.0), "logic.val",
                    ),
                    DOUBLE,
                )
            name = ("mc_logical_and" if op in ("&&", "&")
                    else "mc_logical_or")
            runtime = declare_runtime(self.module, name)
            return (
                self.builder.call(
                    runtime,
                    [self._coerce(lhs, lcls, BOXED),
                     self._coerce(rhs, rcls, BOXED)],
                    "generic.logic",
                ),
                BOXED,
            )
        raise McCompileError(f"unknown operator {op!r}", expr.line)

    def _gen_call(self, expr: M.CallExpr) -> Tuple[Value, str]:
        if expr.name in BUILTIN_FUNCTIONS:
            callee = declare_builtin(self.module, expr.name)
            args = []
            for arg_expr in expr.args:
                value, cls = self._gen_expr(arg_expr)
                args.append(self._coerce(value, cls, DOUBLE))
            if len(args) != len(callee.function_type.params):
                raise McCompileError(
                    f"{expr.name} expects "
                    f"{len(callee.function_type.params)} args", expr.line
                )
            return self.builder.call(callee, args, expr.name), DOUBLE
        if self.version_oracle is None:
            raise McCompileError(
                f"unknown function {expr.name!r} (no version oracle)",
                expr.line,
            )
        values: List[Value] = []
        classes: List[str] = []
        for arg_expr in expr.args:
            value, cls = self._gen_expr(arg_expr)
            values.append(value)
            classes.append(cls)
        version = self.version_oracle(expr.name, tuple(classes))
        args = [
            self._coerce(v, c, pc)
            for v, c, pc in zip(values, classes, version.info.arg_classes)
        ]
        result = self.builder.call(version.ir_function, args, expr.name)
        return result, version.info.return_class

    def _gen_feval(self, expr: M.FevalExpr) -> Tuple[Value, str]:
        target, target_cls = self._gen_expr(expr.target)
        target = self._coerce(target, target_cls, BOXED)
        boxed_args = []
        for arg_expr in expr.args:
            value, cls = self._gen_expr(arg_expr)
            boxed_args.append(self._coerce(value, cls, BOXED))
        dispatcher = declare_runtime(self.module,
                                     f"mc_feval_{len(boxed_args)}")
        result = self.builder.call(dispatcher, [target] + boxed_args,
                                   "feval")
        return result, BOXED

    # -- coercions --------------------------------------------------------------------

    def _coerce(self, value: Value, from_cls: str, to_cls: str) -> Value:
        if from_cls == to_cls:
            return value
        if to_cls == BOXED:
            if from_cls == DOUBLE:
                box = declare_runtime(self.module, "mc_box")
                return self.builder.call(box, [value], "box")
            return value  # HANDLE -> BOXED: both i8*
        if to_cls == DOUBLE:
            if from_cls in (BOXED, HANDLE):
                unbox = declare_runtime(self.module, "mc_unbox")
                return self.builder.call(unbox, [value], "unbox")
        if to_cls == HANDLE and from_cls == BOXED:
            return value
        raise McCompileError(f"cannot coerce {from_cls} to {to_cls}")
