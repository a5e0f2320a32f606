"""Parser for the textual repro IR.

Accepts the syntax produced by :mod:`repro.ir.printer` (an LLVM-flavoured
assembly) and reconstructs a :class:`~repro.ir.function.Module`.  The
parser is two-pass within each function: block labels and instruction
results may be referenced before they are defined (phis, forward branches),
so unresolved references are recorded as placeholders and patched once the
function body has been read.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from . import types as T
from .function import BasicBlock, Function, Module
from .instructions import (
    CAST_OPCODES,
    FCMP_PREDICATES,
    FLOAT_BINOPS,
    ICMP_PREDICATES,
    INT_BINOPS,
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
from .values import (
    Constant,
    ConstantFloat,
    ConstantInt,
    ConstantNull,
    ConstantString,
    GlobalVariable,
    UndefValue,
    Value,
)


class ParseError(Exception):
    """Raised on malformed IR text, with line context."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(f"{prefix}{message}")


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t]+)
  | (?P<comment>;[^\n]*)
  | (?P<newline>\n)
  | (?P<string>c"(?:[^"\\]|\\[0-9a-fA-F]{2})*")
  | (?P<local>%[-A-Za-z0-9_.$]+)
  | (?P<globalref>@[-A-Za-z0-9_.$]+)
  | (?P<number>-?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+|\d+|inf|nan))
  | (?P<ellipsis>\.\.\.)
  | (?P<punct>[(){}\[\],=*:])
  | (?P<word>[A-Za-z_][A-Za-z0-9_.]*)
    """,
    re.VERBOSE | re.ASCII,
)


class Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self) -> str:  # pragma: no cover
        return f"Token({self.kind}, {self.text!r})"


def tokenize(source: str) -> List[Token]:
    tokens: List[Token] = []
    line = 1
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line)
        kind = match.lastgroup or ""
        text = match.group()
        pos = match.end()
        if kind == "newline":
            line += 1
            continue
        if kind in ("ws", "comment"):
            continue
        tokens.append(Token(kind, text, line))
    tokens.append(Token("eof", "", line))
    return tokens


class _ForwardRef(Value):
    """Placeholder for a not-yet-defined local value."""

    __slots__ = ()


class Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0
        self.module = Module()
        # per-function state
        self._locals: Dict[str, Value] = {}
        self._forward: Dict[str, List[_ForwardRef]] = {}
        self._blocks: Dict[str, BasicBlock] = {}
        self._function: Optional[Function] = None

    # -- token stream helpers --------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def accept(self, text: str) -> bool:
        if self.peek().text == text:
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line)
        return tok

    def expect_kind(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.text!r}", tok.line)
        return tok

    # -- types -----------------------------------------------------------------

    def parse_type(self) -> T.Type:
        """Parse a type, including pointer and function-type suffixes."""
        base = self._parse_base_type()
        return self._parse_type_suffix(base)

    def _parse_base_type(self) -> T.Type:
        tok = self.peek()
        if tok.kind == "word":
            if tok.text == "void":
                self.next()
                return T.void
            if tok.text == "label":
                self.next()
                return T.label
            if tok.text in ("float", "double"):
                self.next()
                return T.f32 if tok.text == "float" else T.f64
            m = re.fullmatch(r"i(\d+)", tok.text)
            if m:
                self.next()
                return T.int_type(int(m.group(1)))
            raise ParseError(f"unknown type {tok.text!r}", tok.line)
        if tok.text == "[":
            self.next()
            count_tok = self.expect_kind("number")
            self.expect("x")
            element = self.parse_type()
            self.expect("]")
            return T.ArrayType(int(count_tok.text), element)
        if tok.text == "{":
            self.next()
            fields: List[T.Type] = []
            if self.peek().text != "}":
                fields.append(self.parse_type())
                while self.accept(","):
                    fields.append(self.parse_type())
            self.expect("}")
            return T.StructType(fields)
        raise ParseError(f"expected type, found {tok.text!r}", tok.line)

    def _parse_type_suffix(self, base: T.Type) -> T.Type:
        while True:
            tok = self.peek()
            if tok.text == "*":
                self.next()
                base = T.PointerType(base)
            elif tok.text == "(" and self._looks_like_function_type():
                self.next()
                params: List[T.Type] = []
                vararg = False
                if self.peek().text != ")":
                    while True:
                        if self.peek().kind == "ellipsis":
                            self.next()
                            vararg = True
                            break
                        params.append(self.parse_type())
                        if not self.accept(","):
                            break
                self.expect(")")
                base = T.FunctionType(base, params, vararg=vararg)
            else:
                return base

    def _looks_like_function_type(self) -> bool:
        """Disambiguate ``T (...)`` function types from call argument lists:
        a function type's parenthesis is followed by a type, ``...`` or ``)``."""
        nxt = self.peek(1)
        if nxt.text == ")" or nxt.kind == "ellipsis":
            return True
        if nxt.kind == "word":
            return (
                nxt.text in ("void", "label", "float", "double")
                or re.fullmatch(r"i\d+", nxt.text) is not None
            )
        return nxt.text in ("[", "{")

    # -- values -----------------------------------------------------------------

    def lookup_local(self, name: str, type: T.Type) -> Value:
        if name in self._locals:
            return self._locals[name]
        ref = _ForwardRef(type, name)
        self._forward.setdefault(name, []).append(ref)
        return ref

    def define_local(self, name: str, value: Value) -> None:
        if name in self._locals:
            raise ParseError(f"redefinition of %{name}")
        self._locals[name] = value
        for ref in self._forward.pop(name, []):
            ref.replace_all_uses_with(value)

    def lookup_block(self, name: str) -> BasicBlock:
        if name not in self._blocks:
            self._blocks[name] = BasicBlock(name)
        return self._blocks[name]

    def parse_value(self, type: T.Type) -> Value:
        """Parse an operand of the given expected type."""
        tok = self.peek()
        if tok.kind == "local":
            self.next()
            return self.lookup_local(tok.text[1:], type)
        if tok.kind == "globalref":
            self.next()
            return self._resolve_global(tok.text[1:], tok.line)
        if tok.kind == "number":
            self.next()
            if isinstance(type, T.FloatType):
                return ConstantFloat(type, float(tok.text))
            if isinstance(type, T.IntType):
                if "." in tok.text or "e" in tok.text or "inf" in tok.text:
                    raise ParseError(
                        f"float literal {tok.text} for integer type", tok.line
                    )
                return ConstantInt(type, int(tok.text))
            raise ParseError(f"numeric literal for type {type}", tok.line)
        if tok.text == "true":
            self.next()
            return ConstantInt(T.i1, 1)
        if tok.text == "false":
            self.next()
            return ConstantInt(T.i1, 0)
        if tok.text == "null":
            self.next()
            if not isinstance(type, T.PointerType):
                raise ParseError(f"null literal for type {type}", tok.line)
            return ConstantNull(type)
        if tok.text == "undef":
            self.next()
            return UndefValue(type)
        if tok.kind == "string":
            self.next()
            return ConstantString(type, _decode_string(tok.text))
        if tok.text == "[" and isinstance(type, T.ArrayType):
            # constant array aggregate: [ i64 1, i64 2, ... ]
            from .values import ConstantArray

            self.next()
            elements: List[Constant] = []
            if self.peek().text != "]":
                while True:
                    element_type = self.parse_type()
                    element = self.parse_value(element_type)
                    if not isinstance(element, Constant):
                        raise ParseError(
                            "array elements must be constants", tok.line
                        )
                    elements.append(element)
                    if not self.accept(","):
                        break
            self.expect("]")
            if len(elements) != type.count:
                raise ParseError(
                    f"array initializer has {len(elements)} elements, "
                    f"type wants {type.count}", tok.line,
                )
            return ConstantArray(type, elements)
        if tok.text == "inttoptr":
            # constant expression: inttoptr (i64 N to T)
            self.next()
            self.expect("(")
            src_type = self.parse_type()
            value = self.parse_value(src_type)
            self.expect("to")
            dst_type = self.parse_type()
            self.expect(")")
            if not isinstance(value, ConstantInt):
                raise ParseError("inttoptr constant expr needs int literal")
            from .constexpr import ConstantIntToPtr

            return ConstantIntToPtr(dst_type, value.value)
        raise ParseError(f"expected value, found {tok.text!r}", tok.line)

    def _resolve_global(self, name: str, line: int) -> Value:
        if self.module.has_function(name):
            return self.module.get_function(name)
        if self.module.has_global(name):
            return self.module.get_global(name)
        raise ParseError(f"unknown global @{name}", line)

    def parse_typed_value(self) -> Value:
        type = self.parse_type()
        return self.parse_value(type)

    # -- module level ---------------------------------------------------------------

    def parse_module(self) -> Module:
        # Pre-pass: register all function signatures so call references
        # resolve regardless of definition order.
        self._predeclare_functions()
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.text == "define":
                self.parse_define()
            elif tok.text == "declare":
                self.parse_declare()
            elif tok.kind == "globalref":
                self.parse_global()
            else:
                raise ParseError(
                    f"expected top-level entity, found {tok.text!r}", tok.line
                )
        return self.module

    def _predeclare_functions(self) -> None:
        saved = self.pos
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.text in ("define", "declare"):
                self.next()
                ret = self.parse_type()
                name_tok = self.expect_kind("globalref")
                params, names, vararg = self._parse_param_list()
                fnty = T.FunctionType(ret, params, vararg=vararg)
                if not self.module.has_function(name_tok.text[1:]):
                    self.module.add_function(
                        Function(fnty, name_tok.text[1:], names)
                    )
                # skip body if present
                if self.peek().text == "{":
                    depth = 0
                    while True:
                        t = self.next()
                        if t.text == "{":
                            depth += 1
                        elif t.text == "}":
                            depth -= 1
                            if depth == 0:
                                break
                        elif t.kind == "eof":
                            raise ParseError("unterminated function body")
            else:
                self.next()
        self.pos = saved

    def _parse_param_list(self) -> Tuple[List[T.Type], List[str], bool]:
        self.expect("(")
        params: List[T.Type] = []
        names: List[str] = []
        vararg = False
        if self.peek().text != ")":
            while True:
                if self.peek().kind == "ellipsis":
                    self.next()
                    vararg = True
                    break
                params.append(self.parse_type())
                # skip parameter attributes
                while self.peek().kind == "word" and self.peek().text in (
                    "nocapture", "readonly", "noalias", "readnone",
                ):
                    self.next()
                if self.peek().kind == "local":
                    names.append(self.next().text[1:])
                else:
                    names.append(f"arg{len(params) - 1}")
                if not self.accept(","):
                    break
        self.expect(")")
        return params, names, vararg

    def parse_global(self) -> None:
        name_tok = self.expect_kind("globalref")
        self.expect("=")
        external = self.accept("external")
        tok = self.next()
        if tok.text not in ("global", "constant"):
            raise ParseError(
                f"expected 'global' or 'constant', found {tok.text!r}", tok.line
            )
        is_constant = tok.text == "constant"
        value_type = self.parse_type()
        initializer: Optional[Constant] = None
        if not external:
            value = self.parse_value(value_type)
            if not isinstance(value, Constant):
                raise ParseError("global initializer must be constant")
            initializer = value
        gv = GlobalVariable(value_type, name_tok.text[1:], initializer, is_constant)
        if not self.module.has_global(gv.name):
            self.module.add_global(gv)

    def parse_declare(self) -> None:
        self.expect("declare")
        self.parse_type()
        self.expect_kind("globalref")
        self._parse_param_list()
        # signature was registered by the pre-pass

    def parse_define(self) -> None:
        self.expect("define")
        self.parse_type()
        name_tok = self.expect_kind("globalref")
        self._parse_param_list()
        func = self.module.get_function(name_tok.text[1:])
        self._function = func
        self._locals = {arg.name: arg for arg in func.args}
        self._forward = {}
        self._blocks = {}
        self.expect("{")
        current: Optional[BasicBlock] = None
        while self.peek().text != "}":
            tok = self.peek()
            if tok.kind == "word" and self.peek(1).text == ":":
                block = self.lookup_block(tok.text)
                func.add_block(block)
                self.next()
                self.next()
                current = block
            else:
                if current is None:
                    raise ParseError("instruction outside a block", tok.line)
                self.parse_instruction(current)
        self.expect("}")
        if self._forward:
            missing = ", ".join(f"%{n}" for n in self._forward)
            raise ParseError(f"undefined values in @{func.name}: {missing}")
        for block in self._blocks.values():
            if block.parent is None:
                raise ParseError(
                    f"branch to undefined block %{block.name} in @{func.name}"
                )
        self._function = None

    # -- instructions -------------------------------------------------------------

    def parse_instruction(self, block: BasicBlock) -> Instruction:
        tok = self.peek()
        name = ""
        if tok.kind == "local":
            name = self.next().text[1:]
            self.expect("=")
        inst = self._parse_instruction_body(name)
        block.append(inst)
        if name:
            self.define_local(name, inst)
        return inst

    def _parse_instruction_body(self, name: str) -> Instruction:
        tok = self.next()
        op = tok.text
        tail = False
        if op == "tail":
            tail = True
            tok = self.next()
            op = tok.text

        if op in INT_BINOPS or op in FLOAT_BINOPS:
            flags: List[str] = []
            while self.peek().text in ("nsw", "nuw", "exact"):
                flags.append(self.next().text)
            type = self.parse_type()
            lhs = self.parse_value(type)
            self.expect(",")
            rhs = self.parse_value(type)
            return BinaryInst(op, lhs, rhs, name, flags)

        if op == "icmp":
            pred = self.next().text
            if pred not in ICMP_PREDICATES:
                raise ParseError(f"bad icmp predicate {pred!r}", tok.line)
            type = self.parse_type()
            lhs = self.parse_value(type)
            self.expect(",")
            rhs = self.parse_value(type)
            return ICmpInst(pred, lhs, rhs, name)

        if op == "fcmp":
            pred = self.next().text
            if pred not in FCMP_PREDICATES:
                raise ParseError(f"bad fcmp predicate {pred!r}", tok.line)
            type = self.parse_type()
            lhs = self.parse_value(type)
            self.expect(",")
            rhs = self.parse_value(type)
            return FCmpInst(pred, lhs, rhs, name)

        if op == "select":
            self.expect("i1")
            cond = self.parse_value(T.i1)
            self.expect(",")
            if_true = self.parse_typed_value()
            self.expect(",")
            if_false = self.parse_typed_value()
            return SelectInst(cond, if_true, if_false, name)

        if op == "alloca":
            type = self.parse_type()
            count = 1
            if self.accept(","):
                self.expect("i64")
                count = int(self.expect_kind("number").text)
            return AllocaInst(type, name, count)

        if op == "load":
            self.parse_type()  # result type (redundant)
            self.expect(",")
            pointer = self.parse_typed_value()
            return LoadInst(pointer, name)

        if op == "store":
            value = self.parse_typed_value()
            self.expect(",")
            pointer = self.parse_typed_value()
            return StoreInst(value, pointer)

        if op == "getelementptr":
            inbounds = self.accept("inbounds")
            self.parse_type()  # pointee type (redundant)
            self.expect(",")
            pointer = self.parse_typed_value()
            indices: List[Value] = []
            while self.accept(","):
                indices.append(self.parse_typed_value())
            return GEPInst(pointer, indices, name, inbounds)

        if op in CAST_OPCODES:
            value = self.parse_typed_value()
            self.expect("to")
            to_type = self.parse_type()
            return CastInst(op, value, to_type, name)

        if op == "call":
            return self._parse_call(name, tail)

        if op == "phi":
            type = self.parse_type()
            phi = PhiInst(type, name)
            pairs: List[Tuple[Value, BasicBlock]] = []
            while True:
                self.expect("[")
                value = self.parse_value(type)
                self.expect(",")
                block_tok = self.expect_kind("local")
                self.expect("]")
                pairs.append((value, self.lookup_block(block_tok.text[1:])))
                if not self.accept(","):
                    break
            for value, pred in pairs:
                phi.add_incoming(value, pred)
            return phi

        if op == "ret":
            if self.peek().text == "void":
                self.next()
                return RetInst(None)
            return RetInst(self.parse_typed_value())

        if op == "br":
            if self.peek().text == "label":
                self.next()
                target_tok = self.expect_kind("local")
                return BranchInst(self.lookup_block(target_tok.text[1:]))
            self.expect("i1")
            cond = self.parse_value(T.i1)
            self.expect(",")
            self.expect("label")
            true_tok = self.expect_kind("local")
            self.expect(",")
            self.expect("label")
            false_tok = self.expect_kind("local")
            return CondBranchInst(
                cond,
                self.lookup_block(true_tok.text[1:]),
                self.lookup_block(false_tok.text[1:]),
            )

        if op == "switch":
            value = self.parse_typed_value()
            self.expect(",")
            self.expect("label")
            default_tok = self.expect_kind("local")
            inst = SwitchInst(value, self.lookup_block(default_tok.text[1:]))
            self.expect("[")
            while self.peek().text != "]":
                case_type = self.parse_type()
                case_value = self.parse_value(case_type)
                if not isinstance(case_value, Constant):
                    raise ParseError("switch case must be constant")
                self.expect(",")
                self.expect("label")
                case_tok = self.expect_kind("local")
                inst.add_case(case_value, self.lookup_block(case_tok.text[1:]))
            self.expect("]")
            return inst

        if op == "unreachable":
            return UnreachableInst()

        raise ParseError(f"unknown instruction {op!r}", tok.line)

    def _parse_call(self, name: str, tail: bool) -> Instruction:
        self.parse_type()  # return type (redundant with callee signature)
        callee_tok = self.next()
        if callee_tok.kind == "globalref":
            callee = self._resolve_global(callee_tok.text[1:], callee_tok.line)
            args = self._parse_call_args()
            return CallInst(callee, args, name, tail)
        if callee_tok.kind == "local":
            # indirect call through a local function pointer; its type must
            # already be known (defined earlier or an argument)
            local_name = callee_tok.text[1:]
            if local_name not in self._locals:
                raise ParseError(
                    f"indirect callee %{local_name} must be defined before use",
                    callee_tok.line,
                )
            callee_value = self._locals[local_name]
            args = self._parse_call_args()
            return IndirectCallInst(callee_value, args, name, tail)
        raise ParseError(f"bad call callee {callee_tok.text!r}", callee_tok.line)

    def _parse_call_args(self) -> List[Value]:
        self.expect("(")
        args: List[Value] = []
        if self.peek().text != ")":
            while True:
                args.append(self.parse_typed_value())
                if not self.accept(","):
                    break
        self.expect(")")
        return args


def _decode_string(token_text: str) -> bytes:
    """Decode a ``c"..."`` literal with ``\\XX`` hex escapes."""
    body = token_text[2:-1]
    out = bytearray()
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            out.append(int(body[i + 1 : i + 3], 16))
            i += 3
        else:
            out.append(ord(ch))
            i += 1
    return bytes(out)


def parse_module(source: str) -> Module:
    """Parse IR text into a module."""
    return Parser(source).parse_module()


def parse_function(source: str, module: Optional[Module] = None) -> Function:
    """Parse a single ``define`` and return the function.

    If ``module`` is given, declarations and globals it already holds are
    visible to the parsed body, and the new function is added to it.
    """
    parser = Parser(source)
    if module is not None:
        parser.module = module
    before = set()
    if module is not None:
        before = {f.name for f in module.functions}
    parsed = parser.parse_module()
    defined = [
        f for f in parsed.functions
        if not f.is_declaration and f.name not in before
    ]
    if len(defined) != 1:
        raise ParseError(
            f"expected exactly one new function definition, found {len(defined)}"
        )
    return defined[0]
