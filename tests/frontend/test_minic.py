"""Mini-C front-end tests: lexer, parser and codegen semantics."""

import pytest

from repro.frontend import CodegenError, CParseError, LexError, compile_c, tokenize
from repro.frontend.parser import parse_c
from repro.ir import verify_module
from repro.vm import ExecutionEngine


def run_c(src, name, *args, tier="jit"):
    module = compile_c(src)
    return ExecutionEngine(module, tier=tier).run(name, *args)


class TestLexer:
    def test_numbers(self):
        toks = tokenize("42 3.14 1e-5 0x1F 10L 2.5f")
        kinds = [(t.kind, t.value) for t in toks[:-1]]
        assert kinds[0] == ("int", 42)
        assert kinds[1] == ("float", 3.14)
        assert kinds[2] == ("float", 1e-5)
        assert kinds[3] == ("int", 31)
        assert kinds[4] == ("int", 10)
        assert kinds[5] == ("float", 2.5)

    def test_strings_and_chars(self):
        toks = tokenize(r'"hi\n" ' + r"'a' '\n' '\x41'")
        assert toks[0].value == b"hi\n"
        assert toks[1].value == ord("a")
        assert toks[2].value == 10
        assert toks[3].value == 0x41

    def test_comments(self):
        toks = tokenize("a // line\n b /* block\nmore */ c")
        assert [t.text for t in toks[:-1]] == ["a", "b", "c"]

    def test_operators_maximal_munch(self):
        toks = tokenize("a<<=b >>= ++ -- -> <= >= == != && ||")
        texts = [t.text for t in toks if t.kind == "op"]
        assert texts == ["<<=", ">>=", "++", "--", "->", "<=", ">=",
                         "==", "!=", "&&", "||"]

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")


class TestParser:
    def test_function_with_params(self):
        prog = parse_c("long f(long a, double b) { return a; }")
        assert len(prog.functions) == 1
        func = prog.functions[0]
        assert func.name == "f"
        assert [p.name for p in func.params] == ["a", "b"]

    def test_globals(self):
        prog = parse_c("long counter = 5;\nlong table[10];")
        assert len(prog.globals) == 2
        assert prog.globals[0].name == "counter"
        assert prog.globals[1].array_size == 10

    def test_precedence(self):
        from repro.frontend.cast import Binary

        prog = parse_c("long f() { return 1 + 2 * 3; }")
        ret = prog.functions[0].body.statements[0]
        assert isinstance(ret.value, Binary)
        assert ret.value.op == "+"

    def test_error_reports_line(self):
        # '@' fails in the lexer; a stray ')' fails in the parser — both
        # must carry the source line
        with pytest.raises(LexError, match="line 2"):
            parse_c("long f() {\n  return @; \n}")
        with pytest.raises(CParseError, match="line 2"):
            parse_c("long f() {\n  return ); \n}")


class TestCodegenSemantics:
    def test_arith_and_comparison(self):
        src = """
long f(long a, long b) {
    if (a >= b) return a - b;
    return b / a;
}
"""
        assert run_c(src, "f", 10, 4) == 6
        assert run_c(src, "f", 4, 12) == 3

    def test_while_break_continue(self):
        src = """
long f(long n) {
    long acc = 0;
    long i = 0;
    while (1) {
        i = i + 1;
        if (i > n) break;
        if (i % 2 == 0) continue;
        acc += i;
    }
    return acc;
}
"""
        assert run_c(src, "f", 10) == 1 + 3 + 5 + 7 + 9

    def test_do_while(self):
        src = """
long f(long n) {
    long c = 0;
    do { c++; n /= 2; } while (n > 0);
    return c;
}
"""
        assert run_c(src, "f", 100) == 7
        assert run_c(src, "f", 0) == 1  # body runs at least once

    def test_for_with_decl(self):
        src = """
long f(long n) {
    long total = 0;
    for (long i = 0; i < n; i++) total += i * i;
    return total;
}
"""
        assert run_c(src, "f", 10) == sum(i * i for i in range(10))

    def test_nested_loops(self):
        src = """
long f(long n) {
    long c = 0;
    for (long i = 0; i < n; i++)
        for (long j = 0; j <= i; j++)
            c++;
    return c;
}
"""
        assert run_c(src, "f", 5) == 15

    def test_ternary_and_logic(self):
        src = """
long f(long a, long b) {
    return (a > 0 && b > 0) ? a * b : (a < 0 || b < 0 ? -1 : 0);
}
"""
        assert run_c(src, "f", 3, 4) == 12
        assert run_c(src, "f", -3, 4) == -1
        assert run_c(src, "f", 0, 4) == 0

    def test_short_circuit_effects(self):
        src = """
long calls = 0;

long bump() { calls = calls + 1; return 1; }

long f(long x) {
    if (x > 0 && bump()) { }
    return calls;
}
"""
        assert run_c(src, "f", 0) == 0  # bump() not evaluated
        assert run_c(src, "f", 1) == 1

    def test_pointers_and_arrays(self):
        src = """
long f() {
    long a[5];
    long *p = a;
    for (long i = 0; i < 5; i++) p[i] = i * 10;
    long *q = p + 2;
    return *q + a[4];
}
"""
        assert run_c(src, "f") == 60

    def test_address_of_and_deref(self):
        src = """
void set(long *p, long v) { *p = v; }

long f() {
    long x = 1;
    set(&x, 99);
    return x;
}
"""
        assert run_c(src, "f") == 99

    def test_char_arithmetic(self):
        src = """
long f() {
    char c = 'a';
    c = c + 1;
    return c;
}
"""
        assert run_c(src, "f") == ord("b")

    def test_signed_char_wraps(self):
        src = """
long f() {
    char c = 127;
    c = c + 1;
    return c;
}
"""
        assert run_c(src, "f") == -128

    def test_double_conversions(self):
        src = """
long f(long n) {
    double half = (double)n / 2.0;
    return (long)half;
}
"""
        assert run_c(src, "f", 9) == 4

    def test_globals_persist(self):
        src = """
long counter = 100;

long bump() { counter += 1; return counter; }
"""
        module = compile_c(src)
        engine = ExecutionEngine(module)
        assert engine.run("bump") == 101
        assert engine.run("bump") == 102

    def test_global_array(self):
        src = """
long table[4];

long f() {
    table[0] = 7;
    table[3] = 9;
    return table[0] + table[3];
}
"""
        assert run_c(src, "f") == 16

    def test_string_literal(self):
        src = """
long f() {
    char *s = "AB";
    return s[0] + s[1];
}
"""
        assert run_c(src, "f") == ord("A") + ord("B")

    def test_sizeof(self):
        src = "long f() { return sizeof(long) + sizeof(char) + sizeof(double*); }"
        assert run_c(src, "f") == 8 + 1 + 8

    def test_recursion(self):
        src = """
long fact(long n) {
    if (n <= 1) return 1;
    return n * fact(n - 1);
}
"""
        assert run_c(src, "fact", 10) == 3628800

    def test_builtin_math(self):
        src = "double f(double x) { return sqrt(x) + fabs(-1.0); }"
        assert run_c(src, "f", 16.0) == 5.0

    def test_malloc_pattern(self):
        src = """
long f(long n) {
    long *buf = (long *)malloc(n * 8);
    for (long i = 0; i < n; i++) buf[i] = i;
    long total = 0;
    for (long i = 0; i < n; i++) total += buf[i];
    free((char *)buf);
    return total;
}
"""
        assert run_c(src, "f", 10) == 45

    def test_null_comparison(self):
        src = """
long f(long take) {
    char *p = 0;
    if (take) p = malloc(4);
    if (p == 0) return -1;
    free(p);
    return 1;
}
"""
        assert run_c(src, "f", 0) == -1
        assert run_c(src, "f", 1) == 1

    def test_compound_assignment_all(self):
        src = """
long f(long x) {
    x += 3; x -= 1; x *= 4; x /= 2; x %= 17;
    return x;
}
"""
        x = 5
        x += 3; x -= 1; x *= 4; x //= 2; x %= 17
        assert run_c(src, "f", 5) == x

    def test_pre_and_post_increment(self):
        src = """
long f() {
    long i = 5;
    long a = i++;
    long b = ++i;
    return a * 100 + b * 10 + i;
}
"""
        assert run_c(src, "f") == 5 * 100 + 7 * 10 + 7

    def test_interp_jit_agree(self):
        src = """
long mix(long n) {
    long acc = 1;
    for (long i = 1; i <= n; i++) {
        acc = acc * 31 + i;
        acc %= 1000000007;
    }
    return acc;
}
"""
        assert run_c(src, "mix", 50, tier="jit") == run_c(
            src, "mix", 50, tier="interp"
        )


class TestCodegenShape:
    """The IR is clang -O0-shaped: what mem2reg and the tiers rely on."""

    SRC = """
long f(long n, double x) {
    long total = 0;
    for (long i = 0; i < n; i++) {
        long sq = i * i;
        long seen[2];
        seen[i & 1] = sq;
        if (sq > 10 && !(i == 4) || x / 2.0 < 1.0) total += seen[i & 1];
        { long sq = 3; total += sq; }
    }
    return total + (n > 2) + (n && total);
}
"""

    def test_locals_allocate_once_in_the_entry_block(self):
        func = compile_c(self.SRC).get_function("f")
        names = [i.name for i in func.entry if i.opcode == "alloca"]
        # params first, then every local of every scope, shadowing included
        assert names == ["n.addr", "x.addr", "total", "i", "sq", "seen", "sq"]
        assert not [i for block in func.blocks[1:] for i in block
                    if i.opcode == "alloca"]
        # the initialising store stays at the declaration
        body = func.get_block("for.body")
        assert any(i.opcode == "store" and i.pointer.name == "sq"
                   for i in body)

    def test_conditions_branch_on_the_compare(self):
        func = compile_c(self.SRC).get_function("f")
        for block in func.blocks:
            for inst in block:
                if inst.opcode == "zext":
                    # a truth value is widened only where used as a number
                    assert block.name in ("for.end", "land.end", "lor.end")
                if inst.name == "tobool":  # only ever of a real number
                    assert inst.lhs.opcode == "load"
        cond = func.get_block("for.cond").terminator.condition
        assert cond.opcode == "icmp" and cond.type.bits == 1

    def test_truth_values_still_count_as_ints(self):
        for n, x in [(0, 0.0), (1, 5.0), (3, 0.5), (9, 9.0)]:
            assert run_c(self.SRC, "f", n, x) == run_c(
                self.SRC, "f", n, x, tier="interp")
        g = "long g(long a) { return !a + !!a * 2 + (a < 3); }"
        assert run_c(g, "g", 0) == 2
        assert run_c(g, "g", 7) == 2

    def test_float_temporaries_print_as_identifiers(self):
        from repro.ir import parse_module, print_module

        module = compile_c(
            "double h(double a, double b) { return a / b + a * b - a; }")
        text = print_module(module)
        assert "%fdiv" in text and "%fadd" in text and "%f/" not in text
        assert print_module(parse_module(text)) == text


class TestCodegenErrors:
    def test_undefined_variable(self):
        with pytest.raises(CodegenError, match="undefined variable"):
            compile_c("long f() { return nope; }")

    def test_unknown_function(self):
        with pytest.raises(CodegenError, match="unknown function"):
            compile_c("long f() { return mystery(1); }")

    def test_break_outside_loop(self):
        with pytest.raises(CodegenError, match="break outside loop"):
            compile_c("long f() { break; return 0; }")

    def test_assign_to_array(self):
        with pytest.raises(CodegenError):
            compile_c("long f() { long a[3]; long b[3]; a = b; return 0; }")

    def test_verified_output(self):
        module = compile_c("long f(long n) { return n * 2; }")
        verify_module(module)
