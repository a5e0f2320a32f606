"""Lexer for the mini-C front-end.

Tokenizes the C subset the shootout benchmarks are written in: scalar
types, pointers, arrays, control flow, function definitions and calls,
the usual operator zoo, string/char literals and both comment styles.

The fast path is one compiled regex, ``_TOKEN``, matched at the cursor:
blanks, line breaks, ``//`` comments, identifiers and keywords that
start with an ASCII letter or ``_``, and every entry of ``OPERATORS``,
longest first.  The tokens with more to them fall back to helpers:
numbers (``_lex_number``: hex, floats, exponents, suffixes, and a ``.``
followed by a digit), strings and chars (``_lex_string`` /
``_lex_char``: escapes) and ``/* */`` comments (which count the lines
they span).  A character the regex does not match at all starts an
identifier if it is a non-ASCII letter and is an error otherwise.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

KEYWORDS = {
    "long", "int", "char", "double", "float", "void", "unsigned",
    "if", "else", "while", "for", "do", "return", "break", "continue",
    "sizeof", "struct", "const", "static",
}

#: multi-character operators, longest first so maximal munch works
OPERATORS = [
    "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--", "->",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "(", ")", "{", "}", "[", "]", ";", ",", "?", ":", ".",
]


class Token(NamedTuple):
    kind: str       # 'kw' | 'ident' | 'int' | 'float' | 'string' | 'char' | 'op' | 'eof'
    text: str
    line: int
    value: object = None


class LexError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _is_digit(ch: str) -> bool:
    """ASCII-only digit test (str.isdigit accepts Unicode digits that
    int()/float() reject, e.g. superscripts — found by fuzzing)."""
    return "0" <= ch <= "9"


_ESCAPES = {
    "n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34,
    "a": 7, "b": 8, "f": 12, "v": 11,
}


#: one token at the cursor, tried in this order: blanks, line breaks
#: (with the indentation after them), ``//`` comments, identifiers and
#: keywords, and an opener the helpers lex (a digit, a ``.`` before a
#: digit, a quote, ``/*``) — before ``op`` so that ``.5`` is a number
#: and ``/*`` a comment, not ``.`` or ``/``.  ``\w`` is exactly
#: ``str.isalnum()`` or ``_``, the identifier rule, so an ASCII-led
#: identifier may go on in any script.  The operators are ``OPERATORS``
#: in order, longest first, so the first alternative that matches is the
#: longest.  A non-ASCII letter matches nothing here; ``str.isalpha()``
#: decides whether it starts an identifier, which ``_WORD`` then takes.
_TOKEN = re.compile("|".join([
    r"(?P<space>[ \t\r]+)",
    r"(?P<newline>(?:\n[ \t\r]*)+)",
    r"(?P<comment>//[^\n]*)",
    r"(?P<word>[A-Za-z_]\w*)",
    r"(?P<helper>[0-9\"']|\.[0-9]|/\*)",
    "(?P<op>" + "|".join(map(re.escape, OPERATORS)) + ")",
]))
_WORD = re.compile(r"\w+")


def tokenize(source: str) -> List[Token]:
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN.match
    i = 0
    line = 1
    n = len(source)
    while i < n:
        found = match(source, i)
        if found is None:
            ch = source[i]
            if not ch.isalpha():
                raise LexError(f"unexpected character {ch!r}", line)
            found = _WORD.match(source, i)  # led by a non-ASCII letter
            append(Token("ident", found.group(), line))
            i = found.end()
            continue
        kind = found.lastgroup
        end = found.end()
        if kind == "word":
            text = found.group()
            append(Token("kw" if text in KEYWORDS else "ident", text, line))
        elif kind == "op":
            append(Token("op", found.group(), line))
        elif kind == "newline":
            line += found.group().count("\n")
        elif kind == "helper":
            ch = source[i]
            if ch == '"':
                end, token = _lex_string(source, i, line)
            elif ch == "'":
                end, token = _lex_char(source, i, line)
            elif ch == "/":
                close = source.find("*/", i + 2)
                if close == -1:
                    raise LexError("unterminated block comment", line)
                line += source.count("\n", i, close)
                i = close + 2
                continue
            else:
                end, token = _lex_number(source, i, line)
            append(token)
        i = end
    append(Token("eof", "", line))
    return tokens


def _lex_number(source: str, i: int, line: int):
    n = len(source)
    start = i
    is_float = False
    if source.startswith("0x", i) or source.startswith("0X", i):
        i += 2
        digits_start = i
        while i < n and (_is_digit(source[i]) or source[i] in "abcdefABCDEF"):
            i += 1
        if i == digits_start:
            raise LexError("hex literal needs at least one digit", line)
        return i, Token("int", source[start:i], line, int(source[start:i], 16))
    while i < n and _is_digit(source[i]):
        i += 1
    if i < n and source[i] == ".":
        is_float = True
        i += 1
        while i < n and _is_digit(source[i]):
            i += 1
    if i < n and source[i] in "eE":
        is_float = True
        i += 1
        if i < n and source[i] in "+-":
            i += 1
        while i < n and _is_digit(source[i]):
            i += 1
    text = source[start:i]
    # C suffixes (L, U, f) are accepted and ignored
    while i < n and source[i] in "lLuUfF":
        if source[i] in "fF":
            is_float = True
        i += 1
    if is_float:
        return i, Token("float", text, line, float(text))
    return i, Token("int", text, line, int(text))


def _lex_string(source: str, i: int, line: int):
    n = len(source)
    i += 1
    out = bytearray()
    while i < n and source[i] != '"':
        ch = source[i]
        if ch == "\n":
            raise LexError("newline in string literal", line)
        if ch == "\\":
            i += 1
            if i >= n:
                raise LexError("bad escape", line)
            esc = source[i]
            if esc == "x":
                hex_digits = source[i + 1:i + 3]
                try:
                    out.append(int(hex_digits, 16))
                except ValueError:
                    raise LexError(f"bad hex escape \\x{hex_digits}",
                                   line) from None
                i += 2
            elif esc in _ESCAPES:
                out.append(_ESCAPES[esc])
            else:
                raise LexError(f"unknown escape \\{esc}", line)
        else:
            code = ord(ch)
            if code > 255:
                raise LexError(
                    f"non-byte character {ch!r} in string literal", line
                )
            out.append(code)
        i += 1
    if i >= n:
        raise LexError("unterminated string literal", line)
    return i + 1, Token("string", source[:0], line, bytes(out))


def _lex_char(source: str, i: int, line: int):
    n = len(source)
    i += 1
    if i >= n:
        raise LexError("unterminated char literal", line)
    if source[i] == "\\":
        i += 1
        if i >= n:
            raise LexError("unterminated char literal", line)
        esc = source[i]
        if esc == "x":
            try:
                value = int(source[i + 1:i + 3], 16)
            except ValueError:
                raise LexError("bad hex escape in char literal",
                               line) from None
            i += 2
        elif esc in _ESCAPES:
            value = _ESCAPES[esc]
        else:
            raise LexError(f"unknown escape \\{esc}", line)
    else:
        value = ord(source[i])
    i += 1
    if i >= n or source[i] != "'":
        raise LexError("unterminated char literal", line)
    return i + 1, Token("char", "", line, value)
