"""The mini-C lexer on generated token streams.

Tokens of every kind — keywords, ASCII and non-ASCII identifiers, every
entry of ``OPERATORS``, decimal, hex and float literals with suffixes,
strings and chars with escapes — are joined by random blanks, line
breaks and both comment styles.  ``tokenize`` must give back exactly
those tokens: kind, text, value and line.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.frontend import tokenize
from repro.frontend.lexer import KEYWORDS, OPERATORS

SETTINGS = settings(max_examples=80, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: escape letter -> byte, as C spells them
ESCAPES = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34,
           "a": 7, "b": 8, "f": 12, "v": 11}

# every strategy below draws ``(source text, (kind, text, value))``

keywords = st.sampled_from(sorted(KEYWORDS)).map(
    lambda word: (word, ("kw", word, None)))

ascii_identifiers = st.from_regex(
    r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True).filter(
    lambda word: word not in KEYWORDS)

letters = st.characters(min_codepoint=0x80, categories=["L"]).filter(
    str.isalpha)
word_characters = st.one_of(
    st.just("_"),
    st.characters(categories=["L", "N"]).filter(str.isalnum))

#: led by a non-ASCII letter, or by an ASCII one and going on in any
#: script
identifiers = st.one_of(
    ascii_identifiers,
    st.tuples(letters, st.text(word_characters, max_size=4)).map("".join),
    st.tuples(ascii_identifiers, st.text(word_characters, max_size=4)).map(
        "".join),
).filter(lambda word: word not in KEYWORDS).map(
    lambda word: (word, ("ident", word, None)))

operators = st.sampled_from(OPERATORS).map(
    lambda op: (op, ("op", op, None)))


@st.composite
def integers(draw):
    digits = draw(st.from_regex(r"[0-9]{1,20}", fullmatch=True))
    # ``f`` makes any literal a float; the others are accepted and ignored
    suffix = draw(st.sampled_from(["", "L", "l", "U", "u", "UL", "LL", "f"]))
    if suffix == "f":
        return digits + suffix, ("float", digits, float(digits))
    return digits + suffix, ("int", digits, int(digits))


hex_integers = st.from_regex(r"0[xX][0-9a-fA-F]{1,12}", fullmatch=True).map(
    lambda text: (text, ("int", text, int(text, 16))))


@st.composite
def floats(draw):
    text = draw(st.from_regex(
        r"([0-9]{1,6}\.[0-9]{0,6}|\.[0-9]{1,6})([eE][+-]?[0-9]{1,3})?"
        r"|[0-9]{1,6}[eE][+-]?[0-9]{1,3}", fullmatch=True))
    suffix = draw(st.sampled_from(["", "f", "F", "l", "L"]))
    return text + suffix, ("float", text, float(text))


@st.composite
def escapes(draw):
    """``(spelling, byte)`` of one escape sequence."""
    if draw(st.booleans()):
        letter = draw(st.sampled_from(sorted(ESCAPES)))
        return "\\" + letter, ESCAPES[letter]
    byte = draw(st.integers(0, 255))
    return f"\\x{byte:02x}", byte


@st.composite
def strings(draw):
    pieces = draw(st.lists(st.one_of(
        escapes(),
        st.characters(min_codepoint=32, max_codepoint=255,
                      blacklist_characters='"\\').map(
            lambda ch: (ch, ord(ch)))), max_size=6))
    text = '"' + "".join(spelling for spelling, _ in pieces) + '"'
    return text, ("string", "", bytes(byte for _, byte in pieces))


@st.composite
def chars(draw):
    if draw(st.booleans()):
        spelling, value = draw(escapes())
    else:
        spelling = draw(st.characters(blacklist_characters="'\\\n"))
        value = ord(spelling)
    return f"'{spelling}'", ("char", "", value)


tokens = st.one_of(keywords, identifiers, operators, integers(),
                   hex_integers, floats(), strings(), chars())

blanks = st.text(st.sampled_from(" \t\r\n"), min_size=1, max_size=3)
comment_text = st.text(st.characters(min_codepoint=32, max_codepoint=0x24F),
                       max_size=8)
comments = st.one_of(
    comment_text.map(lambda text: f"//{text}\n"),
    st.text(st.characters(min_codepoint=9, max_codepoint=0x24F),
             max_size=8).filter(lambda text: "*/" not in text).map(
        lambda text: f"/*{text}*/"),
)


@st.composite
def separators(draw):
    """Opens with a blank, so that no two tokens run into one and no
    comment opener joins a ``/`` before it."""
    parts = [draw(blanks)]
    for comment in draw(st.lists(comments, max_size=2)):
        parts += [comment, draw(blanks)]
    return "".join(parts)


@SETTINGS
@given(st.lists(tokens, max_size=12), st.data())
def test_tokenize_gives_back_the_generated_tokens(drawn, data):
    source = data.draw(st.one_of(st.just(""), separators()))
    expected = []
    for text, (kind, token_text, value) in drawn:
        expected.append((kind, token_text, value, source.count("\n") + 1))
        source += text + data.draw(separators())
    expected.append(("eof", "", None, source.count("\n") + 1))
    assert [(t.kind, t.text, t.value, t.line)
            for t in tokenize(source)] == expected, source
