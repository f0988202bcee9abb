"""The INSERT scanner against the token walk it replaced.

``parse`` reads ``INSERT … VALUES`` text with two patterns and no
tokens.  :class:`TokenWalk` below is the recursive-descent walk over
``tokenize`` output that parsed INSERT before, kept here as the oracle:
for every text, both give the same ``repr`` of the statement or raise
the same exception class.
"""

import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import LexError, ParseError
from repro.sql import ast, lexer
from repro.sql.parser import Parser, parse


class TokenWalk(Parser):
    """The token-level INSERT parser (the oracle)."""

    def parse_statement(self):
        if not self._check_keyword("INSERT"):
            return super().parse_statement()
        statement = self._parse_insert()
        self._accept_symbol(";")
        if self._current.type is not lexer.TokenType.EOF:
            raise ParseError(
                f"trailing input at offset {self._current.position}: "
                f"{self._current.text!r}")
        return statement

    def _parse_insert(self):
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_ident()
        self._expect_keyword("VALUES")
        rows = []
        while True:
            self._expect_symbol("(")
            values = []
            while True:
                values.append(self._parse_insert_value())
                if not self._accept_symbol(","):
                    break
            self._expect_symbol(")")
            rows.append(tuple(values))
            if not self._accept_symbol(","):
                break
        return ast.InsertStatement(table=table, rows=tuple(rows))

    def _parse_insert_value(self):
        token = self._current
        if token.type in (lexer.TokenType.INT, lexer.TokenType.FLOAT,
                          lexer.TokenType.STRING):
            self._advance()
            return token.value
        if self._accept_keyword("NULL"):
            return None
        if self._accept_keyword("TRUE"):
            return True
        if self._accept_keyword("FALSE"):
            return False
        if self._accept_symbol("-"):
            number = self._current
            if number.type not in (lexer.TokenType.INT,
                                   lexer.TokenType.FLOAT):
                raise ParseError("expected number after unary minus")
            self._advance()
            return -number.value
        raise ParseError(f"unsupported literal {token.text!r} in VALUES")


def outcome(parser, text):
    try:
        return "ok", repr(parser(text))
    except Exception as error:  # the class is what is compared
        return "error", type(error).__name__


def oracle(text):
    return TokenWalk(text).parse_statement()


def assert_same(text):
    assert outcome(parse, text) == outcome(oracle, text), repr(text)


# ----------------------------------------------------------------------
# texts

BLANK = st.sampled_from(["", " ", "  ", "\n", "\t", " -- note\n",
                         "--x\n", "\u00a0", "\r\n"])
INTS = st.integers(-10**20, 10**20).map(str)
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1.", "0.5", "1e5", "1.e3", "2.5E-3", "7e+2",
                     "00.0", "١٢", "٣.٥"]))
STRINGS = st.builds(
    lambda quote, body: quote + body.replace(quote, quote * 2) + quote,
    st.sampled_from(["'", '"']),
    st.text(st.sampled_from(list("ab ,()';\"\\-\n\u00e9")), max_size=8))
WORDS = st.sampled_from(["NULL", "null", "Null", "TRUE", "true", "False",
                         "FALSE", "nul", "NULLx", "x", "ſ", "ı"])


@st.composite
def literal(draw):
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return draw(INTS)
    if kind == 1:
        return draw(FLOATS)
    if kind == 2:
        return draw(STRINGS)
    if kind == 3:
        return draw(WORDS)
    return "-" + draw(BLANK) + draw(st.one_of(INTS, FLOATS))


TABLES = st.sampled_from(["t", "T_1", "_x", "events", "values", "select",
                          "ınto", "ſelect", "é", "²", "x²", "key", "ts"])


@st.composite
def insert_text(draw):
    def gap():
        return draw(BLANK)
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        values = [draw(literal()) for _ in range(draw(st.integers(1, 4)))]
        rows.append("(" + gap() + (gap() + "," + gap()).join(values)
                    + gap() + ")")
    text = (gap() + draw(st.sampled_from(["INSERT", "insert", "ınsert"]))
            + draw(st.sampled_from([" ", "\n", " --c\n"]))
            + draw(st.sampled_from(["INTO", "into"])) + " "
            + draw(TABLES) + " " + draw(st.sampled_from(["VALUES", "values"]))
            + gap() + (gap() + "," + gap()).join(rows))
    if draw(st.booleans()):
        text += gap() + ";"
    return text + gap()


NOISE = st.sampled_from(list("(),;-'\"\\ \n.eE5sm_x²٣\u00a0") +
                        ["--", "''", "1e", "3s", "NULL", "VALUES", "\x00"])


@st.composite
def mutated_text(draw):
    text = draw(insert_text())
    rng = random.Random(draw(st.integers(0, 2**32)))
    for _ in range(draw(st.integers(1, 3))):
        at = rng.randrange(len(text) + 1)
        action = rng.randrange(3)
        if action == 0:
            text = text[:at] + text[at + 1:]
        elif action == 1:
            text = text[:at] + draw(NOISE) + text[at:]
        else:
            cut = rng.randrange(at, len(text) + 1)
            text = text[:at] + text[cut:]
    return text


# ----------------------------------------------------------------------
# the differential

@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(insert_text())
def test_valid_texts_match_the_token_walk(text):
    assert_same(text)


@settings(max_examples=800, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_text())
@example("INSERT INTO t VALUES (1, 2")
@example("INSERT INTO t VALUES (1,")
@example("INSERT INTO t VALUES (1, -- tail")
@example("INSERT INTO t VALUES (1,)")
@example("INSERT INTO t VALUES (1) -- tail,")
@example("INSERT INTO t VALUES (1) -- tail(")
@example("INSERT INTO t VALUES (1),(")
@example("INSERT INTO t VALUES (1), (2) ;")
@example("INSERT INTO t VALUES (1);;")
@example("INSERT INTO t VALUES (1) x ²")
@example("INSERT INTO ² VALUES (1)")
@example("INSERT INTO values VALUES (1)")
@example("INSERT INTOx VALUES (1)")
@example("INSERTINTO t VALUES (1)")
@example("INSERT INTO t VALUES (3s)")
@example("INSERT INTO t VALUES (- -1)")
@example("INSERT INTO t VALUES (-\n--c\n1)")
@example("INSERT INTO t VALUES (---1\n)")
@example("INSERT INTO t VALUES (1e)")
@example("INSERT INTO t VALUES (1.5.3)")
@example("INSERT INTO t VALUES ('a'',1)")
@example("INSERT INTO t VALUES ('a\\')")
@example("INSERT INTO t VALUES (\"\")")
@example("INSERT INTO t VALUES ()")
@example("INSERT INTO t VALUES")
@example("INSERT")
@example("ınsert ınto t values (١٢, -٣.٥)")
def test_mutated_texts_match_the_token_walk(text):
    assert_same(text)


@pytest.mark.parametrize("text", [
    "INSERT INTO t VALUES (1, 2.5, 'a''b', \"c\\\"d\", NULL, true, False)",
    "insert into t values (1), (2) ;",
    "  -- lead\nINSERT INTO t VALUES (- 5, -\t2.5e3) -- tail",
    "INSERT INTO t VALUES (1,2)\n;\n",
])
def test_accepted_literals(text):
    assert_same(text)
    assert isinstance(parse(text), ast.InsertStatement)


def test_errors_keep_their_class():
    with pytest.raises(LexError):
        parse("INSERT INTO ² VALUES (1)")
    with pytest.raises(LexError):
        parse("INSERT INTO t VALUES (1, 2) @")
    with pytest.raises(ParseError):
        parse("INSERT INTO t VALUES (1 + 2)")


def test_insert_text_is_not_tokenized(monkeypatch):
    def refuse(sql):
        raise AssertionError("tokenized INSERT text")
    import repro.sql.parser as parser_module
    monkeypatch.setattr(parser_module, "tokenize", refuse)
    assert parse("INSERT INTO t VALUES (1, 'a')").rows == ((1, "a"),)
    with pytest.raises(ParseError):
        parse("INSERT INTO t VALUES (1 + 2)")
