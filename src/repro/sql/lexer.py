"""Tokenizer for OpenMLDB SQL.

Produces a flat token stream for the recursive-descent parser.  Beyond
standard SQL lexemes it recognises the OpenMLDB extensions the paper's
Table 1 relies on:

* **interval literals** — ``3s``, ``5m``, ``2h``, ``100d`` inside window
  frames (``ROWS_RANGE BETWEEN 3s PRECEDING AND CURRENT ROW``);
* multi-word keywords are left as individual tokens (``LAST JOIN``,
  ``ROWS_RANGE`` is a single lexeme in OpenMLDB and handled here).

String literals take either quote; inside one, a backslash escapes the
next character and a doubled quote (``'it''s'``) is the standard SQL
escape for the quote itself.

The scan is one compiled master pattern: each alternative is a lexeme
class, so a statement is tokenized by C-level matching plus one
``Token`` per lexeme.  ``SELECT`` / ``CREATE TABLE`` / ``DEPLOY`` text
comes through here; ``INSERT … VALUES`` text does not — the parser
scans it with patterns built from the same lexeme fragments
(:data:`WORD`, :data:`INT`, :data:`FLOAT`, :data:`STRING`,
:data:`BLANKS`) and calls :func:`check` only on text it rejects, to
raise the :class:`~repro.errors.LexError` tokenizing would.
"""

from __future__ import annotations

import enum
import re
from typing import Iterator, List, Tuple

from ..errors import LexError

__all__ = ["TokenType", "Token", "tokenize", "check", "string_value",
           "KEYWORDS", "WORD", "INT", "FLOAT", "STRING", "BLANKS"]


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    INT = "int"
    FLOAT = "float"
    STRING = "string"
    INTERVAL = "interval"  # value is milliseconds
    SYMBOL = "symbol"
    EOF = "eof"


KEYWORDS = frozenset({
    "SELECT", "FROM", "WHERE", "WINDOW", "AS", "UNION", "PARTITION", "BY",
    "ORDER", "ROWS", "ROWS_RANGE", "BETWEEN", "PRECEDING", "FOLLOWING",
    "AND", "OR", "NOT", "CURRENT", "ROW", "CURRENT_ROW", "LAST", "JOIN",
    "ON", "OVER", "EXCLUDE", "MAXSIZE", "INSTANCE_NOT_IN_WINDOW", "LIMIT",
    "ASC", "DESC", "IS", "NULL", "TRUE", "FALSE", "CASE", "WHEN", "THEN",
    "ELSE", "END", "CREATE", "TABLE", "INDEX",
    "INSERT", "INTO", "VALUES", "DEPLOY", "OPTIONS", "IN",
    "GROUP", "HAVING", "DISTINCT", "UNBOUNDED", "LIKE",
})
# KEY / TS / TTL / TTL_TYPE are contextual: they only act as keywords
# inside an INDEX(...) clause, so common column names like "key" and
# "ts" stay usable everywhere else.

_INTERVAL_UNITS_MS = {
    "s": 1_000,
    "m": 60_000,
    "h": 3_600_000,
    "d": 86_400_000,
}

# The lexeme classes other patterns share.  An int is digits not
# followed by a ".", an exponent or an interval unit that ends the word
# ("3s" is an interval, "3sec" INT + IDENT); a float the same digits
# with a fraction and/or an exponent.  None of them holds a capturing
# group, a blank or a "#", so each drops into a VERBOSE pattern as is.
WORD = r"[^\W\d]\w*"
INT = r"\d+(?![\d.eE]|[smhd](?!\w))"
FLOAT = r"\d+(?:\.\d*)?[eE][+-]?\d+|\d+\.\d*(?![\deE])"
STRING = (r"'(?:[^'\\]|\\[\s\S]|'')*'"
          r'|"(?:[^"\\]|\\[\s\S]|"")*"')
#: Blanks and ``--`` comments between two lexemes.  A comment runs to
#: the end of its line (the lookahead stops a failed match from
#: re-splitting ``----`` into shorter comments), so a failed match
#: backtracks over a run of blanks in linear time.
BLANKS = r"\s*(?:--[^\n]*(?![^\n])\s*)*"

# One match per lexeme, leading whitespace included.  The common
# lexemes come first; "--" is a comment, never two minuses.  Every
# non-space character matches something ("bad" becomes the LexError),
# and "skip" also takes the end of input, so trailing blanks are one
# match.
_TOKEN = re.compile(rf"""\s*(?:
    (?P<word>{WORD})
  | (?P<int>{INT})
  | (?P<symbol><=|>=|!=|<>|\|\||-(?!-)|[(),.*+/%=<>;])
  | (?P<string>{STRING})
  | (?P<interval>\d+[smhd](?!\w))
  | (?P<float>{FLOAT})
  | (?P<badexp>\d+(?:\.\d*)?[eE][+-]?)
  | (?P<skip>--[^\n]*|\Z)
  | (?P<bad>\S)
)""", re.VERBOSE)

# Inside a literal: a backslash takes the next character as is, a
# doubled quote stands for one.
_ESCAPES = {"'": re.compile(r"\\([\s\S])|'(')"),
            '"': re.compile(r'\\([\s\S])|"(")')}


def _unescape(match: "re.Match[str]") -> str:
    return match.group(match.lastindex)


def string_value(text: str) -> str:
    """The value of a :data:`STRING` lexeme (quotes included)."""
    quote, body = text[0], text[1:-1]
    if "\\" in body or quote + quote in body:
        body = _ESCAPES[quote].sub(_unescape, body)
    return body


# Enum member lookups cost a dict probe each; the scan makes one per
# lexeme, so it reads module-level aliases.
_KEYWORD, _IDENT, _INT, _FLOAT = (TokenType.KEYWORD, TokenType.IDENT,
                                  TokenType.INT, TokenType.FLOAT)
_STRING, _INTERVAL, _SYMBOL = (TokenType.STRING, TokenType.INTERVAL,
                               TokenType.SYMBOL)


class Token:
    """One lexeme: its type, source text, value, and source offset."""

    __slots__ = ("type", "text", "value", "position")

    def __init__(self, type: TokenType, text: str, value: object,
                 position: int) -> None:
        self.type = type
        self.text = text
        self.value = value
        self.position = position

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Token({self.type.name}, {self.text!r})"


def tokenize(sql: str) -> List[Token]:
    """Tokenize ``sql``; always ends with an EOF token.

    Raises:
        LexError: on characters outside the grammar, malformed float
            exponents or unterminated strings.
    """
    tokens = [Token(*lexeme) for lexeme in _lexemes(sql)]
    tokens.append(Token(TokenType.EOF, "", None, len(sql)))
    return tokens


def check(sql: str) -> None:
    """Raise what :func:`tokenize` raises on ``sql``, building no token."""
    for _lexeme in _lexemes(sql):
        pass


def _lexemes(sql: str) -> Iterator[Tuple[TokenType, str, object, int]]:
    """``(type, text, value, offset)`` per lexeme, in order."""
    for match in _TOKEN.finditer(sql):
        kind = match.lastgroup
        text = match.group(kind)
        start = match.start(kind)
        if kind == "word":
            upper = text.upper()
            if upper in KEYWORDS:
                yield _KEYWORD, upper, upper, start
            elif text[0].isalpha() or text[0] == "_":
                yield _IDENT, text, text, start
            else:  # a digit-like character that is not a decimal digit
                raise LexError(f"unexpected character {text[0]!r}", start)
        elif kind == "int":
            yield _INT, text, int(text), start
        elif kind == "symbol":
            yield _SYMBOL, text, text, start
        elif kind == "string":
            yield _STRING, text, string_value(text), start
        elif kind == "float":
            yield _FLOAT, text, float(text), start
        elif kind == "interval":
            yield (_INTERVAL, text,
                   int(text[:-1]) * _INTERVAL_UNITS_MS[text[-1]], start)
        elif kind == "skip":
            continue
        elif kind == "badexp":
            raise LexError("malformed float exponent", match.end())
        elif text in ("'", '"'):
            raise LexError("unterminated string literal", start)
        else:
            raise LexError(f"unexpected character {text!r}", start)
