"""The statement surface of the network frontend.

The socket layer is deliberately thin (the omni-sql control-plane /
data-plane split): the **data plane** is ``EXECUTE <deployment> (...)``
— one request tuple in, one feature row out, the network spelling of
``FrontendServer.request`` — plus the session knobs clients need
(``SET statement_timeout``, ``SHOW``, ``SELECT 1`` health checks, and
transaction no-ops so drivers that bracket everything in BEGIN/COMMIT
work).  Everything else (``CREATE TABLE`` / ``INSERT`` / ``DEPLOY``)
is **control plane** and only accepted when the server was given an
admin backend; arbitrary analytics SQL is rejected — run it in-process
through the offline engine.

This module only *classifies* query text; execution lives in
:mod:`repro.netserve.server`.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Any, Optional, Tuple, Union

from ..errors import ParseError

__all__ = [
    "Param", "ExecuteDeployment", "SetOption", "ShowOption",
    "SelectConstant", "TransactionNoop", "ControlStatement",
    "EmptyStatement", "classify", "split_statements",
    "parse_timeout_ms",
]


@dataclasses.dataclass(frozen=True)
class Param:
    """A ``$n`` placeholder (0-based ``index``) awaiting a Bind value."""

    index: int


@dataclasses.dataclass(frozen=True)
class ExecuteDeployment:
    """``EXECUTE name (arg, ...)`` — the data-plane request form.

    ``args`` holds literals and :class:`Param` placeholders in request
    row order; an argument-less ``EXECUTE name`` means "every column is
    a placeholder" and is resolved against the deployment's schema at
    prepare time.
    """

    deployment: str
    args: Optional[Tuple[Union[Param, Any], ...]]  # None = all params


@dataclasses.dataclass(frozen=True)
class SetOption:
    name: str
    value: str


@dataclasses.dataclass(frozen=True)
class ShowOption:
    name: str


@dataclasses.dataclass(frozen=True)
class SelectConstant:
    """``SELECT <int>`` — the classic connectivity health check."""

    value: int


@dataclasses.dataclass(frozen=True)
class TransactionNoop:
    """BEGIN/COMMIT/ROLLBACK — accepted, answered, and ignored.

    The serving path has no transactions (a request is read-only and
    self-contained), but PostgreSQL drivers bracket work in them by
    default; rejecting them would make every ORM-shaped client fail.
    """

    tag: str


@dataclasses.dataclass(frozen=True)
class ControlStatement:
    """CREATE TABLE / INSERT / DEPLOY — forwarded to the admin backend."""

    kind: str           # "CREATE TABLE" | "INSERT" | "DEPLOY"
    sql: str


@dataclasses.dataclass(frozen=True)
class EmptyStatement:
    pass


_EXECUTE = re.compile(r"^execute\s+(?P<name>[A-Za-z_][\w]*)"
                      r"\s*(?:\((?P<args>.*)\))?\s*$",
                      re.IGNORECASE | re.DOTALL)
_SET = re.compile(r"^set\s+(?:session\s+)?(?P<name>[A-Za-z_][\w.]*)\s+"
                  r"(?:to|=)\s+(?P<value>.+?)\s*$", re.IGNORECASE)
_SHOW = re.compile(r"^show\s+(?P<name>[A-Za-z_][\w.]*)\s*$", re.IGNORECASE)
_SELECT_CONST = re.compile(r"^select\s+(?P<value>\d+)\s*$", re.IGNORECASE)
_TXN = {"begin": "BEGIN", "start transaction": "BEGIN",
        "commit": "COMMIT", "end": "COMMIT", "rollback": "ROLLBACK",
        "abort": "ROLLBACK"}

_ARG = re.compile(r"""
    \s*(?:
        (?P<param>\$\d+)
      | (?P<string>'(?:[^']|'')*')
      | (?P<number>[+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<word>[A-Za-z_]+)
    )\s*(?P<sep>,|$)""", re.VERBOSE)


def _parse_args(text: str) -> Tuple[Union[Param, Any], ...]:
    args = []
    position = 0
    text = text.strip()
    if not text:
        return ()
    while position < len(text):
        match = _ARG.match(text, position)
        if match is None:
            raise ParseError(
                f"malformed EXECUTE argument near {text[position:]!r}")
        if match.group("param"):
            index = int(match.group("param")[1:])
            if index < 1:
                raise ParseError("parameters are numbered from $1")
            args.append(Param(index - 1))
        elif match.group("string"):
            args.append(match.group("string")[1:-1].replace("''", "'"))
        elif match.group("number"):
            number = match.group("number")
            args.append(float(number) if any(c in number for c in ".eE")
                        else int(number))
        else:
            word = match.group("word").lower()
            if word == "null":
                args.append(None)
            elif word == "true":
                args.append(True)
            elif word == "false":
                args.append(False)
            else:
                raise ParseError(f"unexpected token {word!r} in EXECUTE "
                                 "arguments (literals and $n only)")
        position = match.end()
        if match.group("sep") == "" and position < len(text):
            raise ParseError(
                f"malformed EXECUTE argument near {text[position:]!r}")
    return tuple(args)


def _execute(text: str) -> Optional[ExecuteDeployment]:
    match = _EXECUTE.match(text)
    if match is None:
        return None
    raw_args = match.group("args")
    return ExecuteDeployment(
        deployment=match.group("name"),
        args=None if raw_args is None else _parse_args(raw_args))


def _set(text: str) -> Optional[SetOption]:
    match = _SET.match(text)
    if match is None:
        return None
    value = match.group("value").strip()
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
        value = value[1:-1]
    return SetOption(match.group("name").lower(), value)


def _show(text: str) -> Optional[ShowOption]:
    match = _SHOW.match(text)
    return None if match is None else ShowOption(match.group("name").lower())


def _select_constant(text: str) -> Optional[SelectConstant]:
    match = _SELECT_CONST.match(text)
    return None if match is None else SelectConstant(
        int(match.group("value")))


#: Head word → the one form that can start with it.  Each pattern needs
#: its keyword then whitespace, so the text's first word is the keyword.
_FORMS = {"execute": _execute, "set": _set, "show": _show,
          "select": _select_constant}
_CONTROL = {"create": "CREATE TABLE", "insert": "INSERT",
            "deploy": "DEPLOY"}


def classify(sql: str):
    """Classify one statement's text into its netserve form.

    The head word picks the one form to try.  Raises
    :class:`~repro.errors.ParseError` (SQLSTATE 42601) for text that
    matches no accepted form — including general SELECTs, which the
    serving frontend deliberately refuses.
    """
    text = sql.strip().rstrip(";").strip()
    if not text:
        return EmptyStatement()
    lowered = text.lower()
    if lowered in _TXN:
        return TransactionNoop(_TXN[lowered])
    head = lowered.split(None, 1)[0]
    # casefold, as the patterns' IGNORECASE does: "ſet" is "set".
    form = _FORMS.get(head.casefold())
    statement = None if form is None else form(text)
    if statement is not None:
        return statement
    if head in _CONTROL:
        return ControlStatement(kind=_CONTROL[head], sql=text)
    raise ParseError(
        f"statement not served over the wire: {text.split(None, 1)[0]!r} "
        "(the network frontend serves EXECUTE <deployment>, SET, SHOW, "
        "SELECT <n>, and — with an admin backend — CREATE TABLE / "
        "INSERT / DEPLOY)")


#: A quoted string (``''`` reads as two adjacent strings, which quotes
#: the same characters; an unterminated one runs to the end) or a
#: semicolon: every ``;`` this finds is a top-level one.
_QUOTED_OR_SEMICOLON = re.compile(r"'[^']*'?|;")


def split_statements(sql: str):
    """Split a simple-query string on top-level semicolons.

    Quote-aware (single quotes with ``''`` escapes), because the simple
    protocol allows multiple statements per message.  Text with no
    ``;`` — nearly every message — is one statement as it stands.
    """
    if ";" not in sql:
        return [sql.strip()]
    statements = []
    start = 0
    for match in _QUOTED_OR_SEMICOLON.finditer(sql):
        if match.group() == ";":
            statements.append(sql[start:match.start()])
            start = match.end()
    statements.append(sql[start:])
    return [statement for statement in
            (piece.strip() for piece in statements) if statement] or [""]


_TIMEOUT_UNITS_MS = {"us": 0.001, "ms": 1.0, "s": 1_000.0,
                     "min": 60_000.0, "h": 3_600_000.0, "d": 86_400_000.0}
_TIMEOUT = re.compile(r"^(?P<value>\d+(?:\.\d+)?)\s*(?P<unit>[a-z]*)$")


def parse_timeout_ms(value: str) -> Optional[float]:
    """Parse a ``statement_timeout`` value; 0 disables (returns None).

    Accepts PostgreSQL's forms: a bare number of milliseconds or a
    number with a unit (``us``/``ms``/``s``/``min``/``h``/``d``).
    """
    match = _TIMEOUT.match(value.strip().lower())
    if match is None:
        raise ParseError(f"invalid statement_timeout value: {value!r}")
    unit = match.group("unit") or "ms"
    if unit not in _TIMEOUT_UNITS_MS:
        raise ParseError(f"invalid statement_timeout unit: {value!r}")
    timeout_ms = float(match.group("value")) * _TIMEOUT_UNITS_MS[unit]
    return timeout_ms if timeout_ms > 0 else None
