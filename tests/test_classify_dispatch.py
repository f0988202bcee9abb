"""``classify`` against the pattern-by-pattern walk it replaced.

``classify`` looks up the statement's head word and tries at most that
form's pattern.  :func:`walk_classify` below is the classifier before
that: every pattern in turn, then the control-statement check — kept
here as the oracle.  For every text, both give the same ``repr`` or
raise the same exception class.
"""

import re

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.netserve.statements import (
    ControlStatement, EmptyStatement, ExecuteDeployment, SelectConstant,
    SetOption, ShowOption, TransactionNoop, _parse_args, classify)

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


def walk_classify(sql):
    """The classifier that tried every pattern in turn (the oracle)."""
    text = sql.strip().rstrip(";").strip()
    if not text:
        return EmptyStatement()
    lowered = text.lower()
    if lowered in _TXN:
        return TransactionNoop(_TXN[lowered])
    match = _EXECUTE.match(text)
    if match is not None:
        raw_args = match.group("args")
        return ExecuteDeployment(
            deployment=match.group("name"),
            args=None if raw_args is None else _parse_args(raw_args))
    match = _SET.match(text)
    if match is not None:
        value = match.group("value").strip()
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
            value = value[1:-1]
        return SetOption(match.group("name").lower(), value)
    match = _SHOW.match(text)
    if match is not None:
        return ShowOption(match.group("name").lower())
    match = _SELECT_CONST.match(text)
    if match is not None:
        return SelectConstant(int(match.group("value")))
    head = lowered.split(None, 2)
    if head and head[0] in ("create", "insert", "deploy"):
        kind = {"create": "CREATE TABLE", "insert": "INSERT",
                "deploy": "DEPLOY"}[head[0]]
        return ControlStatement(kind=kind, sql=text)
    raise ParseError(f"statement not served over the wire: "
                     f"{text.split(None, 1)[0]!r}")


def outcome(classifier, text):
    try:
        return repr(classifier(text))
    except Exception as exc:  # the class is the contract
        return type(exc)


#: Every statement text the netserve tests, the wire fuzzer and
#: perfbench send, plus the edges of each form.
CORPUS = [
    "EXECUTE feat (1, 2.5, 'a''b', NULL, true, false)",
    "execute feat ($1, 7, $2)", "EXECUTE feat", "EXECUTE feat (1 2)",
    "EXECUTE feat (frobnicate)", "EXECUTE feat ($0)",
    "EXECUTE feat (2, 1500, 1.0)", "EXECUTE feat ($1, $2, $3)",
    "EXECUTE feat (3, $1, 1.0)", "EXECUTE feat (1, 1500, 0.0)",
    "EXECUTE feat ()", "EXECUTE feat(1)", "execute\tfeat\n(1)",
    "EXECUTEfeat (1)", "EXECUTE 9feat (1)", "EXECUTE feat (1",
    "SET statement_timeout = '50ms'", "SET SESSION statement_timeout TO 50",
    "set statement_timeout to \"5s\"", "SET x =", "SET x = ''",
    "SHOW statement_timeout", "SHOW server_version", "show a.b",
    "SHOW", "SHOW a b", "SELECT 1", "select   42  ", "SELECT -1",
    "SELECT * FROM t", "SELECT", "BEGIN", "commit;", "START TRANSACTION",
    "start  transaction", "end", "abort", "rollback", "", "  ;  ",
    "CREATE TABLE x (a int, ts timestamp, INDEX(KEY=a, TS=ts))",
    "INSERT INTO x VALUES (1, 2)", "DEPLOY d SELECT a FROM x",
    "INSERT INTO t VALUES ('k1', 1500, 1.0, 2.0, 3.0)", "insert",
    "DROP TABLE t", "explain select 1", "ſet x = 1", "ſhow x",
    "ſelect 7", "ſelect x", "SET ſession x TO 1", "exeCUTE f (1)",
]

#: Characters the mutations draw from: the keywords' letters in both
#: cases, the characters IGNORECASE folds onto them, every kind of
#: whitespace, and the punctuation the forms read.
ALPHABET = ("executsthowlaionrdbgEXCUTSHOWLAINRDBGſK"
            " \t\n\r\x0b\x0c\x1c\x85\xa0 　"
            "0123456789$'\";,()=.-_*")


@st.composite
def mutated(draw):
    text = draw(st.sampled_from(CORPUS))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("insert", "replace", "delete")))
        piece = draw(st.text(alphabet=ALPHABET, min_size=1, max_size=3))
        if edit == "insert":
            text = text[:at] + piece + text[at:]
        elif edit == "replace":
            text = text[:at] + piece + text[at + len(piece):]
        else:
            text = text[:at] + text[at + len(piece):]
    return text


def test_corpus_matches_the_walk():
    for text in CORPUS:
        assert outcome(classify, text) == outcome(walk_classify, text), text


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated())
@example("ſet　x TO 1")
def test_mutated_texts_match_the_walk(text):
    assert outcome(classify, text) == outcome(walk_classify, text)
