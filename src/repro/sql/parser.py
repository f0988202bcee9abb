"""Recursive-descent parser for OpenMLDB SQL.

Accepts the SQL subset the paper exercises (Section 4.1 / Table 1):

* ``SELECT`` with expressions, aggregate calls ``OVER`` named windows,
  ``LAST JOIN ... [ORDER BY ts] ON ...``, ``WHERE``, ``LIMIT``;
* the ``WINDOW`` clause with OpenMLDB extensions — ``UNION`` of secondary
  stream tables, ``ROWS``/``ROWS_RANGE`` frames (with interval literals),
  ``EXCLUDE CURRENT_ROW``, ``INSTANCE_NOT_IN_WINDOW``, ``MAXSIZE``;
* DDL/DML needed by the examples: ``CREATE TABLE`` (with ``INDEX(KEY=...,
  TS=..., TTL=...)``), ``INSERT INTO ... VALUES``, and ``DEPLOY name
  [OPTIONS(...)] SELECT ...`` for long-window deployment options (Fig. 11).

The paper writes ``ROWS BETWEEN 3s PRECEDING``; an interval bound inside a
ROWS frame is normalised to a ROWS_RANGE frame here, mirroring OpenMLDB's
tolerant treatment.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from ..errors import ParseError
from . import ast
from .lexer import (BLANKS, FLOAT, INT, KEYWORDS, STRING, WORD, Token,
                    TokenType, check, string_value, tokenize)

__all__ = ["parse", "parse_select", "Parser"]

# The token helpers run once or twice per token; enum member lookups
# there are worth hoisting.
_EOF, _KEYWORD, _SYMBOL, _IDENT = (TokenType.EOF, TokenType.KEYWORD,
                                   TokenType.SYMBOL, TokenType.IDENT)
_LITERALS = (TokenType.INT, TokenType.FLOAT, TokenType.STRING)


def parse(sql: str):
    """Parse one SQL statement; returns the matching AST node."""
    head = _INSERT_HEAD.match(sql)
    if head is not None and head.group(1).upper() == "INSERT":
        return _scan_insert(sql, head)
    return Parser(sql).parse_statement()


def parse_select(sql: str) -> ast.SelectStatement:
    """Parse a statement that must be a SELECT."""
    statement = parse(sql)
    if not isinstance(statement, ast.SelectStatement):
        raise ParseError(f"expected SELECT, got {type(statement).__name__}")
    return statement


# ----------------------------------------------------------------------
# INSERT INTO <table> VALUES (<literal>, ...)[, (...)] [;]
#
# The per-row statement is read straight off the text with two patterns
# built from the lexer's own lexeme fragments, so it accepts exactly
# what tokenizing and a token walk would: the head, then one match per
# literal that also takes the separator after it.  Keywords compare by
# ``str.upper()``, as the lexer does.

# The first word, and — when the text is shaped like one — the INTO,
# the table name, the VALUES and the first row's "(".  Each word is
# whole ("(?!\w)"), as the lexer reads it.
_INSERT_HEAD = re.compile(
    rf"{BLANKS}({WORD})(?!\w)(?:{BLANKS}({WORD})(?!\w){BLANKS}({WORD})"
    rf"(?!\w){BLANKS}({WORD})(?!\w){BLANKS}\()?")

# One literal and the separator after it: "," before the next literal,
# ")" "," "(" before the next row, or ")" [";"] and the end of the text
# — the only match that ends there.  The group that matched names the
# literal: 1 int, 2 float, 3 string, 4 word (NULL, TRUE or FALSE), 5 / 6
# a negated int / float.
_VALUE = re.compile(rf"""{BLANKS}(?:
    ({INT}) | ({FLOAT}) | ({STRING}) | ({WORD})
  | -(?!-){BLANKS}(?:({INT})|({FLOAT}))
){BLANKS}(?:,(?!\Z)|\){BLANKS}(?:,{BLANKS}\((?!\Z)|(?:;{BLANKS})?\Z))""",
                    re.VERBOSE)

_LITERAL_WORDS = {"NULL": None, "TRUE": True, "FALSE": False}
_SKIP_BLANKS = re.compile(BLANKS).match


def _scan_insert(sql: str, head: "re.Match[str]") -> ast.InsertStatement:
    into, table, values = head.group(2, 3, 4)
    if (values is None or into.upper() != "INTO"
            or values.upper() != "VALUES" or table.upper() in KEYWORDS
            or not (table[0].isalpha() or table[0] == "_")):
        raise _rejected(sql, head.end(1))
    rows: List[Tuple[object, ...]] = []
    row: List[object] = []
    append = row.append
    position = head.end()
    end = len(sql)
    match = _VALUE.match
    while True:
        literal = match(sql, position)
        if literal is None:
            raise _rejected(sql, position)
        kind = literal.lastindex
        if kind == 1:
            append(int(literal[1]))
        elif kind == 4:
            word = literal[4].upper()
            if word not in _LITERAL_WORDS:
                raise _rejected(sql, literal.start(4))
            append(_LITERAL_WORDS[word])
        elif kind == 3:
            append(string_value(literal[3]))
        elif kind == 2:
            append(float(literal[2]))
        elif kind == 5:
            append(-int(literal[5]))
        else:
            append(-float(literal[6]))
        position = literal.end()
        if position == end:
            rows.append(tuple(row))
            return ast.InsertStatement(table=table, rows=tuple(rows))
        if sql[position - 1] == "(":
            rows.append(tuple(row))
            row = []
            append = row.append


def _rejected(sql: str, position: int) -> Exception:
    """The error for INSERT text that does not scan: what tokenizing
    raises (a :class:`~repro.errors.LexError`) if the text does not
    lex, a :class:`ParseError` otherwise."""
    check(sql)
    position = _SKIP_BLANKS(sql, position).end()
    return ParseError(f"malformed INSERT at offset {position}: "
                      f"{sql[position:position + 24]!r}")


class Parser:
    """Single-statement recursive-descent parser over the token stream
    (``SELECT``, ``CREATE TABLE``, ``DEPLOY``; :func:`parse` reads
    ``INSERT`` text without tokens)."""

    def __init__(self, sql: str) -> None:
        self._sql = sql
        self._tokens = tokenize(sql)
        self._position = 0
        self._current: Token = self._tokens[0]

    # ------------------------------------------------------------------
    # token-stream helpers

    def _advance(self) -> Token:
        token = self._current
        if token.type is not _EOF:
            self._position += 1
            self._current = self._tokens[self._position]
        return token

    def _check_keyword(self, word: str) -> bool:
        token = self._current
        return token.type is _KEYWORD and token.text == word

    def _accept_keyword(self, word: str) -> bool:
        if self._check_keyword(word):
            self._advance()
            return True
        return False

    def _expect_keyword(self, word: str) -> Token:
        if not self._check_keyword(word):
            raise ParseError(
                f"expected {word}, got {self._current.text!r} at offset "
                f"{self._current.position}")
        return self._advance()

    def _check_symbol(self, symbol: str) -> bool:
        token = self._current
        return token.type is _SYMBOL and token.text == symbol

    def _accept_symbol(self, symbol: str) -> bool:
        if self._check_symbol(symbol):
            self._advance()
            return True
        return False

    def _expect_symbol(self, symbol: str) -> Token:
        if not self._check_symbol(symbol):
            raise ParseError(
                f"expected {symbol!r}, got {self._current.text!r} at offset "
                f"{self._current.position}")
        return self._advance()

    def _expect_ident(self) -> str:
        token = self._current
        if token.type is _IDENT:
            self._advance()
            return token.text
        raise ParseError(
            f"expected identifier, got {token.text!r} at offset "
            f"{token.position}")

    def _expect_int(self) -> int:
        token = self._current
        if token.type is not TokenType.INT:
            raise ParseError(
                f"expected integer, got {token.text!r} at offset "
                f"{token.position}")
        self._advance()
        return int(token.value)

    # ------------------------------------------------------------------
    # statements

    def parse_statement(self):
        if self._check_keyword("SELECT"):
            statement = self._parse_select()
        elif self._check_keyword("CREATE"):
            statement = self._parse_create_table()
        elif self._check_keyword("DEPLOY"):
            statement = self._parse_deploy()
        else:
            raise ParseError(
                f"unsupported statement start: {self._current.text!r}")
        self._accept_symbol(";")
        if self._current.type is not TokenType.EOF:
            raise ParseError(
                f"trailing input at offset {self._current.position}: "
                f"{self._current.text!r}")
        return statement

    def _parse_deploy(self) -> ast.DeployStatement:
        self._expect_keyword("DEPLOY")
        name = self._expect_ident()
        options: List[Tuple[str, str]] = []
        if self._accept_keyword("OPTIONS"):
            self._expect_symbol("(")
            while True:
                key = self._expect_ident()
                self._expect_symbol("=")
                token = self._current
                if token.type is not TokenType.STRING:
                    raise ParseError("OPTIONS values must be string literals")
                self._advance()
                options.append((key, str(token.value)))
                if not self._accept_symbol(","):
                    break
            self._expect_symbol(")")
        select = self._parse_select()
        return ast.DeployStatement(name=name, select=select,
                                   options=tuple(options))

    def _parse_create_table(self) -> ast.CreateTableStatement:
        self._expect_keyword("CREATE")
        self._expect_keyword("TABLE")
        name = self._expect_ident()
        self._expect_symbol("(")
        columns: List[ast.ColumnDef] = []
        indexes: List[ast.IndexClause] = []
        while True:
            if self._accept_keyword("INDEX"):
                indexes.append(self._parse_index_clause())
            else:
                column_name = self._expect_ident()
                type_name = self._expect_ident()
                nullable = True
                if self._accept_keyword("NOT"):
                    self._expect_keyword("NULL")
                    nullable = False
                columns.append(ast.ColumnDef(column_name, type_name,
                                             nullable))
            if not self._accept_symbol(","):
                break
        self._expect_symbol(")")
        return ast.CreateTableStatement(name=name, columns=tuple(columns),
                                        indexes=tuple(indexes))

    def _parse_index_clause(self) -> ast.IndexClause:
        self._expect_symbol("(")
        keys: Tuple[str, ...] = ()
        ts_column = ""
        ttl_value: Optional[str] = None
        ttl_type: Optional[str] = None
        while True:
            field = self._advance()
            # KEY/TS/TTL/TTL_TYPE are contextual keywords: ordinary
            # identifiers elsewhere, field names only inside INDEX(...).
            field_name = field.text.upper() \
                if field.type is TokenType.IDENT else ""
            if field_name == "KEY":
                self._expect_symbol("=")
                if self._accept_symbol("("):
                    names = [self._expect_ident()]
                    while self._accept_symbol(","):
                        names.append(self._expect_ident())
                    self._expect_symbol(")")
                    keys = tuple(names)
                else:
                    keys = (self._expect_ident(),)
            elif field_name == "TS":
                self._expect_symbol("=")
                ts_column = self._expect_ident()
            elif field_name == "TTL":
                self._expect_symbol("=")
                token = self._advance()
                ttl_value = token.text
            elif field_name == "TTL_TYPE":
                self._expect_symbol("=")
                ttl_type = self._expect_ident()
            else:
                raise ParseError(
                    f"unexpected INDEX field {field.text!r}")
            if not self._accept_symbol(","):
                break
        self._expect_symbol(")")
        if not keys or not ts_column:
            raise ParseError("INDEX requires both KEY= and TS=")
        return ast.IndexClause(key_columns=keys, ts_column=ts_column,
                               ttl_value=ttl_value, ttl_type=ttl_type)

    # ------------------------------------------------------------------
    # SELECT

    def _parse_select(self) -> ast.SelectStatement:
        self._expect_keyword("SELECT")
        items = [self._parse_select_item()]
        while self._accept_symbol(","):
            items.append(self._parse_select_item())
        self._expect_keyword("FROM")
        table = self._expect_ident()
        table_alias: Optional[str] = None
        if self._accept_keyword("AS"):
            table_alias = self._expect_ident()
        elif self._current.type is TokenType.IDENT:
            table_alias = self._expect_ident()
        joins: List[ast.LastJoinClause] = []
        while self._check_keyword("LAST"):
            joins.append(self._parse_last_join())
        where: Optional[ast.Expr] = None
        if self._accept_keyword("WHERE"):
            where = self._parse_expr()
        windows: List[ast.WindowSpec] = []
        if self._accept_keyword("WINDOW"):
            windows.append(self._parse_window_def())
            while self._accept_symbol(","):
                windows.append(self._parse_window_def())
        limit: Optional[int] = None
        if self._accept_keyword("LIMIT"):
            limit = self._expect_int()
        return ast.SelectStatement(
            items=tuple(items), table=table, table_alias=table_alias,
            joins=tuple(joins), where=where, windows=tuple(windows),
            limit=limit)

    def _parse_select_item(self) -> ast.SelectItem:
        if self._accept_symbol("*"):
            return ast.SelectItem(ast.Star())
        # "ident.*" needs two-token lookahead before expression parsing.
        if (self._current.type is TokenType.IDENT
                and self._position + 2 < len(self._tokens)):
            dot = self._tokens[self._position + 1]
            star = self._tokens[self._position + 2]
            if (dot.type is TokenType.SYMBOL and dot.text == "."
                    and star.type is TokenType.SYMBOL and star.text == "*"):
                table = self._expect_ident()
                self._expect_symbol(".")
                self._expect_symbol("*")
                return ast.SelectItem(ast.Star(table=table))
        expr = self._parse_expr()
        alias: Optional[str] = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident()
        elif self._current.type is TokenType.IDENT:
            alias = self._expect_ident()
        return ast.SelectItem(expr, alias)

    def _parse_last_join(self) -> ast.LastJoinClause:
        self._expect_keyword("LAST")
        self._expect_keyword("JOIN")
        table = self._expect_ident()
        alias: Optional[str] = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident()
        elif self._current.type is TokenType.IDENT:
            alias = self._expect_ident()
        order_by: Optional[str] = None
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by = self._parse_column_name()
        self._expect_keyword("ON")
        condition = self._parse_expr()
        return ast.LastJoinClause(table=table, condition=condition,
                                  order_by=order_by, alias=alias)

    def _parse_column_name(self) -> str:
        """Parse ``col`` or ``t.col``; returns the bare column name."""
        first = self._expect_ident()
        if self._accept_symbol("."):
            return self._expect_ident()
        return first

    def _parse_window_def(self) -> ast.WindowSpec:
        name = self._expect_ident()
        self._expect_keyword("AS")
        self._expect_symbol("(")
        union_tables: List[str] = []
        if self._accept_keyword("UNION"):
            union_tables.append(self._expect_ident())
            while self._accept_symbol(","):
                union_tables.append(self._expect_ident())
        self._expect_keyword("PARTITION")
        self._expect_keyword("BY")
        partition_by = [self._parse_column_name()]
        while self._accept_symbol(","):
            partition_by.append(self._parse_column_name())
        self._expect_keyword("ORDER")
        self._expect_keyword("BY")
        order_by = self._parse_column_name()
        self._accept_keyword("ASC") or self._accept_keyword("DESC")
        frame_type, start, end = self._parse_frame()
        exclude_current_row = False
        instance_not_in_window = False
        maxsize: Optional[int] = None
        while True:
            if self._accept_keyword("EXCLUDE"):
                self._expect_keyword("CURRENT_ROW")
                exclude_current_row = True
            elif self._accept_keyword("INSTANCE_NOT_IN_WINDOW"):
                instance_not_in_window = True
            elif self._accept_keyword("MAXSIZE"):
                maxsize = self._expect_int()
            else:
                break
        self._expect_symbol(")")
        return ast.WindowSpec(
            name=name, partition_by=tuple(partition_by), order_by=order_by,
            frame_type=frame_type, start=start, end=end,
            union_tables=tuple(union_tables),
            exclude_current_row=exclude_current_row,
            instance_not_in_window=instance_not_in_window, maxsize=maxsize)

    def _parse_frame(self):
        if self._accept_keyword("ROWS_RANGE"):
            frame_type = ast.FrameType.ROWS_RANGE
        else:
            self._expect_keyword("ROWS")
            frame_type = ast.FrameType.ROWS
        self._expect_keyword("BETWEEN")
        start, start_is_interval = self._parse_frame_bound()
        self._expect_keyword("AND")
        end, end_is_interval = self._parse_frame_bound()
        # Interval bound inside a ROWS frame → the paper's shorthand for a
        # time-range frame; normalise.
        if frame_type == ast.FrameType.ROWS and (start_is_interval
                                                 or end_is_interval):
            frame_type = ast.FrameType.ROWS_RANGE
        return frame_type, start, end

    def _parse_frame_bound(self) -> Tuple[ast.FrameBound, bool]:
        if self._accept_keyword("UNBOUNDED"):
            self._expect_keyword("PRECEDING")
            return ast.FrameBound(unbounded=True), False
        if self._accept_keyword("CURRENT"):
            self._expect_keyword("ROW")
            return ast.FrameBound(current_row=True), False
        if self._accept_keyword("CURRENT_ROW"):
            return ast.FrameBound(current_row=True), False
        token = self._current
        if token.type is TokenType.INTERVAL:
            self._advance()
            self._expect_keyword("PRECEDING")
            return ast.FrameBound(offset=int(token.value)), True
        if token.type is TokenType.INT:
            self._advance()
            self._expect_keyword("PRECEDING")
            return ast.FrameBound(offset=int(token.value)), False
        raise ParseError(
            f"invalid frame bound at offset {token.position}: "
            f"{token.text!r}")

    # ------------------------------------------------------------------
    # expressions (precedence climbing)

    def _parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self._accept_keyword("OR"):
            left = ast.BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self._accept_keyword("AND"):
            left = ast.BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expr:
        if self._accept_keyword("NOT"):
            return ast.UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_additive()
        while True:
            if self._current.type is TokenType.SYMBOL and \
                    self._current.text in ("=", "!=", "<>", "<", "<=", ">",
                                           ">="):
                op = self._advance().text
                if op == "<>":
                    op = "!="
                left = ast.BinaryOp(op, left, self._parse_additive())
                continue
            if self._accept_keyword("IS"):
                negated = self._accept_keyword("NOT")
                self._expect_keyword("NULL")
                op = "IS NOT NULL" if negated else "IS NULL"
                left = ast.UnaryOp(op, left)
                continue
            if self._accept_keyword("LIKE"):
                left = ast.BinaryOp("LIKE", left, self._parse_additive())
                continue
            return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while True:
            if self._check_symbol("+") or self._check_symbol("-") \
                    or self._check_symbol("||"):
                op = self._advance().text
                left = ast.BinaryOp(op, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while True:
            if self._check_symbol("*") or self._check_symbol("/") \
                    or self._check_symbol("%"):
                op = self._advance().text
                left = ast.BinaryOp(op, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> ast.Expr:
        if self._accept_symbol("-"):
            return ast.UnaryOp("-", self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        token = self._current
        if token.type in _LITERALS:
            self._advance()
            return ast.Literal(token.value)
        if self._accept_keyword("NULL"):
            return ast.Literal(None)
        if self._accept_keyword("TRUE"):
            return ast.Literal(True)
        if self._accept_keyword("FALSE"):
            return ast.Literal(False)
        if self._accept_keyword("CASE"):
            return self._parse_case()
        if self._accept_symbol("("):
            inner = self._parse_expr()
            self._expect_symbol(")")
            return inner
        if token.type is TokenType.IDENT:
            return self._parse_reference_or_call()
        raise ParseError(
            f"unexpected token {token.text!r} at offset {token.position}")

    def _parse_case(self) -> ast.Expr:
        branches: List[Tuple[ast.Expr, ast.Expr]] = []
        while self._accept_keyword("WHEN"):
            condition = self._parse_expr()
            self._expect_keyword("THEN")
            branches.append((condition, self._parse_expr()))
        default: Optional[ast.Expr] = None
        if self._accept_keyword("ELSE"):
            default = self._parse_expr()
        self._expect_keyword("END")
        if not branches:
            raise ParseError("CASE requires at least one WHEN branch")
        return ast.CaseWhen(tuple(branches), default)

    def _parse_reference_or_call(self) -> ast.Expr:
        name = self._expect_ident()
        if self._accept_symbol("("):
            args: List[ast.Expr] = []
            if not self._check_symbol(")"):
                args.append(self._parse_expr())
                while self._accept_symbol(","):
                    args.append(self._parse_expr())
            self._expect_symbol(")")
            over: Optional[str] = None
            if self._accept_keyword("OVER"):
                over = self._expect_ident()
            return ast.FuncCall(name.lower(), tuple(args), over=over)
        if self._accept_symbol("."):
            column = self._expect_ident()
            return ast.ColumnRef(column, table=name)
        return ast.ColumnRef(name)
