"""Tests for the OpenMLDB SQL parser."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LexError, ParseError
from repro.sql import ast
from repro.sql.parser import parse, parse_select


class TestSelectBasics:
    def test_simple_select(self):
        statement = parse_select("SELECT a, b FROM t")
        assert statement.table == "t"
        assert len(statement.items) == 2
        assert statement.items[0].expr == ast.ColumnRef("a")

    def test_aliases(self):
        statement = parse_select("SELECT a AS x, b y FROM t")
        assert statement.items[0].alias == "x"
        assert statement.items[1].alias == "y"

    def test_table_alias(self):
        statement = parse_select("SELECT a FROM trades t")
        assert statement.table_alias == "t"

    def test_star_and_qualified_star(self):
        statement = parse_select("SELECT *, t.* FROM t")
        assert isinstance(statement.items[0].expr, ast.Star)
        assert statement.items[1].expr == ast.Star(table="t")

    def test_where_and_limit(self):
        statement = parse_select(
            "SELECT a FROM t WHERE a > 5 AND b = 'x' LIMIT 10")
        assert statement.limit == 10
        assert isinstance(statement.where, ast.BinaryOp)
        assert statement.where.op == "AND"

    def test_trailing_semicolon_ok(self):
        parse_select("SELECT a FROM t;")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse("SELECT a FROM t garbage extra ,")

    def test_unsupported_statement(self):
        with pytest.raises(ParseError):
            parse("DROP TABLE t")


class TestExpressions:
    def _expr(self, text):
        return parse_select(f"SELECT {text} AS e FROM t").items[0].expr

    def test_precedence_mul_over_add(self):
        expr = self._expr("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_parentheses(self):
        expr = self._expr("(1 + 2) * 3")
        assert expr.op == "*"
        assert expr.left.op == "+"

    def test_comparison_chain(self):
        expr = self._expr("a <= b")
        assert expr.op == "<="

    def test_neq_normalised(self):
        assert self._expr("a <> b").op == "!="

    def test_not_and_or(self):
        expr = self._expr("NOT a OR b AND c")
        assert expr.op == "OR"
        assert isinstance(expr.left, ast.UnaryOp)
        assert expr.right.op == "AND"

    def test_is_null(self):
        expr = self._expr("a IS NULL")
        assert expr == ast.UnaryOp("IS NULL", ast.ColumnRef("a"))
        expr2 = self._expr("a IS NOT NULL")
        assert expr2.op == "IS NOT NULL"

    def test_case_when(self):
        expr = self._expr("CASE WHEN a > 1 THEN 'hi' ELSE 'lo' END")
        assert isinstance(expr, ast.CaseWhen)
        assert len(expr.branches) == 1
        assert expr.default == ast.Literal("lo")

    def test_case_requires_when(self):
        with pytest.raises(ParseError):
            self._expr("CASE ELSE 1 END")

    def test_unary_minus(self):
        expr = self._expr("-a + 3")
        assert expr.op == "+"
        assert isinstance(expr.left, ast.UnaryOp)

    def test_literals(self):
        assert self._expr("NULL") == ast.Literal(None)
        assert self._expr("TRUE") == ast.Literal(True)
        assert self._expr("3.5") == ast.Literal(3.5)
        assert self._expr("'s'") == ast.Literal("s")

    def test_string_concat(self):
        assert self._expr("a || b").op == "||"

    def test_like(self):
        assert self._expr("a LIKE 'x%'").op == "LIKE"

    def test_scalar_function_call(self):
        expr = self._expr("substr(name, 1, 3)")
        assert isinstance(expr, ast.FuncCall)
        assert expr.name == "substr"
        assert len(expr.args) == 3
        assert expr.over is None

    def test_qualified_column(self):
        assert self._expr("t.col") == ast.ColumnRef("col", table="t")


class TestWindows:
    SQL = ("SELECT sum(v) OVER w AS s FROM t WINDOW w AS "
           "(PARTITION BY k ORDER BY ts "
           "ROWS BETWEEN 10 PRECEDING AND CURRENT ROW)")

    def test_basic_window(self):
        statement = parse_select(self.SQL)
        window = statement.window("w")
        assert window.partition_by == ("k",)
        assert window.order_by == "ts"
        assert window.frame_type == ast.FrameType.ROWS
        assert window.start.offset == 10
        assert window.end.current_row

    def test_over_binding(self):
        statement = parse_select(self.SQL)
        call = statement.items[0].expr
        assert isinstance(call, ast.FuncCall)
        assert call.over == "w"

    def test_rows_range_interval(self):
        statement = parse_select(
            "SELECT sum(v) OVER w AS s FROM t WINDOW w AS "
            "(PARTITION BY k ORDER BY ts "
            "ROWS_RANGE BETWEEN 3s PRECEDING AND CURRENT ROW)")
        window = statement.window("w")
        assert window.frame_type == ast.FrameType.ROWS_RANGE
        assert window.start.offset == 3_000

    def test_interval_in_rows_frame_normalised(self):
        # The paper writes "ROWS BETWEEN 3s PRECEDING"; it must become a
        # time-range frame.
        statement = parse_select(
            "SELECT sum(v) OVER w AS s FROM t WINDOW w AS "
            "(PARTITION BY k ORDER BY ts "
            "ROWS BETWEEN 3s PRECEDING AND CURRENT ROW)")
        assert statement.window("w").frame_type == ast.FrameType.ROWS_RANGE

    def test_window_union(self):
        statement = parse_select(
            "SELECT count(v) OVER w AS c FROM t WINDOW w AS "
            "(UNION t2, t3 PARTITION BY k ORDER BY ts "
            "ROWS BETWEEN 5 PRECEDING AND CURRENT ROW)")
        assert statement.window("w").union_tables == ("t2", "t3")

    def test_multiple_windows(self):
        statement = parse_select(
            "SELECT sum(a) OVER w1 AS x, sum(b) OVER w2 AS y FROM t "
            "WINDOW w1 AS (PARTITION BY k ORDER BY ts "
            "ROWS BETWEEN 1 PRECEDING AND CURRENT ROW), "
            "w2 AS (PARTITION BY j ORDER BY ts "
            "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)")
        assert {window.name for window in statement.windows} == {"w1", "w2"}

    def test_window_attributes(self):
        statement = parse_select(
            "SELECT sum(v) OVER w AS s FROM t WINDOW w AS "
            "(PARTITION BY k ORDER BY ts "
            "ROWS BETWEEN 5 PRECEDING AND CURRENT ROW "
            "EXCLUDE CURRENT_ROW MAXSIZE 100)")
        window = statement.window("w")
        assert window.exclude_current_row
        assert window.maxsize == 100

    def test_instance_not_in_window(self):
        statement = parse_select(
            "SELECT sum(v) OVER w AS s FROM t WINDOW w AS "
            "(UNION t2 PARTITION BY k ORDER BY ts "
            "ROWS BETWEEN 5 PRECEDING AND CURRENT ROW "
            "INSTANCE_NOT_IN_WINDOW)")
        assert statement.window("w").instance_not_in_window

    def test_unbounded_preceding(self):
        statement = parse_select(
            "SELECT sum(v) OVER w AS s FROM t WINDOW w AS "
            "(PARTITION BY k ORDER BY ts "
            "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)")
        assert statement.window("w").start.unbounded

    def test_bad_frame_bound(self):
        with pytest.raises(ParseError):
            parse_select(
                "SELECT sum(v) OVER w AS s FROM t WINDOW w AS "
                "(PARTITION BY k ORDER BY ts "
                "ROWS BETWEEN 'x' PRECEDING AND CURRENT ROW)")


class TestLastJoin:
    def test_basic_last_join(self):
        statement = parse_select(
            "SELECT a FROM t LAST JOIN u ORDER BY uts ON t.k = u.k")
        join = statement.joins[0]
        assert join.table == "u"
        assert join.order_by == "uts"
        assert isinstance(join.condition, ast.BinaryOp)

    def test_join_alias(self):
        statement = parse_select(
            "SELECT a FROM t LAST JOIN u AS profile ON t.k = profile.k")
        assert statement.joins[0].alias == "profile"
        assert statement.joins[0].effective_name == "profile"

    def test_multiple_joins(self):
        statement = parse_select(
            "SELECT a FROM t LAST JOIN u ON t.k = u.k "
            "LAST JOIN v ON t.k = v.k")
        assert [join.table for join in statement.joins] == ["u", "v"]

    def test_join_without_on_rejected(self):
        with pytest.raises(ParseError):
            parse_select("SELECT a FROM t LAST JOIN u")


class TestCreateTable:
    def test_columns_and_index(self):
        statement = parse(
            "CREATE TABLE t (a string NOT NULL, b timestamp, c double, "
            "INDEX(KEY=a, TS=b, TTL=7d, TTL_TYPE=absolute))")
        assert isinstance(statement, ast.CreateTableStatement)
        assert statement.columns[0].nullable is False
        assert statement.columns[1].type_name == "timestamp"
        index = statement.indexes[0]
        assert index.key_columns == ("a",)
        assert index.ts_column == "b"
        assert index.ttl_value == "7d"
        assert index.ttl_type == "absolute"

    def test_composite_key_index(self):
        statement = parse(
            "CREATE TABLE t (a string, b string, ts timestamp, "
            "INDEX(KEY=(a, b), TS=ts))")
        assert statement.indexes[0].key_columns == ("a", "b")

    def test_index_requires_key_and_ts(self):
        with pytest.raises(ParseError):
            parse("CREATE TABLE t (a string, INDEX(KEY=a))")


class TestInsert:
    def test_values(self):
        statement = parse(
            "INSERT INTO t VALUES ('a', 1, 2.5, NULL, TRUE, -3)")
        assert isinstance(statement, ast.InsertStatement)
        assert statement.rows == (("a", 1, 2.5, None, True, -3),)

    def test_multiple_rows(self):
        statement = parse("INSERT INTO t VALUES (1), (2), (3)")
        assert len(statement.rows) == 3

    def test_expression_values_rejected(self):
        with pytest.raises(ParseError):
            parse("INSERT INTO t VALUES (1 + 2)")


class TestDeploy:
    def test_deploy_with_options(self):
        statement = parse(
            'DEPLOY demo OPTIONS(long_windows="w1:1d") '
            "SELECT sum(v) OVER w1 AS s FROM t WINDOW w1 AS "
            "(PARTITION BY k ORDER BY ts "
            "ROWS_RANGE BETWEEN 30d PRECEDING AND CURRENT ROW)")
        assert isinstance(statement, ast.DeployStatement)
        assert statement.name == "demo"
        assert statement.option("long_windows") == "w1:1d"
        assert statement.option("missing", "dflt") == "dflt"

    def test_deploy_without_options(self):
        statement = parse("DEPLOY d SELECT a FROM t")
        assert statement.options == ()

    def test_non_string_option_rejected(self):
        with pytest.raises(ParseError):
            parse("DEPLOY d OPTIONS(x=5) SELECT a FROM t")


class TestPaperExampleSQL:
    """The Figure 1 feature script must parse end to end."""

    SQL = """
    SELECT action.*,
      distinct_count(action.type) AS product_count,
      avg_cate_where(price, quantity > 1, category)
      OVER w_union_3s AS product_prices
    FROM action WINDOW
      w_union_3s AS (
        UNION orders PARTITION BY userid
        ORDER BY ts
        ROWS BETWEEN 3s PRECEDING AND CURRENT ROW),
      w_action_100d AS (
        PARTITION BY userid ORDER BY ts
        ROWS_RANGE BETWEEN 100d PRECEDING AND CURRENT ROW);
    """

    def test_parses(self):
        statement = parse_select(self.SQL)
        assert len(statement.windows) == 2
        union_window = statement.window("w_union_3s")
        assert union_window.union_tables == ("orders",)
        assert union_window.frame_type == ast.FrameType.ROWS_RANGE
        long_window = statement.window("w_action_100d")
        assert long_window.start.offset == 100 * 86_400_000


# ---------------------------------------------------------------------
# untrusted text: an AST or a typed error, never anything else

#: Lexemes and clause pieces of the dialect, plus characters at its
#: edges (quotes, escapes, non-ASCII letters and digits, a lone
#: backslash, NUL), for concatenations that get deep into the grammar.
FRAGMENTS = [
    "SELECT", "select", "FROM", "WHERE", "WINDOW", "AS", "UNION",
    "PARTITION BY", "ORDER BY", "ROWS", "ROWS_RANGE", "BETWEEN",
    "PRECEDING", "CURRENT ROW", "CURRENT_ROW", "UNBOUNDED", "AND", "OR",
    "NOT", "LAST JOIN", "ON", "OVER", "EXCLUDE CURRENT_ROW",
    "INSTANCE_NOT_IN_WINDOW", "MAXSIZE", "LIMIT", "CASE", "WHEN", "THEN",
    "ELSE", "END", "IS", "NULL", "TRUE", "LIKE", "CREATE TABLE", "INDEX",
    "KEY", "TS", "TTL", "TTL_TYPE", "NOT NULL", "INSERT INTO", "VALUES",
    "DEPLOY", "OPTIONS", "t", "t.k", "w", "sum", "(", ")", ",", ".", "*",
    ";", "=", "<=", "<>", "!=", "||", "+", "-", "/", "%", "--", "\n",
    "0", "12", "1.5", "1e5", "1e", "3.e2", "2.5e-2", "3s", "5m", "100d",
    "3sec", "'s'", "'it''s'", "''", "'", '"q"', '""', '"', "\\",
    "é", "中", "²", "٣", "½", "\x00", " ", "\t",
]


def _parses_or_raises_typed(text):
    try:
        parse(text)
    except (LexError, ParseError):
        pass


@settings(max_examples=500, deadline=250)
@given(st.text(max_size=80))
def test_arbitrary_text_gives_an_ast_or_a_typed_error(text):
    _parses_or_raises_typed(text)


@settings(max_examples=500, deadline=250)
@given(st.lists(st.tuples(st.sampled_from(FRAGMENTS),
                          st.sampled_from(["", " "])),
                max_size=24))
def test_fragment_soup_gives_an_ast_or_a_typed_error(pieces):
    _parses_or_raises_typed("".join(piece + sep for piece, sep in pieces))
