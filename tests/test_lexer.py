"""Tests for the SQL lexer."""

import pytest

from repro.errors import LexError
from repro.sql.lexer import TokenType, tokenize
from repro.sql.parser import parse


def kinds(sql):
    return [token.type for token in tokenize(sql)]


def texts(sql):
    return [token.text for token in tokenize(sql)[:-1]]


class TestBasics:
    def test_keywords_uppercased(self):
        tokens = tokenize("select From WHERE")
        assert [t.text for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]
        assert all(t.type is TokenType.KEYWORD for t in tokens[:-1])

    def test_identifiers_preserve_case(self):
        token = tokenize("myColumn")[0]
        assert token.type is TokenType.IDENT
        assert token.text == "myColumn"

    def test_eof_always_present(self):
        assert tokenize("")[-1].type is TokenType.EOF
        assert tokenize("a b c")[-1].type is TokenType.EOF

    def test_line_comments_skipped(self):
        tokens = tokenize("a -- this is a comment\n b")
        assert texts("a -- comment\n b") == ["a", "b"]
        assert len(tokens) == 3


class TestNumbers:
    def test_integers(self):
        token = tokenize("12345")[0]
        assert token.type is TokenType.INT
        assert token.value == 12345

    def test_floats(self):
        assert tokenize("3.25")[0].value == 3.25
        assert tokenize("1e3")[0].value == 1000.0
        assert tokenize("2.5e-2")[0].value == 0.025

    def test_malformed_exponent(self):
        with pytest.raises(LexError):
            tokenize("1e+")


class TestIntervals:
    @pytest.mark.parametrize("text,ms", [
        ("3s", 3_000), ("5m", 300_000), ("2h", 7_200_000),
        ("100d", 8_640_000_000),
    ])
    def test_units(self, text, ms):
        token = tokenize(text)[0]
        assert token.type is TokenType.INTERVAL
        assert token.value == ms

    def test_interval_not_confused_with_ident(self):
        # "3sec" is not an interval: the unit letter must terminate the
        # word, so this lexes as INT(3) + IDENT(sec) and the parser
        # rejects it where an interval was expected.
        tokens = tokenize("3sec")
        assert tokens[0].type is TokenType.INT
        assert tokens[1].type is TokenType.IDENT
        assert tokens[1].text == "sec"

    def test_interval_followed_by_keyword(self):
        tokens = tokenize("3s PRECEDING")
        assert tokens[0].type is TokenType.INTERVAL
        assert tokens[1].text == "PRECEDING"


class TestStrings:
    def test_single_and_double_quotes(self):
        assert tokenize("'abc'")[0].value == "abc"
        assert tokenize('"xyz"')[0].value == "xyz"

    def test_escapes(self):
        assert tokenize(r"'a\'b'")[0].value == "a'b"

    def test_unterminated_raises(self):
        with pytest.raises(LexError):
            tokenize("'oops")

    def test_doubled_quote_escape(self):
        assert tokenize("'it''s'")[0].value == "it's"
        assert tokenize('"say ""hi"""')[0].value == 'say "hi"'
        assert tokenize("''''")[0].value == "'"
        assert tokenize("''")[0].value == ""
        # Only the literal's own quote doubles; the other is plain text.
        assert tokenize("'a\"\"b'")[0].value == 'a""b'
        assert tokenize(r"'a\'b''c'")[0].value == "a'b'c"

    def test_doubled_quote_in_insert_values(self):
        statement = parse("INSERT INTO t VALUES ('it''s', 1)")
        assert statement.rows == (("it's", 1),)


class TestSymbols:
    def test_two_char_symbols(self):
        assert texts("a <= b >= c != d <> e || f") == [
            "a", "<=", "b", ">=", "c", "!=", "d", "<>", "e", "||", "f"]

    def test_punctuation(self):
        assert texts("(a, b.c) * 2;") == [
            "(", "a", ",", "b", ".", "c", ")", "*", "2", ";"]

    def test_unknown_character(self):
        with pytest.raises(LexError) as excinfo:
            tokenize("a ? b")
        assert excinfo.value.position == 2

    @pytest.mark.parametrize("text", ["²", "1.5²", "a ½"])
    def test_digit_like_characters_are_lex_errors(self, text):
        # Superscripts and vulgar fractions are digits to str.isdigit /
        # str.isnumeric but not decimal digits.
        with pytest.raises(LexError) as excinfo:
            tokenize(text)
        assert excinfo.value.position == len(text) - 1


class TestTokenHelpers:
    def test_is_keyword(self):
        token = tokenize("SELECT")[0]
        assert token.type is TokenType.KEYWORD and token.text == "SELECT"

    def test_positions_recorded(self):
        tokens = tokenize("ab cd")
        assert tokens[0].position == 0
        assert tokens[1].position == 3

    def test_tokens_are_slotted(self):
        assert not hasattr(tokenize("a")[0], "__dict__")
