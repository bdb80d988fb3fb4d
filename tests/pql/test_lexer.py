"""Tests for the PQL tokenizer."""

import pytest

from repro.errors import PQLSyntaxError
from repro.pql.lexer import TokenType, tokenize
from repro.pql.parser import parse


def kinds(text):
    return [t.type for t in tokenize(text)]


def values(text):
    return [t.value for t in tokenize(text)][:-1]  # drop EOF


class TestTokens:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select FROM Where")
        assert [t.value for t in tokens[:3]] == ["SELECT", "FROM", "WHERE"]
        assert all(t.type is TokenType.KEYWORD for t in tokens[:3])

    def test_identifiers_preserve_case(self):
        assert values("vieweeId")[0] == "vieweeId"

    def test_numbers(self):
        assert values("42 -7 3.5 1e3 -2.5e-2") == [42, -7, 3.5, 1000.0,
                                                   -0.025]

    def test_string_literal(self):
        assert values("'hello world'") == ["hello world"]

    def test_string_escaped_quote(self):
        assert values("'it''s'") == ["it's"]

    def test_unterminated_string(self):
        with pytest.raises(PQLSyntaxError, match="unterminated"):
            tokenize("'oops")

    def test_operators(self):
        assert values("= != <> < <= > >=") == ["=", "!=", "!=", "<", "<=",
                                               ">", ">="]

    def test_punctuation(self):
        assert kinds("( ) , *")[:4] == [TokenType.LPAREN, TokenType.RPAREN,
                                        TokenType.COMMA, TokenType.STAR]

    def test_quoted_identifier(self):
        tokens = tokenize('"day"')
        assert tokens[0].type is TokenType.IDENTIFIER
        assert tokens[0].value == "day"

    def test_unexpected_character(self):
        with pytest.raises(PQLSyntaxError):
            tokenize("a ; b")

    def test_eof_always_last(self):
        assert kinds("x")[-1] is TokenType.EOF
        assert kinds("")[-1] is TokenType.EOF

    def test_position_reported(self):
        with pytest.raises(PQLSyntaxError, match="position"):
            tokenize("abc $ def")


class TestTokenPositions:
    """Every token carries the offset it starts at, so an error names
    the offending token's first character."""

    def test_string_starts_at_its_quote(self):
        text = "SELECT count(*) FROM t WHERE a = 'x' 'y'"
        with pytest.raises(PQLSyntaxError,
                           match=r"trailing input 'y' \(at position 37\)"):
            parse(text)
        assert text[37:] == "'y'"

    def test_operator_starts_at_its_first_character(self):
        text = "SELECT count(*) FROM t WHERE a == 5"
        with pytest.raises(PQLSyntaxError,
                           match=r"got '=' \(at position 32\)"):
            parse(text)
        assert text[32:] == "= 5"

    def test_number_starts_at_its_first_digit(self):
        text = "SELECT count(*) FROM t WHERE a = 5 -67"
        with pytest.raises(PQLSyntaxError,
                           match=r"trailing input -67 \(at position 35\)"):
            parse(text)
        assert text[35:] == "-67"
        positions = [t.position for t in tokenize("a = 'b' AND c >= 1.5")]
        assert positions == [0, 2, 4, 8, 12, 14, 17, 20]
