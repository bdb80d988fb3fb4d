"""Tokenizer for PQL."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import PQLSyntaxError

KEYWORDS = frozenset(
    {
        "SELECT", "FROM", "WHERE", "GROUP", "ORDER", "BY", "TOP", "LIMIT",
        "AND", "OR", "NOT", "IN", "BETWEEN", "LIKE", "HAVING", "ASC",
        "DESC", "TRUE", "FALSE", "OPTION",
    }
)


class TokenType(enum.Enum):
    KEYWORD = "KEYWORD"
    IDENTIFIER = "IDENTIFIER"
    NUMBER = "NUMBER"
    STRING = "STRING"
    OPERATOR = "OPERATOR"  # = != <> < <= > >=
    COMMA = "COMMA"
    LPAREN = "LPAREN"
    RPAREN = "RPAREN"
    STAR = "STAR"
    EOF = "EOF"


@dataclass(frozen=True)
class Token:
    type: TokenType
    value: Any
    position: int

    def matches_keyword(self, keyword: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value == keyword


def tokenize(text: str) -> list[Token]:
    """Tokenize a PQL string; raises :class:`PQLSyntaxError` on bad input."""
    return list(_scan(text))


def _scan(text: str) -> Iterator[Token]:
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == ",":
            yield Token(TokenType.COMMA, ",", i)
            i += 1
        elif ch == "(":
            yield Token(TokenType.LPAREN, "(", i)
            i += 1
        elif ch == ")":
            yield Token(TokenType.RPAREN, ")", i)
            i += 1
        elif ch == "*":
            yield Token(TokenType.STAR, "*", i)
            i += 1
        elif ch == "'":
            value, end = _scan_string(text, i)
            yield Token(TokenType.STRING, value, i)
            i = end
        elif ch == '"':
            # Double-quoted identifiers (for reserved-word columns).
            end = text.find('"', i + 1)
            if end < 0:
                raise PQLSyntaxError("unterminated quoted identifier", i)
            yield Token(TokenType.IDENTIFIER, text[i + 1:end], i)
            i = end + 1
        elif ch in "=<>!":
            op, end = _scan_operator(text, i)
            yield Token(TokenType.OPERATOR, op, i)
            i = end
        elif ch.isdigit() or (
            ch == "-" and i + 1 < n and (text[i + 1].isdigit()
                                         or text[i + 1] == ".")
        ) or ch == ".":
            value, end = _scan_number(text, i)
            yield Token(TokenType.NUMBER, value, i)
            i = end
        elif ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            upper = word.upper()
            if upper in KEYWORDS:
                yield Token(TokenType.KEYWORD, upper, start)
            else:
                yield Token(TokenType.IDENTIFIER, word, start)
        else:
            raise PQLSyntaxError(f"unexpected character {ch!r}", i)
    yield Token(TokenType.EOF, None, n)


def _scan_string(text: str, start: int) -> tuple[str, int]:
    """Scan a single-quoted string; '' is an escaped quote."""
    i = start + 1
    parts: list[str] = []
    while i < len(text):
        ch = text[i]
        if ch == "'":
            if i + 1 < len(text) and text[i + 1] == "'":
                parts.append("'")
                i += 2
                continue
            return "".join(parts), i + 1
        parts.append(ch)
        i += 1
    raise PQLSyntaxError("unterminated string literal", start)


def _scan_operator(text: str, start: int) -> tuple[str, int]:
    two = text[start:start + 2]
    if two in ("!=", "<>", "<=", ">="):
        return ("!=" if two == "<>" else two), start + 2
    one = text[start]
    if one in "=<>":
        return one, start + 1
    raise PQLSyntaxError(f"unexpected operator start {one!r}", start)


def _scan_number(text: str, start: int) -> tuple[int | float, int]:
    i = start
    if text[i] == "-":
        i += 1
    seen_dot = False
    seen_exp = False
    while i < len(text):
        ch = text[i]
        if ch.isdigit():
            i += 1
        elif ch == "." and not seen_dot and not seen_exp:
            seen_dot = True
            i += 1
        elif ch in "eE" and not seen_exp and i > start:
            seen_exp = True
            i += 1
            if i < len(text) and text[i] in "+-":
                i += 1
        else:
            break
    raw = text[start:i]
    try:
        if seen_dot or seen_exp:
            return float(raw), i
        return int(raw), i
    except ValueError:
        raise PQLSyntaxError(f"bad number literal {raw!r}", start) from None
