"""Lexer for the monitor DSL."""

from __future__ import annotations

import re
from typing import Iterator, List

from repro.record import record


class LexError(ValueError):
    """Raised on characters the lexer does not understand."""


@record(frozen=True)
class Token:
    """A lexical token with source position (1-based line/column)."""

    kind: str  # "ident", "int", "op", "eof"
    text: str
    line: int
    column: int

    def __init__(self, kind: str, text: str, line: int, column: int) -> None:
        # Spelled out: a compile pass builds ~1,000 (see ``repro.record``).
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "column", column)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.column})"


KEYWORDS = frozenset({
    "monitor", "atomic", "void", "int", "boolean", "unsigned", "const",
    "if", "else", "while", "waituntil", "true", "false", "return", "skip",
    "invariant", "new",
})

_TOKEN_RE = re.compile(
    r"""
    (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<ws>\s+)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*(?:\.[A-Za-z_][A-Za-z_0-9]*)*)
  | (?P<op>\+\+|--|\+=|-=|==|!=|<=|>=|&&|\|\||[()\[\]{}<>+\-*=!;,.])
    """,
    re.VERBOSE | re.DOTALL,
)


def tokenize(source: str) -> List[Token]:
    """Tokenize DSL source text; comments (// and /* */) are skipped."""
    tokens: List[Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            column = pos - line_start + 1
            raise LexError(f"unexpected character {source[pos]!r} at line {line}, column {column}")
        text = match.group()
        kind = match.lastgroup or "op"
        column = pos - line_start + 1
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, text, line, column))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = pos + text.rfind("\n") + 1
        pos = match.end()
    tokens.append(Token("eof", "", line, 1))
    return tokens
