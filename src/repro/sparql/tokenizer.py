"""Tokenizer for the supported SPARQL fragment."""

from __future__ import annotations

import re
from typing import List, NamedTuple


class TokenizeError(ValueError):
    """Raised when the query text contains a character we cannot tokenize.

    ``position`` is the character offset of the offending character, so the
    parser can report a line/column position.
    """

    def __init__(self, message: str, position: int = 0) -> None:
        super().__init__(message)
        self.position = position


class Token(NamedTuple):
    kind: str
    value: str
    position: int


_KEYWORDS = {
    "select",
    "distinct",
    "reduced",
    "where",
    "filter",
    "optional",
    "union",
    "order",
    "by",
    "asc",
    "desc",
    "limit",
    "offset",
    "prefix",
    "base",
    "a",
    "group",
    "as",
}

#: A prefixed name's local part may contain dots but not end in one: the dot
#: of ``wsdbm:User1.`` ends the triple.  (A literal's prefixed datatype is
#: spelled out in STRING below: the same rule, without ``%``.)
_PN_LOCAL = r"(?:[\w\-.%]*[\w\-%])?"

#: Tried in this order at every token start.  Words come first because most
#: tokens are words; the order only matters where two patterns can start with
#: the same character: IRI before ``<`` / ``<=``, NUMBER before ``+`` / ``-`` /
#: ``.``, PNAME before NAME, two-character operators before their first character.
_TOKEN_SPEC = [
    ("PNAME", r"[A-Za-z_][\w\-]*:" + _PN_LOCAL),
    ("NAME", r"[A-Za-z_][\w\-]*"),
    ("IRI", r"<[^<>\"{}|^`\\\s]*>"),
    ("VAR", r"[?$][A-Za-z_][A-Za-z_0-9]*"),
    (
        "STRING",
        r'"(?:[^"\\]|\\.)*"(?:@[A-Za-z0-9\-]+|\^\^<[^>]*>|\^\^[A-Za-z_][\w\-]*:(?:[\w\-.]*[\w\-])?)?',
    ),
    # Like a local name, a number does not end in a dot: ``5.`` is ``5`` then ``.``.
    ("NUMBER", r"[+-]?\d+\.\d*[eE][+-]?\d+|[+-]?\d*\.\d+(?:[eE][+-]?\d+)?|[+-]?\d+"),
    ("NEQ", r"!="),
    ("LE", r"<="),
    ("GE", r">="),
    ("ANDAND", r"&&"),
    ("OROR", r"\|\|"),
    ("LBRACE", r"\{"),
    ("RBRACE", r"\}"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("DOT", r"\."),
    ("SEMICOLON", r";"),
    ("COMMA", r","),
    ("STAR", r"\*"),
    ("EQ", r"="),
    ("LT", r"<"),
    ("GT", r">"),
    ("NOT", r"!"),
    ("PLUS", r"\+"),
    ("MINUS", r"-"),
    ("SLASH", r"/"),
]

#: Whitespace and comments are not tokens: the master pattern skips them as a
#: prefix of the token that follows, so the loop below runs once per token.
#: The lookahead pins a comment to its whole line; without it a failed match
#: would backtrack into the comment and find tokens there.
_SKIP = r"\s*(?:#[^\n]*(?![^\n])\s*)*"
_SKIP_RE = re.compile(_SKIP)
_MASTER_RE = re.compile(
    _SKIP + "(?:" + "|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC) + ")"
)
#: Token kind by group index of the master pattern.
_KINDS = (None,) + tuple(name for name, _ in _TOKEN_SPEC)


def tokenize(text: str) -> List[Token]:
    """Tokenize a SPARQL query string into a list of tokens (EOF excluded)."""
    tokens: List[Token] = []
    append = tokens.append
    new = tuple.__new__  # Token(...) without the generated __new__'s call overhead
    kinds = _KINDS
    keywords = _KEYWORDS
    end = 0
    # ``scanner.match`` anchors each match where the previous one ended.
    for match in iter(_MASTER_RE.scanner(text).match, None):
        index = match.lastindex
        kind = kinds[index]
        value = match[index]
        end = match.end()
        if kind == "NAME":
            lowered = value.lower()
            if lowered in keywords:
                kind = "KEYWORD"
                value = lowered
        append(new(Token, (kind, value, end - len(value))))
    if end != len(text):
        position = _SKIP_RE.match(text, end).end()
        if position != len(text):
            raise TokenizeError(
                f"unexpected character {text[position]!r} at offset {position}", position
            )
    return tokens
