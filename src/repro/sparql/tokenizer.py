"""Tokenizer for the supported SPARQL fragment.

:func:`tokenize` (the parser's) and :func:`spellings` (the template cache's)
run one scan — :data:`_SKIP`, then the :data:`_TOKEN_SPEC` patterns in order —
so equal spelling lists are equal ``(kind, value)`` streams; :func:`kind_of`
names the kind a spelling lexes as.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional


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
    # An exponent makes any numeral one token (SPARQL's DOUBLE): ``1e3``, ``1.e3``.
    (
        "NUMBER",
        r"[+-]?\d+\.\d*[eE][+-]?\d+|[+-]?\d*\.\d+(?:[eE][+-]?\d+)?|[+-]?\d+(?:[eE][+-]?\d+)?",
    ),
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
_COMMENT = r"#[^\n]*(?![^\n])\s*"
#: ``\s*(?:comment)*`` spelled as a branch whose first alternative starts with
#: ``#``: the regex engine rejects it at one character, where a repeat would
#: set up its loop at every token (a tenth of a scan).
_SKIP = r"\s*(?:" + _COMMENT + "(?:" + _COMMENT + ")*|)"
_SKIP_RE = re.compile(_SKIP)
_ALTERNATIVES = "|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC)
_MASTER_RE = re.compile(_SKIP + "(?:" + _ALTERNATIVES + ")")
_KIND_RE = re.compile(_ALTERNATIVES)
#: Token kind by group index of the master pattern.
_KINDS = (None,) + tuple(name for name, _ in _TOKEN_SPEC)
#: The master pattern with one group for the spelling, a one-character
#: catch-all where :func:`tokenize` raises and ``\Z`` where it stops, so
#: ``findall`` scans the whole text back to back.
_SPELLING_RE = re.compile(
    _SKIP + "(" + "|".join(f"(?:{pattern})" for _, pattern in _TOKEN_SPEC) + r"|\S|\Z)"
)


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


def spellings(text: str) -> List[str]:
    """The text of every token :func:`tokenize` finds, from one ``findall``.

    Keywords keep their case.  Where ``tokenize`` would raise, the list holds
    the offending character as a spelling of its own (and goes on scanning).
    """
    found = _SPELLING_RE.findall(text)
    # ``\Z`` ends the scan with an empty spelling, or two after a blank tail.
    while found and not found[-1]:
        found.pop()
    return found


def kind_of(spelling: str) -> Optional[str]:
    """The kind :func:`tokenize` gives a token spelled ``spelling``; ``None``: no token.

    No pattern looks past a token's end, so the first one to match the whole
    spelling is the one the scan took wherever it met it.
    """
    match = _KIND_RE.fullmatch(spelling)
    if match is None:
        return None
    kind = _KINDS[match.lastindex]
    if kind == "NAME" and spelling.lower() in _KEYWORDS:
        return "KEYWORD"
    return kind
