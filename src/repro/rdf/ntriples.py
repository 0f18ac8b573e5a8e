"""N-Triples parsing and serialisation.

The WatDiv generator emits N-Triples and the paper reports dataset sizes "in
N-triples format", so the reproduction round-trips graphs through the same
line-oriented format.  The parser is tolerant of the simplified notation used
in the paper's running example (bare identifiers are treated as IRIs).
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, List, Optional, TextIO, Union

from repro.rdf.graph import Graph
from repro.rdf.terms import BlankNode, IRI, Literal, Term
from repro.rdf.triple import Triple


class NTriplesParseError(ValueError):
    """Raised when a line cannot be parsed as an N-Triples statement."""

    def __init__(self, message: str, line_number: Optional[int] = None, line: Optional[str] = None) -> None:
        location = f" at line {line_number}" if line_number is not None else ""
        super().__init__(f"{message}{location}: {line!r}" if line is not None else f"{message}{location}")
        self.line_number = line_number
        self.line = line


_LITERAL_RE = re.compile(
    r'^"(?P<lexical>(?:[^"\\]|\\.)*)"'
    r"(?:@(?P<lang>[A-Za-z0-9\-]+)|\^\^<(?P<datatype>[^>]+)>)?$"
)

_UNESCAPE_MAP = {
    "\\n": "\n",
    "\\r": "\r",
    "\\t": "\t",
    '\\"': '"',
    "\\\\": "\\",
}


def _unescape(text: str) -> str:
    if "\\" not in text:
        return text
    result = []
    index = 0
    while index < len(text):
        if text[index] == "\\" and index + 1 < len(text):
            pair = text[index : index + 2]
            if pair in _UNESCAPE_MAP:
                result.append(_UNESCAPE_MAP[pair])
                index += 2
                continue
        result.append(text[index])
        index += 1
    return "".join(result)


def parse_literal(token: str) -> Literal:
    """Parse a literal token (``"abc"``, ``"5"^^<xsd:int>``, ``"x"@en``)."""
    match = _LITERAL_RE.match(token)
    if match is None:
        raise NTriplesParseError(f"malformed literal {token!r}")
    lexical = _unescape(match.group("lexical"))
    return Literal(lexical, datatype=match.group("datatype"), language=match.group("lang"))


def _parse_term(token: str) -> Term:
    if token.startswith("<") and token.endswith(">"):
        return IRI(token[1:-1])
    if token.startswith("_:"):
        return BlankNode(token[2:])
    if token.startswith('"'):
        return parse_literal(token)
    # Simplified notation used in the paper examples: treat as IRI.
    return IRI(token)


def _tokenize_line(line: str) -> List[str]:
    """Split a statement into subject, predicate and object tokens."""
    tokens: List[str] = []
    index = 0
    length = len(line)
    while index < length and len(tokens) < 3:
        while index < length and line[index].isspace():
            index += 1
        if index >= length:
            break
        char = line[index]
        if char == "<":
            end = line.find(">", index)
            if end == -1:
                raise NTriplesParseError("unterminated IRI", line=line)
            tokens.append(line[index : end + 1])
            index = end + 1
        elif char == '"':
            end = index + 1
            while end < length:
                if line[end] == "\\":
                    end += 2
                    continue
                if line[end] == '"':
                    break
                end += 1
            if end >= length:
                raise NTriplesParseError("unterminated literal", line=line)
            # Consume optional datatype / language suffix.
            end += 1
            while end < length and not line[end].isspace() and line[end] != ".":
                if line[end] == "<":
                    close = line.find(">", end)
                    if close == -1:
                        raise NTriplesParseError("unterminated datatype IRI", line=line)
                    end = close + 1
                else:
                    end += 1
            tokens.append(line[index:end])
            index = end
        else:
            end = index
            while end < length and not line[end].isspace():
                end += 1
            token = line[index:end]
            if token.endswith(".") and len(tokens) == 2:
                token = token[:-1]
            tokens.append(token)
            index = end
    return tokens


def parse_ntriples_line(line: str, line_number: Optional[int] = None) -> Optional[Triple]:
    """Parse a single N-Triples line; return ``None`` for blank/comment lines."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    if stripped.endswith("."):
        stripped = stripped[:-1].rstrip()
    tokens = _tokenize_line(stripped)
    if len(tokens) != 3:
        raise NTriplesParseError("expected exactly three terms", line_number, line)
    try:
        subject = _parse_term(tokens[0])
        predicate = _parse_term(tokens[1])
        object_ = _parse_term(tokens[2])
        return Triple(subject, predicate, object_)
    except (TypeError, ValueError) as exc:
        raise NTriplesParseError(str(exc), line_number, line) from exc


#: Count of documents parsed by :func:`parse_ntriples` in this process.
#: Instrumentation reads it to *observe* that a code path (e.g. the dataset
#: store's cold open) did not parse anything, instead of asserting a constant.
_documents_parsed = 0


def documents_parsed() -> int:
    """Number of :func:`parse_ntriples` invocations so far in this process."""
    return _documents_parsed


def parse_ntriples(source: Union[str, Iterable[str], TextIO], name: str = "default") -> Graph:
    """Parse an N-Triples document into a :class:`Graph`.

    ``source`` may be a string containing the whole document, an iterable of
    lines, or an open text file.
    """
    global _documents_parsed
    _documents_parsed += 1
    if isinstance(source, str):
        lines: Iterable[str] = source.splitlines()
    else:
        lines = source
    graph = Graph(name=name)
    for line_number, line in enumerate(lines, start=1):
        triple = parse_ntriples_line(line, line_number)
        if triple is not None:
            graph.add(triple)
    return graph


def serialize_term(term: Term) -> str:
    """Serialise a term in N-Triples syntax."""
    return term.n3()


def serialize_ntriples(graph: Graph) -> str:
    """Serialise a graph as an N-Triples document (deterministic order)."""
    lines = sorted(triple.n3() for triple in graph)
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_ntriples_iter(graph: Graph) -> Iterator[str]:
    """Yield N-Triples lines one at a time (for streaming writes)."""
    for triple in sorted(graph, key=lambda t: t.n3()):
        yield triple.n3()
