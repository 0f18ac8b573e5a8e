"""Recursive-descent parser for the SPARQL fragment used by the paper.

Supported syntax: ``PREFIX`` declarations, ``SELECT [DISTINCT] (* | ?vars)``
including aggregate bindings ``(COUNT(DISTINCT ?x) AS ?c)`` with
``COUNT/SUM/AVG/MIN/MAX``, group graph patterns with triple patterns
(including ``;`` predicate lists and ``,`` object lists), ``FILTER``,
``OPTIONAL``, ``UNION``, ``GROUP BY``, ``ORDER BY``, ``LIMIT`` and
``OFFSET``.  This covers every query in the WatDiv Basic, Selectivity and
Incremental Linear workloads.

Parse errors (:class:`SparqlParseError`) carry the 1-based line/column of the
offending token and the token text itself.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.rdf.namespaces import WATDIV_NAMESPACES
from repro.rdf.ntriples import NTriplesParseError, parse_literal
from repro.rdf.terms import IRI, Literal, Term, Variable, XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER
from repro.sparql.algebra import (
    BGP,
    AggregateBinding,
    Filter,
    Join,
    LeftJoin,
    OrderCondition,
    PatternNode,
    Query,
    TriplePattern,
    Union,
)
from repro.sparql.expressions import (
    And,
    Arithmetic,
    Bound,
    Comparison,
    Expression,
    FunctionCall,
    Not,
    Or,
    TermExpression,
    VariableExpression,
)
from repro.sparql.tokenizer import Token, TokenizeError, tokenize

RDF_TYPE = IRI(WATDIV_NAMESPACES["rdf"] + "type")


class SparqlParseError(ValueError):
    """Raised when the query text is not valid (supported) SPARQL.

    Carries the source position of the failure: ``line`` and ``column`` are
    1-based, ``token`` is the offending token's text (``None`` at end of
    input).  The position is appended to the message, so plain ``str(exc)``
    is already actionable.
    """

    def __init__(
        self,
        message: str,
        line: Optional[int] = None,
        column: Optional[int] = None,
        token: Optional[str] = None,
    ) -> None:
        if line is not None and column is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column
        self.token = token


def _line_column(text: str, position: int) -> Tuple[int, int]:
    """1-based (line, column) of a character offset in ``text``."""
    line = text.count("\n", 0, position) + 1
    column = position - text.rfind("\n", 0, position)
    return line, column


def tokenize_query(text: str) -> List[Token]:
    """:func:`~repro.sparql.tokenizer.tokenize` with a positioned parse error."""
    try:
        return tokenize(text)
    except TokenizeError as exc:
        line, column = _line_column(text, exc.position)
        raise SparqlParseError(str(exc), line=line, column=column) from exc


class MalformedTermError(ValueError):
    """A constant token that names no term: undeclared prefix, malformed literal."""


def _expand_pname(pname: str, prefixes: Dict[str, str]) -> IRI:
    prefix, _, local = pname.partition(":")
    if prefix not in prefixes:
        raise MalformedTermError(f"undeclared prefix {prefix!r} in {pname!r}")
    return IRI(prefixes[prefix] + local)


def term_of_token(token: Token, prefixes: Dict[str, str]) -> Optional[Term]:
    """The RDF term a constant token denotes (``None``: not a constant).

    The one token-to-term rule: the parser applies it wherever the grammar
    takes a constant, the template cache applies it to rebind a cached
    template's constants without running the grammar.
    """
    kind, value, _ = token
    if kind == "IRI":
        return IRI(value[1:-1])
    if kind == "PNAME":
        return _expand_pname(value, prefixes)
    if kind == "STRING":
        try:
            if "^^" in value and not value.endswith(">"):
                lexical, _, datatype = value.rpartition("^^")
                expanded = _expand_pname(datatype, prefixes)
                return Literal(parse_literal(lexical).lexical, datatype=expanded.value)
            return parse_literal(value)
        except NTriplesParseError as exc:
            raise MalformedTermError(str(exc)) from exc
    if kind == "NUMBER":
        # SPARQL's INTEGER, DECIMAL and DOUBLE numerals.
        if "e" in value or "E" in value:
            return Literal(value, datatype=XSD_DOUBLE)
        return Literal(value, datatype=XSD_DECIMAL if "." in value else XSD_INTEGER)
    if kind == "NAME":
        # Simplified notation (paper running example): bare name as IRI.
        return IRI(value)
    return None


class _Parser:
    #: Aggregate function names; not tokenizer keywords, matched on NAME.
    _AGGREGATES = ("count", "sum", "avg", "min", "max")

    def __init__(self, text: str, tokens: Optional[Sequence[Token]] = None) -> None:
        self.text = text
        self.tokens = tokens if tokens is not None else tokenize_query(text)
        self.index = 0
        self.prefixes: Dict[str, str] = dict(WATDIV_NAMESPACES)
        #: ``(token index, term)`` of every constant consumed in triple-pattern
        #: subject or object position, in token order — what a query template
        #: treats as its slots.
        self.constants: List[Tuple[int, Term]] = []

    def _error(self, message: str, token: Optional[Token] = None) -> SparqlParseError:
        """Build a positioned parse error at ``token`` (default: next token)."""
        if token is None:
            token = self._peek()
        position = token.position if token is not None else len(self.text)
        line, column = _line_column(self.text, position)
        return SparqlParseError(
            message, line=line, column=column, token=token.value if token else None
        )

    # ------------------------------------------------------------------ #
    # Token helpers
    # ------------------------------------------------------------------ #
    def _peek(self, offset: int = 0) -> Optional[Token]:
        position = self.index + offset
        if position < len(self.tokens):
            return self.tokens[position]
        return None

    def _next(self) -> Token:
        token = self._peek()
        if token is None:
            raise self._error("unexpected end of query")
        self.index += 1
        return token

    def _expect(self, kind: str, value: Optional[str] = None) -> Token:
        token = self._next()
        if token.kind != kind or (value is not None and token.value != value):
            expected = f"{kind} {value!r}" if value else kind
            raise self._error(
                f"expected {expected} but found {token.kind} {token.value!r}", token
            )
        return token

    def _at_keyword(self, keyword: str) -> bool:
        token = self._peek()
        return token is not None and token.kind == "KEYWORD" and token.value == keyword

    def _accept_keyword(self, keyword: str) -> bool:
        if self._at_keyword(keyword):
            self.index += 1
            return True
        return False

    # ------------------------------------------------------------------ #
    # Grammar
    # ------------------------------------------------------------------ #
    def parse(self) -> Query:
        self._parse_prologue()
        if not self._accept_keyword("select"):
            raise self._error("only SELECT queries are supported")
        distinct = self._accept_keyword("distinct")
        self._accept_keyword("reduced")
        select_variables, aggregates = self._parse_select_clause()
        self._accept_keyword("where")
        pattern = self._parse_group_graph_pattern()
        order_by, limit, offset, group_by = self._parse_solution_modifiers()
        if self._peek() is not None:
            token = self._peek()
            raise self._error(f"unexpected trailing token {token.value!r}", token)
        self._check_grouping(select_variables, aggregates, group_by)
        return Query(
            pattern=pattern,
            select_variables=tuple(select_variables),
            distinct=distinct,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
            prefixes=dict(self.prefixes),
            text=self.text,
            group_by=tuple(group_by),
            aggregates=tuple(aggregates),
        )

    def _check_grouping(
        self,
        select_variables: List[Variable],
        aggregates: List[AggregateBinding],
        group_by: List[Variable],
    ) -> None:
        """Enforce the SPARQL group-by projection rule."""
        if not aggregates and not group_by:
            return
        if not select_variables:
            raise self._error("SELECT * cannot be combined with aggregates or GROUP BY")
        group_names = {v.name for v in group_by}
        alias_names = {binding.alias.name for binding in aggregates}
        for variable in select_variables:
            if variable.name in alias_names or variable.name in group_names:
                continue
            raise self._error(
                f"variable ?{variable.name} must appear in GROUP BY or inside an aggregate"
            )

    def _parse_prologue(self) -> None:
        while self._at_keyword("prefix") or self._at_keyword("base"):
            if self._accept_keyword("prefix"):
                name_token = self._next()
                if name_token.kind not in ("PNAME", "NAME"):
                    raise self._error(
                        f"expected prefix name, found {name_token.value!r}", name_token
                    )
                prefix = name_token.value.rstrip(":")
                iri_token = self._expect("IRI")
                self.prefixes[prefix] = iri_token.value[1:-1]
            elif self._accept_keyword("base"):
                self._expect("IRI")

    def _parse_select_clause(self) -> Tuple[List[Variable], List[AggregateBinding]]:
        """Projection list: variables and ``(AGG(?x) AS ?alias)`` bindings.

        ``select_variables`` keeps every output name (plain variables and
        aggregate aliases) in declaration order; the bindings themselves are
        returned separately for the compiler.
        """
        variables: List[Variable] = []
        aggregates: List[AggregateBinding] = []
        token = self._peek()
        if token is not None and token.kind == "STAR":
            self.index += 1
            return variables, aggregates
        while True:
            token = self._peek()
            if token is None:
                break
            if token.kind == "VAR":
                variables.append(Variable(self._next().value))
                continue
            if token.kind == "LPAREN":
                binding = self._parse_aggregate_binding()
                aggregates.append(binding)
                variables.append(binding.alias)
                continue
            break
        if not variables:
            raise self._error("SELECT clause must list variables or '*'")
        return variables, aggregates

    def _parse_aggregate_binding(self) -> AggregateBinding:
        """``( COUNT(DISTINCT ?x) AS ?c )`` and friends."""
        self._expect("LPAREN")
        name_token = self._next()
        name = name_token.value.lower()
        if name_token.kind != "NAME" or name not in self._AGGREGATES:
            raise self._error(
                f"expected aggregate function, found {name_token.value!r}", name_token
            )
        self._expect("LPAREN")
        distinct = self._accept_keyword("distinct")
        argument = self._next()
        if argument.kind == "VAR":
            variable: Optional[Variable] = Variable(argument.value)
        elif argument.kind == "STAR":
            if name != "count":
                raise self._error("'*' is only valid as a COUNT argument", argument)
            variable = None
        else:
            raise self._error(
                f"expected variable or '*' in aggregate, found {argument.value!r}", argument
            )
        self._expect("RPAREN")
        if not self._accept_keyword("as"):
            raise self._error("aggregate binding requires AS ?alias")
        alias = Variable(self._expect("VAR").value)
        self._expect("RPAREN")
        return AggregateBinding(function=name, variable=variable, alias=alias, distinct=distinct)

    def _parse_group_graph_pattern(self) -> PatternNode:
        self._expect("LBRACE")
        elements: List[PatternNode] = []
        filters: List[Expression] = []
        triple_patterns: List[TriplePattern] = []

        def flush_bgp() -> None:
            if triple_patterns:
                elements.append(BGP(list(triple_patterns)))
                triple_patterns.clear()

        while True:
            token = self._peek()
            if token is None:
                raise self._error("unterminated group graph pattern")
            if token.kind == "RBRACE":
                self.index += 1
                break
            if token.kind == "KEYWORD" and token.value == "filter":
                self.index += 1
                filters.append(self._parse_bracketted_expression())
                continue
            if token.kind == "KEYWORD" and token.value == "optional":
                self.index += 1
                optional_pattern = self._parse_group_graph_pattern()
                flush_bgp()
                left = self._combine(elements)
                elements = [LeftJoin(left, optional_pattern)]
                continue
            if token.kind == "LBRACE":
                group = self._parse_group_graph_pattern()
                while self._at_keyword("union"):
                    self.index += 1
                    right = self._parse_group_graph_pattern()
                    group = Union(group, right)
                flush_bgp()
                elements.append(group)
                continue
            if token.kind == "DOT":
                self.index += 1
                continue
            # Otherwise this must start a triple pattern.
            triple_patterns.extend(self._parse_triples_same_subject())
            token = self._peek()
            if token is not None and token.kind == "DOT":
                self.index += 1
        flush_bgp()
        pattern = self._combine(elements)
        for expression in filters:
            pattern = Filter(expression, pattern)
        return pattern

    @staticmethod
    def _combine(elements: List[PatternNode]) -> PatternNode:
        if not elements:
            return BGP([])
        result = elements[0]
        for element in elements[1:]:
            if isinstance(result, BGP) and isinstance(element, BGP):
                result = BGP(list(result.patterns) + list(element.patterns))
            else:
                result = Join(result, element)
        return result

    def _parse_triples_same_subject(self) -> List[TriplePattern]:
        subject = self._parse_term(position="subject")
        patterns: List[TriplePattern] = []
        while True:
            predicate = self._parse_verb()
            while True:
                object_ = self._parse_term(position="object")
                patterns.append(TriplePattern(subject, predicate, object_))
                token = self._peek()
                if token is not None and token.kind == "COMMA":
                    self.index += 1
                    continue
                break
            token = self._peek()
            if token is not None and token.kind == "SEMICOLON":
                self.index += 1
                # A trailing semicolon before '.' or '}' is legal.
                token = self._peek()
                if token is not None and token.kind in ("DOT", "RBRACE"):
                    break
                continue
            break
        return patterns

    def _parse_verb(self) -> Term:
        token = self._peek()
        if token is not None and token.kind == "KEYWORD" and token.value == "a":
            self.index += 1
            return RDF_TYPE
        return self._parse_term(position="predicate")

    def _parse_term(self, position: str) -> Term:
        token = self._next()
        if token.kind == "VAR":
            return Variable(token.value)
        term = self._constant(token)
        if term is None:
            raise self._error(f"unexpected token {token.value!r} in {position} position", token)
        if position != "predicate":
            self.constants.append((self.index - 1, term))
        return term

    def _constant(self, token: Token) -> Optional[Term]:
        """:func:`term_of_token`, its failure positioned at the (consumed) token."""
        try:
            return term_of_token(token, self.prefixes)
        except MalformedTermError as exc:
            raise self._error(str(exc), token) from exc

    # ------------------------------------------------------------------ #
    # Expressions
    # ------------------------------------------------------------------ #
    def _parse_bracketted_expression(self) -> Expression:
        self._expect("LPAREN")
        expression = self._parse_or_expression()
        self._expect("RPAREN")
        return expression

    def _parse_or_expression(self) -> Expression:
        left = self._parse_and_expression()
        while True:
            token = self._peek()
            if token is not None and token.kind == "OROR":
                self.index += 1
                right = self._parse_and_expression()
                left = Or(left, right)
            else:
                return left

    def _parse_and_expression(self) -> Expression:
        left = self._parse_relational_expression()
        while True:
            token = self._peek()
            if token is not None and token.kind == "ANDAND":
                self.index += 1
                right = self._parse_relational_expression()
                left = And(left, right)
            else:
                return left

    _RELATIONAL = {"EQ": "=", "NEQ": "!=", "LT": "<", "GT": ">", "LE": "<=", "GE": ">="}

    def _parse_relational_expression(self) -> Expression:
        left = self._parse_additive_expression()
        token = self._peek()
        if token is not None and token.kind in self._RELATIONAL:
            self.index += 1
            right = self._parse_additive_expression()
            return Comparison(self._RELATIONAL[token.kind], left, right)
        return left

    def _parse_additive_expression(self) -> Expression:
        left = self._parse_multiplicative_expression()
        while True:
            token = self._peek()
            if token is not None and token.kind in ("PLUS", "MINUS"):
                self.index += 1
                right = self._parse_multiplicative_expression()
                left = Arithmetic("+" if token.kind == "PLUS" else "-", left, right)
            else:
                return left

    def _parse_multiplicative_expression(self) -> Expression:
        left = self._parse_unary_expression()
        while True:
            token = self._peek()
            if token is not None and token.kind in ("STAR", "SLASH"):
                self.index += 1
                right = self._parse_unary_expression()
                left = Arithmetic("*" if token.kind == "STAR" else "/", left, right)
            else:
                return left

    def _parse_unary_expression(self) -> Expression:
        token = self._peek()
        if token is not None and token.kind == "NOT":
            self.index += 1
            return Not(self._parse_unary_expression())
        return self._parse_primary_expression()

    def _parse_primary_expression(self) -> Expression:
        token = self._next()
        if token.kind == "LPAREN":
            expression = self._parse_or_expression()
            self._expect("RPAREN")
            return expression
        if token.kind == "VAR":
            return VariableExpression(Variable(token.value))
        if token.kind in ("NUMBER", "STRING", "IRI", "PNAME"):
            return TermExpression(self._constant(token))
        if token.kind in ("NAME", "KEYWORD"):
            # Function call such as regex(...), bound(...), str(...).
            name = token.value
            next_token = self._peek()
            if next_token is not None and next_token.kind == "LPAREN":
                self.index += 1
                arguments: List[Expression] = []
                if self._peek() is not None and self._peek().kind != "RPAREN":
                    arguments.append(self._parse_or_expression())
                    while self._peek() is not None and self._peek().kind == "COMMA":
                        self.index += 1
                        arguments.append(self._parse_or_expression())
                self._expect("RPAREN")
                if name.lower() == "bound" and arguments and isinstance(arguments[0], VariableExpression):
                    return Bound(arguments[0].variable)
                return FunctionCall(name, tuple(arguments))
            return TermExpression(IRI(name))
        raise self._error(f"unexpected token {token.value!r} in expression", token)

    # ------------------------------------------------------------------ #
    # Solution modifiers
    # ------------------------------------------------------------------ #
    def _parse_solution_modifiers(
        self,
    ) -> Tuple[List[OrderCondition], Optional[int], int, List[Variable]]:
        order_conditions: List[OrderCondition] = []
        limit: Optional[int] = None
        offset = 0
        group_by: List[Variable] = []
        while True:
            if self._accept_keyword("group"):
                if not self._accept_keyword("by"):
                    raise self._error("GROUP must be followed by BY")
                while self._peek() is not None and self._peek().kind == "VAR":
                    group_by.append(Variable(self._next().value))
                if not group_by:
                    raise self._error("GROUP BY requires at least one variable")
                continue
            if self._accept_keyword("order"):
                if not self._accept_keyword("by"):
                    raise self._error("ORDER must be followed by BY")
                conditions_before = len(order_conditions)
                while True:
                    token = self._peek()
                    if token is None:
                        break
                    if token.kind == "KEYWORD" and token.value in ("asc", "desc"):
                        ascending = token.value == "asc"
                        self.index += 1
                        expression = self._parse_bracketted_expression()
                        order_conditions.append(OrderCondition(expression, ascending))
                    elif token.kind == "VAR":
                        self.index += 1
                        order_conditions.append(OrderCondition(VariableExpression(Variable(token.value)), True))
                    else:
                        break
                if len(order_conditions) == conditions_before:
                    raise self._error("ORDER BY requires at least one condition")
                continue
            if self._accept_keyword("limit"):
                limit = self._parse_row_count("LIMIT")
                continue
            if self._accept_keyword("offset"):
                offset = self._parse_row_count("OFFSET")
                continue
            break
        return order_conditions, limit, offset, group_by

    def _parse_row_count(self, clause: str) -> int:
        """The argument of LIMIT / OFFSET: digits only (SPARQL's INTEGER)."""
        token = self._expect("NUMBER")
        if not token.value.isdigit():
            raise self._error(
                f"{clause} requires a non-negative integer, found {token.value!r}", token
            )
        return int(token.value)


def parse_query(text: str) -> Query:
    """Parse a SPARQL SELECT query into its algebra representation."""
    return _Parser(text).parse()
