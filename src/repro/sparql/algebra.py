"""SPARQL algebra.

The algebra follows the W3C recommendation the paper references: a query is a
tree of pattern operators whose leaves are basic graph patterns (sets of
triple patterns).  S2RDF's compiler (``repro.core``) traverses this tree
bottom-up to produce relational plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Set, Tuple

from repro.rdf.terms import Term, Variable
from repro.sparql.expressions import Expression


@dataclass(frozen=True)
class TriplePattern:
    """A triple pattern: each component is either a bound term or a variable."""

    subject: Term
    predicate: Term
    object: Term

    def variables(self) -> Set[Variable]:
        """The set of variables occurring in this pattern (``vars(tp)``)."""
        return {t for t in (self.subject, self.predicate, self.object) if isinstance(t, Variable)}

    def bound_terms(self) -> Set[Term]:
        return {t for t in (self.subject, self.predicate, self.object) if not isinstance(t, Variable)}

    def bound_count(self) -> int:
        """Number of bound (non-variable) components, used for join ordering."""
        return 3 - len(self.variables())

    @property
    def has_bound_predicate(self) -> bool:
        return not isinstance(self.predicate, Variable)

    def n3(self) -> str:
        return f"{self.subject.n3()} {self.predicate.n3()} {self.object.n3()} ."

    def __iter__(self):
        return iter((self.subject, self.predicate, self.object))


class PatternNode:
    """Base class of all algebra operators."""

    def variables(self) -> Set[Variable]:
        raise NotImplementedError

    def children(self) -> Sequence["PatternNode"]:
        return ()

    def accept(self, visitor: "PatternVisitor", *args):
        """Double-dispatch onto ``visitor.visit_<operator>``."""
        raise NotImplementedError

    def walk(self):
        """Pre-order iterator over this subtree (the node itself first)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))


@dataclass(frozen=True)
class BGP(PatternNode):
    """A basic graph pattern: a conjunction of triple patterns."""

    patterns: Tuple[TriplePattern, ...]

    def __init__(self, patterns: Sequence[TriplePattern]) -> None:
        object.__setattr__(self, "patterns", tuple(patterns))

    def variables(self) -> Set[Variable]:
        result: Set[Variable] = set()
        for pattern in self.patterns:
            result |= pattern.variables()
        return result

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self):
        return iter(self.patterns)

    def accept(self, visitor: "PatternVisitor", *args):
        return visitor.visit_bgp(self, *args)


@dataclass(frozen=True)
class Join(PatternNode):
    """Join of two group graph patterns."""

    left: PatternNode
    right: PatternNode

    def variables(self) -> Set[Variable]:
        return self.left.variables() | self.right.variables()

    def children(self) -> Sequence[PatternNode]:
        return (self.left, self.right)

    def accept(self, visitor: "PatternVisitor", *args):
        return visitor.visit_join(self, *args)


@dataclass(frozen=True)
class LeftJoin(PatternNode):
    """OPTIONAL: left outer join, optionally guarded by a filter expression."""

    left: PatternNode
    right: PatternNode
    expression: Optional[Expression] = None

    def variables(self) -> Set[Variable]:
        return self.left.variables() | self.right.variables()

    def children(self) -> Sequence[PatternNode]:
        return (self.left, self.right)

    def accept(self, visitor: "PatternVisitor", *args):
        return visitor.visit_left_join(self, *args)


@dataclass(frozen=True)
class Filter(PatternNode):
    """FILTER: restrict the solutions of a pattern by an expression."""

    expression: Expression
    pattern: PatternNode

    def variables(self) -> Set[Variable]:
        return self.pattern.variables()

    def children(self) -> Sequence[PatternNode]:
        return (self.pattern,)

    def accept(self, visitor: "PatternVisitor", *args):
        return visitor.visit_filter(self, *args)


@dataclass(frozen=True)
class Union(PatternNode):
    """UNION of two patterns (bag semantics)."""

    left: PatternNode
    right: PatternNode

    def variables(self) -> Set[Variable]:
        return self.left.variables() | self.right.variables()

    def children(self) -> Sequence[PatternNode]:
        return (self.left, self.right)

    def accept(self, visitor: "PatternVisitor", *args):
        return visitor.visit_union(self, *args)


@dataclass(frozen=True)
class OrderCondition:
    """One ORDER BY criterion."""

    expression: Expression
    ascending: bool = True


@dataclass(frozen=True)
class Projection(PatternNode):
    """SELECT projection onto a list of variables (empty = ``SELECT *``)."""

    pattern: PatternNode
    variables_list: Tuple[Variable, ...]

    def variables(self) -> Set[Variable]:
        if self.variables_list:
            return set(self.variables_list)
        return self.pattern.variables()

    def children(self) -> Sequence[PatternNode]:
        return (self.pattern,)

    def accept(self, visitor: "PatternVisitor", *args):
        return visitor.visit_projection(self, *args)


@dataclass(frozen=True)
class Distinct(PatternNode):
    pattern: PatternNode

    def variables(self) -> Set[Variable]:
        return self.pattern.variables()

    def children(self) -> Sequence[PatternNode]:
        return (self.pattern,)

    def accept(self, visitor: "PatternVisitor", *args):
        return visitor.visit_distinct(self, *args)


@dataclass(frozen=True)
class OrderBy(PatternNode):
    pattern: PatternNode
    conditions: Tuple[OrderCondition, ...]

    def variables(self) -> Set[Variable]:
        return self.pattern.variables()

    def children(self) -> Sequence[PatternNode]:
        return (self.pattern,)

    def accept(self, visitor: "PatternVisitor", *args):
        return visitor.visit_order_by(self, *args)


@dataclass(frozen=True)
class Slice(PatternNode):
    """LIMIT / OFFSET."""

    pattern: PatternNode
    offset: int = 0
    limit: Optional[int] = None

    def variables(self) -> Set[Variable]:
        return self.pattern.variables()

    def children(self) -> Sequence[PatternNode]:
        return (self.pattern,)

    def accept(self, visitor: "PatternVisitor", *args):
        return visitor.visit_slice(self, *args)


class PatternVisitor:
    """Visitor over algebra trees; unhandled operators hit ``generic_visit``.

    The compiler's plan builder and the journal's template fingerprinter are
    both instances of this protocol, so a new algebra operator fails loudly
    (``generic_visit`` raises) everywhere at once instead of being silently
    skipped by one hand-rolled ``isinstance`` ladder.
    """

    def visit(self, node: PatternNode, *args):
        return node.accept(self, *args)

    def generic_visit(self, node: PatternNode, *args):
        raise TypeError(f"{type(self).__name__} cannot handle {type(node).__name__}")

    def visit_bgp(self, node: BGP, *args):
        return self.generic_visit(node, *args)

    def visit_join(self, node: Join, *args):
        return self.generic_visit(node, *args)

    def visit_left_join(self, node: LeftJoin, *args):
        return self.generic_visit(node, *args)

    def visit_filter(self, node: Filter, *args):
        return self.generic_visit(node, *args)

    def visit_union(self, node: Union, *args):
        return self.generic_visit(node, *args)

    def visit_projection(self, node: Projection, *args):
        return self.generic_visit(node, *args)

    def visit_distinct(self, node: Distinct, *args):
        return self.generic_visit(node, *args)

    def visit_order_by(self, node: OrderBy, *args):
        return self.generic_visit(node, *args)

    def visit_slice(self, node: Slice, *args):
        return self.generic_visit(node, *args)


@dataclass(frozen=True)
class AggregateBinding:
    """One ``(AGG(?var) AS ?alias)`` binding in a SELECT clause.

    ``variable`` is ``None`` for ``COUNT(*)``.
    """

    function: str  # count | sum | avg | min | max
    variable: Optional[Variable]
    alias: Variable
    distinct: bool = False


@dataclass
class Query:
    """A complete parsed SPARQL SELECT query."""

    pattern: PatternNode
    select_variables: Tuple[Variable, ...] = ()
    distinct: bool = False
    order_by: Tuple[OrderCondition, ...] = ()
    limit: Optional[int] = None
    offset: int = 0
    prefixes: dict = field(default_factory=dict)
    text: str = ""
    #: GROUP BY variables, in clause order (empty = no explicit grouping).
    group_by: Tuple[Variable, ...] = ()
    #: Aggregate bindings from the SELECT clause; a non-empty tuple makes
    #: this an aggregate query (implicitly grouped when ``group_by`` is empty).
    aggregates: Tuple[AggregateBinding, ...] = ()
    #: Set by a session's template cache on the queries *it* parsed: the
    #: template the text matched and this query's constants for its slots.
    #: Not part of the query's value — ``parse_query`` leaves it ``None``.
    template_binding: Optional[Any] = field(default=None, compare=False, repr=False)

    def variables(self) -> Set[Variable]:
        if self.select_variables:
            return set(self.select_variables)
        return self.pattern.variables()

    def projected_names(self) -> List[str]:
        """Names of the projected variables, in declaration order."""
        if self.select_variables:
            return [v.name for v in self.select_variables]
        return sorted(v.name for v in self.pattern.variables())


def collect_bgps(node: PatternNode) -> List[BGP]:
    """Collect every BGP leaf of an algebra tree (pre-order)."""
    return [n for n in node.walk() if isinstance(n, BGP)]


def collect_triple_patterns(node: PatternNode) -> List[TriplePattern]:
    """Collect all triple patterns below ``node``."""
    patterns: List[TriplePattern] = []
    for bgp in collect_bgps(node):
        patterns.extend(bgp.patterns)
    return patterns
