"""The query front end's template cache: parse and compile once per template.

A workload is a few dozen query *templates* instantiated many times, and
neither the grammar nor the SPARQL-to-SQL compilation (table selection, join
ordering, TP2SQL) ever looks at the value of a subject/object constant — only
at which positions are bound.  So both are done once per template:

* **Parse.**  The text is read as its token spellings, from one C-level
  scan (:func:`~repro.sparql.tokenizer.spellings`).  The spellings with the
  constants in triple-pattern subject/object position — the *slots* —
  blanked, and each slot's token kind, name the template.  Everything but
  the slots stays in the key: prologue, predicates, variable names, keyword
  case, FILTER / LIMIT constants; whitespace and comments do not.  Which
  spellings are slots is the parser's own report
  (:attr:`~repro.sparql.parser._Parser.constants`), looked up by the text's
  *shape* (the first character of every spelling, digits as ``0``) from the
  last text of that shape the tokenizer and grammar ran on.  The shape only
  proposes: equal spellings are equal token streams (the scan is the
  tokenizer's), so a template found under the proposed key, with every slot
  spelling lexing as its kind, is what the full parser would make of the
  text with other constants.  A hit therefore runs neither:
  :meth:`TemplateCache.lookup` returns the template and the slots'
  spellings — no term is made and no ``Query`` is built.  Anything
  irregular (no template, another kind, an undeclared prefix, a malformed
  literal) falls through to the full parser, whose error it is.
* **Compile.**  The plan is compiled once per template, from the template's
  own query, and kept with it in a plan entry.  The plan's row estimates
  (:class:`~repro.engine.estimates.RowEstimates`: the root estimate the
  journal records) depend on the plan's shape and the statistics, not on a
  constant, so they are computed with the plan and every hit shares them.
  So are the plan's scans, prepared
  (:class:`~repro.engine.plan.PreparedScan`: table handle, checked column
  lists, output columns, and the relabelled batch of a scan without
  conditions).  Plans depend on the statistics, so an entry is served only
  at the catalog statistics generation it was compiled at, and
  :meth:`TemplateCache.invalidate_plans` drops them all whenever the store
  changes; parsed templates survive.

A query runs the cached plan as it is: its constants travel as a
:class:`~repro.engine.plan.Binding` (:meth:`TemplateCache.bind`), so nothing
is rebuilt per query.  Only what is handed out rebinds:
:meth:`TemplateCache.parse` and :meth:`TemplateCache.compile`
(``session.parse`` / ``session.compile`` / ``explain``) return a copy of the
algebra tree and of the plan with the query's constants in them.  A result's
SQL text needs no rebuilt plan either: each cached plan comes with its
:class:`~repro.engine.ops.SqlSkeleton`, the plan's text rendered once and cut
at its scan constants, which the binding's terms fill in — the same text the
rebound plan renders.

Binding goes from spellings to ids once.  The plan entry remembers, per slot
spelling, its kind, the term it denotes in the template's prologue and that
term's dictionary id and stable hash (``None`` when the store does not hold
it: the scans are empty); a spelling met again costs one dict access — no
lexing, no term, no dictionary lookup, no hash.  The memo is the entry's, so
it is scoped to the template (the same spelling is another IRI under another
``PREFIX``) and dies with the store generation its ids belong to; it is
bounded by :data:`MAX_SLOT_SPELLINGS`.  Slots are named by identity: the
terms the parser created for a template's slots are the very objects sitting
in its triple patterns and, after compilation, in the plan's conditions, so
``id(term)`` names a slot wherever it ended up — including one constant
shared by a ``;`` / ``,`` list, and two slots that happen to hold equal
constants.  The binding maps it to the query's term (the SQL skeleton and
the row oracle read that) and to its encoded value (the prepared scans read
that); FILTER constants are no slots and keep their terms.

:func:`repro.sparql.parse_query` stays the uncached reference: the results
here are equal to what it and a fresh :class:`~repro.core.compiler.QueryCompiler`
produce.  Both tables are bounded by :data:`MAX_TEMPLATES` (cleared on
overflow; dropping the templates drops their plans, a plan's skeleton,
prepared scans and memo go with it) and safe under concurrent readers:
entries are published whole, every table operation is a single dict access,
and what a memo holds for a spelling never changes while the entry lives.
"""

from __future__ import annotations

from dataclasses import replace
from operator import itemgetter
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.core.bgp import BGPCompilationResult
from repro.core.compiler import CompiledQuery, QueryCompiler
from repro.engine.catalog import Catalog
from repro.engine.estimates import RowEstimates
from repro.engine.ops import Operation, SqlSkeleton, SubqueryNode
from repro.engine.plan import Binding, EncodedTerm, PreparedScan, prepare_scans
from repro.obs.journal import fingerprint_text, template_text
from repro.rdf.terms import Term
from repro.sparql.algebra import (
    BGP,
    Filter,
    Join,
    LeftJoin,
    PatternNode,
    PatternVisitor,
    Query,
    TriplePattern,
    Union,
)
from repro.sparql.parser import MalformedTermError, _Parser, term_of_token, tokenize_query
from repro.sparql.tokenizer import Token, kind_of, spellings

#: Templates kept per table; a table that reaches it is cleared.
MAX_TEMPLATES = 1024
#: Slot spellings a plan entry remembers; a memo that reaches it is cleared.
MAX_SLOT_SPELLINGS = 256

class QueryTemplate:
    """One query shape: what the full parser made of the first text that had it."""

    __slots__ = ("query", "constants", "kinds", "template", "fingerprint")

    def __init__(self, query: Query, constants: Tuple[Term, ...], kinds: Tuple[str, ...]) -> None:
        #: The parsed first instance; ``constants`` are the terms in its slots,
        #: ``kinds`` their token kinds (in the key: every instance has them).
        self.query = query
        self.constants = constants
        self.kinds = kinds
        #: The journal's constant-stripped rendering, the same for every instance.
        self.template = template_text(query)
        self.fingerprint = fingerprint_text(self.template)


class TemplateBinding(NamedTuple):
    """What :attr:`Query.template_binding` holds: a template and one query's constants."""

    template: QueryTemplate
    constants: Tuple[Term, ...]
    #: The pattern tree ``constants`` were bound into.
    pattern: PatternNode

    def describes(self, query: Query) -> bool:
        """Whether ``query`` is still what the cache parsed (a ``Query`` is mutable)."""
        base = self.template.query
        return (
            query.pattern is self.pattern
            and query.select_variables is base.select_variables
            and query.aggregates is base.aggregates
            and query.group_by is base.group_by
            and query.order_by is base.order_by
            and query.distinct == base.distinct
            and query.limit == base.limit
            and query.offset == base.offset
        )


class TemplateMatch(NamedTuple):
    """What :meth:`TemplateCache.lookup` found for a text."""

    template: QueryTemplate
    #: The text's spellings in the template's slots.
    spellings: Tuple[str, ...]
    #: The terms they denote, when the parser ran; ``None`` on a hit, which
    #: leaves the spellings to the plan entry's memo (or to :meth:`TemplateCache.parse`).
    constants: Optional[Tuple[Term, ...]]
    #: Whether a cached template answered.
    hit: bool


class _Slot(NamedTuple):
    """What a slot spelling means in one template at one store generation."""

    kind: str
    term: Term
    encoded: EncodedTerm


class _PlanEntry(NamedTuple):
    generation: int
    #: The catalog's statistics generation the plan was chosen at.
    statistics: int
    #: The plan of the template's own query, and its row estimates.
    compiled: CompiledQuery
    #: The plan's SQL text, cut at its scan constants.
    sql: SqlSkeleton
    #: The plan's scans of stored tables, prepared, by ``id(node)``.
    scans: Dict[int, PreparedScan]
    #: Slot spelling -> its kind, term and encoded value; bounded by
    #: :data:`MAX_SLOT_SPELLINGS`.  Dies with the entry, so with the store
    #: generation its ids belong to.
    slots: Dict[str, _Slot]

    def bind(self, match: TemplateMatch, dictionary: Any) -> Optional[Binding]:
        """The binding of ``match``'s slot spellings to this plan's constants.

        A spelling met before in this template costs one dict access; a new
        one is lexed, made a term in the template's prologue and encoded
        through ``dictionary`` (the store's
        :class:`~repro.store.format.StoredTermDictionary`) once.  ``None``
        when a spelling of a hit is no token of its slot's kind or names no
        term: the full parser reports that.
        """
        template = match.template
        constants = match.constants
        memo = self.slots
        terms: Dict[int, Term] = {}
        ids: Dict[int, EncodedTerm] = {}
        for index, (was, spelling, kind) in enumerate(
            zip(template.constants, match.spellings, template.kinds)
        ):
            slot = memo.get(spelling)
            if slot is None:
                if constants is None:
                    term = _slot_term(template, spelling, kind)
                else:
                    term = constants[index]
                if term is None:
                    return None
                slot = _Slot(kind, term, dictionary.encode(term))
                if len(memo) >= MAX_SLOT_SPELLINGS:
                    memo.clear()
                memo[spelling] = slot
                if len(memo) > MAX_SLOT_SPELLINGS:
                    # Concurrent binders all passed the check above before inserting.
                    memo.clear()
            elif slot.kind != kind:
                return None
            terms[id(was)] = slot.term
            ids[id(was)] = slot.encoded
        return Binding(terms, ids, self.scans)


def bind_terms(template: QueryTemplate, constants: Tuple[Term, ...]) -> Optional[Dict[int, Term]]:
    """``id(template's term) -> term`` that puts ``constants`` into ``template``'s slots.

    ``None`` when there is nothing to replace: the constants are the
    template's own (the text the template was parsed from) or there are none.
    """
    if constants is template.constants or not constants:
        return None
    return {id(was): now for was, now in zip(template.constants, constants)}


#: ``id(template's term) -> the term in its place``.
Terms = Mapping[int, Term]


def _rebind_triple(pattern: TriplePattern, terms: Terms) -> TriplePattern:
    subject = terms.get(id(pattern.subject))
    object_ = terms.get(id(pattern.object))
    if subject is None and object_ is None:
        return pattern
    return TriplePattern(
        pattern.subject if subject is None else subject,
        pattern.predicate,
        pattern.object if object_ is None else object_,
    )


class _PatternRebinder(PatternVisitor):
    """Rebuilds a parsed group graph pattern with other constants in its slots."""

    def visit_bgp(self, node: BGP, terms: Terms) -> PatternNode:
        return BGP([_rebind_triple(pattern, terms) for pattern in node.patterns])

    def visit_join(self, node: Join, terms: Terms) -> PatternNode:
        return Join(self.visit(node.left, terms), self.visit(node.right, terms))

    def visit_left_join(self, node: LeftJoin, terms: Terms) -> PatternNode:
        return LeftJoin(
            self.visit(node.left, terms), self.visit(node.right, terms), node.expression
        )

    def visit_union(self, node: Union, terms: Terms) -> PatternNode:
        return Union(self.visit(node.left, terms), self.visit(node.right, terms))

    def visit_filter(self, node: Filter, terms: Terms) -> PatternNode:
        return Filter(node.expression, self.visit(node.pattern, terms))


_REBIND_PATTERN = _PatternRebinder()


def _rebind_plan(plan: Operation, terms: Terms) -> Operation:
    """``plan`` with other constants in its scans' equality conditions.

    Whatever holds no constant keeps its identity.
    """

    def rebind_scan(node: Operation) -> Operation:
        if type(node) is not SubqueryNode or not node.conditions:
            return node
        conditions = tuple(
            [(column, terms.get(id(term), term)) for column, term in node.conditions]
        )
        if all(new[1] is old[1] for new, old in zip(conditions, node.conditions)):
            return node
        return SubqueryNode(node.table_name, node.projections, conditions)

    return plan.transform(rebind_scan)


def _rebind_compiled(compiled: CompiledQuery, terms: Terms) -> CompiledQuery:
    """``compiled`` with other constants in its scans' equality conditions.

    Each BGP's subplan is rebound on its own (its
    :class:`~repro.core.bgp.BGPCompilationResult` holds it, next to the triple
    patterns it answers) and the operators above are rebuilt around the moved
    subplans.
    """
    moved: Dict[int, Operation] = {}
    results: List[BGPCompilationResult] = []
    for result in compiled.bgp_results:
        plan = _rebind_plan(result.plan, terms)
        if plan is not result.plan:
            moved[id(result.plan)] = plan
        choices = [(_rebind_triple(pattern, terms), choice) for pattern, choice in result.choices]
        results.append(
            BGPCompilationResult(
                plan=plan,
                choices=choices,
                # compile_bgp lists the patterns in the order of their choices.
                join_order=[pattern for pattern, _ in choices],
                statically_empty=result.statically_empty,
            )
        )
    plan = compiled.plan
    if moved:
        plan = plan.transform(lambda node: moved.get(id(node), node))
    return CompiledQuery(plan=plan, bgp_results=results, estimates=compiled.estimates)


#: A text's *shape* is the first character of every spelling, any digit as
#: ``0`` (a number in a slot may start with any).
_FIRST = itemgetter(0)
_DIGITS = str.maketrans("123456789", "000000000")

#: (slot kinds, spellings with the slots blanked): what names a template.
TemplateKey = Tuple[Tuple[str, ...], Tuple[Optional[str], ...]]


def _template_key(
    found: Sequence[str], slots: Sequence[int], kinds: Tuple[str, ...]
) -> TemplateKey:
    blanked: List[Optional[str]] = list(found)
    for index in slots:
        blanked[index] = None
    return kinds, tuple(blanked)


def _slot_term(template: QueryTemplate, spelling: str, kind: str) -> Optional[Term]:
    """The term ``spelling`` denotes in a slot of ``kind`` in ``template``'s prologue.

    ``None`` when the spelling is no token of that kind or names no term:
    the full parser reports that.
    """
    if kind_of(spelling) != kind:
        return None
    try:
        # No position: a slot a hit cannot take goes to the parser.
        return term_of_token(Token(kind, spelling, 0), template.query.prefixes)
    except MalformedTermError:
        return None


class TemplateCache:
    """Parsed templates and their compiled plans, for one session."""

    def __init__(self) -> None:
        #: Shape -> the spelling indexes of the slots and each slot's token
        #: kind, for the last text of that shape the parser ran on.
        self._slots: Dict[str, Tuple[Tuple[int, ...], Tuple[str, ...]]] = {}
        self._templates: Dict[TemplateKey, QueryTemplate] = {}
        self._plans: Dict[QueryTemplate, _PlanEntry] = {}
        #: Advanced by :meth:`invalidate_plans`; a plan compiled while the
        #: store changed under it carries the old number and is never served
        #: (the catalog's statistics generation guards the same way).
        self._generation = 0

    def __len__(self) -> int:
        return len(self._templates)

    def plan_count(self) -> int:
        return len(self._plans)

    # ------------------------------------------------------------------ #
    def lookup(self, text: str, parse: bool = False) -> TemplateMatch:
        """The template ``text`` instantiates and the spellings in its slots.

        On a hit that is all: neither the tokenizer nor the grammar runs, and
        no slot is lexed yet.  A miss (or ``parse``) runs the full parser,
        registers the template and hands back the terms it made.
        """
        found = spellings(text)
        shape = "".join(map(_FIRST, found)).translate(_DIGITS)
        entry = None if parse else self._slots.get(shape)
        if entry is not None:
            slots, kinds = entry
            template = self._templates.get(_template_key(found, slots, kinds))
            if template is not None:
                return TemplateMatch(template, tuple([found[index] for index in slots]), None, True)
        tokens = tokenize_query(text)
        parser = _Parser(text, tokens)
        query = parser.parse()
        # Every token is one spelling, in order: token indexes index ``found``.
        slots = tuple([index for index, _ in parser.constants])
        kinds = tuple([tokens[index].kind for index in slots])
        constants = tuple([term for _, term in parser.constants])
        key = _template_key(found, slots, kinds)
        template = self._templates.get(key)
        # A cached template met in another shape (a slot's constant starts
        # with another character) is kept: the query shares it, and its plan.
        if template is None:
            template = QueryTemplate(query, constants, kinds)
        if max(len(self._templates), len(self._slots)) >= MAX_TEMPLATES:
            self._clear()
        self._slots[shape] = (slots, kinds)
        # Misses on one template at once share the first template inserted,
        # and with it one plan entry.
        template = self._templates.setdefault(key, template)
        if max(len(self._templates), len(self._slots)) > MAX_TEMPLATES:
            # Concurrent misses all passed the check above before inserting.
            self._clear()
        return TemplateMatch(template, tuple([found[index] for index in slots]), constants, False)

    def parse(self, text: str) -> Tuple[Query, bool]:
        """``parse_query(text)`` and whether a cached template answered it."""
        match = self.lookup(text)
        constants = match.constants
        if constants is None:
            template = match.template
            terms = [
                _slot_term(template, spelling, kind)
                for spelling, kind in zip(match.spellings, template.kinds)
            ]
            if any(term is None for term in terms):
                match = self.lookup(text, parse=True)
                constants = match.constants
            else:
                constants = tuple(terms)
        return self._instantiate(match.template, constants, text), match.hit

    def _clear(self) -> None:
        """Drop every template, and the plans no lookup can reach without them."""
        self._templates.clear()
        self._slots.clear()
        self._plans.clear()

    @staticmethod
    def _instantiate(template: QueryTemplate, constants: Tuple[Term, ...], text: str) -> Query:
        """A ``Query`` of its own: the template's with ``constants`` in its slots."""
        base = template.query
        pattern = base.pattern
        terms = bind_terms(template, constants)
        if terms is not None:
            pattern = _REBIND_PATTERN.visit(pattern, terms)
        return replace(
            base,
            pattern=pattern,
            prefixes=dict(base.prefixes),
            text=text,
            template_binding=TemplateBinding(template, constants, pattern),
        )

    # ------------------------------------------------------------------ #
    def _entry(
        self, template: QueryTemplate, compiler: QueryCompiler, catalog: Catalog
    ) -> Tuple[_PlanEntry, bool]:
        """The plan entry of ``template``'s own query over ``catalog`` (the one
        ``compiler`` selects tables from), and whether a cached plan answered.

        The plan, its row estimates, its SQL skeleton and its prepared
        scans are shared by every query of the template: read them, run and
        render them with a binding, never change them; only the slot memo
        grows (:meth:`_PlanEntry.bind`).
        """
        # Both read before compiling: a plan chosen while either moved carries
        # the old number and is never served.
        generation = self._generation
        statistics = catalog.generation
        entry = self._plans.get(template)
        if entry is not None and entry.generation == generation and entry.statistics == statistics:
            return entry, True
        compiled = compiler.compile(template.query)
        compiled.estimates = RowEstimates(compiled.plan, catalog)
        entry = _PlanEntry(
            generation,
            statistics,
            compiled,
            SqlSkeleton(compiled.plan),
            prepare_scans(compiled.plan, catalog, template.constants),
            {},
        )
        # An odd generation: the statistics were changing under the compile.
        if not statistics & 1:
            if len(self._plans) >= MAX_TEMPLATES:
                self._plans.clear()
            self._plans[template] = entry
            if len(self._plans) > MAX_TEMPLATES:
                # Concurrent misses all passed the check above before inserting.
                self._plans.clear()
        return entry, False

    def bind(
        self,
        text: str,
        match: TemplateMatch,
        compiler: QueryCompiler,
        catalog: Catalog,
        dictionary: Any,
    ) -> Tuple[TemplateMatch, CompiledQuery, SqlSkeleton, Binding, bool]:
        """What runs ``text``, which :meth:`lookup` matched: the match, the
        template's plan (with its row estimates) and SQL skeleton, the
        binding of the text's constants, and whether a cached plan answered.

        The match is the full parser's when a slot of a hit turned out
        irregular (its error, if it has one, is raised here).
        """
        entry, hit = self._entry(match.template, compiler, catalog)
        binding = entry.bind(match, dictionary)
        if binding is None:
            match = self.lookup(text, parse=True)
            entry, hit = self._entry(match.template, compiler, catalog)
            binding = entry.bind(match, dictionary)
        return match, entry.compiled, entry.sql, binding, hit

    def compile(
        self, query: Query, compiler: QueryCompiler, catalog: Catalog
    ) -> Tuple[CompiledQuery, Optional[bool]]:
        """``compiler.compile(query)`` and whether a cached plan answered it.

        The plan comes with its row estimates over ``catalog`` and with
        ``query``'s constants in its conditions.  A query this cache did not
        parse (or that was edited since) is compiled as it always was,
        without estimates; the flag is ``None``.
        """
        binding = query.template_binding
        if binding is None or not binding.describes(query):
            return compiler.compile(query), None
        template, constants, _ = binding
        entry, hit = self._entry(template, compiler, catalog)
        compiled = entry.compiled
        terms = bind_terms(template, constants)
        if terms is not None:
            return _rebind_compiled(compiled, terms), hit
        # The caller gets its own CompiledQuery, like a rebound one.
        return replace(compiled, bgp_results=list(compiled.bgp_results)), hit

    def invalidate_plans(self) -> None:
        """Drop every plan entry, its ids with it (the store changed)."""
        self._generation += 1
        self._plans.clear()
