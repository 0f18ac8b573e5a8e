"""BGP to SQL translation (Algorithms 3 and 4 of the paper).

``compile_bgp`` joins the subqueries of all triple patterns.  With
``optimize_join_order=True`` (Algorithm 4) the patterns are processed in an
order that (1) prefers patterns with more bound values, (2) avoids cross joins
by requiring a shared variable with the patterns already joined, and (3)
prefers the smallest selected table, which reduces intermediate results.
With ``optimize_join_order=False`` the patterns are joined in textual order
(Algorithm 3), which the ablation benchmark uses as the unoptimised baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.table_selection import TableChoice, TableSelector
from repro.core.translation import triple_pattern_to_subquery
from repro.engine.ops import EmptyNode, NaturalJoinNode, PlanNode
from repro.rdf.terms import Variable
from repro.sparql.algebra import BGP, TriplePattern


@dataclass
class BGPCompilationResult:
    """The plan for a BGP plus the decisions that produced it."""

    plan: PlanNode
    choices: List[Tuple[TriplePattern, TableChoice]] = field(default_factory=list)
    join_order: List[TriplePattern] = field(default_factory=list)
    statically_empty: bool = False

    @property
    def selected_tables(self) -> List[str]:
        return [choice.table_name for _, choice in self.choices]


def _order_patterns(
    patterns: Sequence[TriplePattern],
    choices: Dict[int, TableChoice],
) -> List[int]:
    """Algorithm 4's ordering: bound values first, then smallest table,
    always requiring a shared variable with the already-joined prefix."""
    # Per pattern, once: the selection loop below is quadratic in the BGP size.
    variables = [{v.name for v in pattern.variables()} for pattern in patterns]
    bound = [pattern.bound_count() for pattern in patterns]
    remaining = list(range(len(patterns)))
    # Primary order: number of bound values (descending).
    remaining.sort(key=lambda i: (-bound[i], choices[i].row_count))
    ordered: List[int] = []
    seen_variables: Set[str] = set()
    while remaining:
        next_index: Optional[int] = None
        for index in remaining:
            connected = not ordered or not seen_variables.isdisjoint(variables[index])
            if not connected:
                continue
            if next_index is None:
                next_index = index
                continue
            if bound[index] > bound[next_index]:
                next_index = index
            elif (
                bound[index] == bound[next_index]
                and choices[index].row_count < choices[next_index].row_count
            ):
                next_index = index
        if next_index is None:
            # Every remaining pattern would need a cross join; take the
            # smallest one and accept the cross join.
            next_index = min(remaining, key=lambda i: choices[i].row_count)
        ordered.append(next_index)
        seen_variables |= variables[next_index]
        remaining.remove(next_index)
    return ordered


def compile_bgp(
    bgp: BGP,
    selector: TableSelector,
    optimize_join_order: bool = True,
) -> BGPCompilationResult:
    """Translate a BGP into a join plan over the selected tables."""
    patterns = list(bgp.patterns)
    if not patterns:
        return BGPCompilationResult(plan=EmptyNode(), statically_empty=False)

    choices: Dict[int, TableChoice] = {
        index: selector.select(pattern, patterns) for index, pattern in enumerate(patterns)
    }

    # Statistics short-circuit (Algorithm 3, line 4): any empty table proves
    # the whole BGP empty.
    all_variables = tuple(sorted({v.name for p in patterns for v in p.variables()}))
    if any(choice.is_empty for choice in choices.values()):
        result = BGPCompilationResult(
            plan=EmptyNode(columns=all_variables),
            choices=[(patterns[i], choices[i]) for i in range(len(patterns))],
            join_order=list(patterns),
            statically_empty=True,
        )
        return result

    if optimize_join_order:
        order = _order_patterns(patterns, choices)
    else:
        order = list(range(len(patterns)))

    plan: Optional[PlanNode] = None
    ordered_patterns: List[TriplePattern] = []
    ordered_choices: List[Tuple[TriplePattern, TableChoice]] = []
    for index in order:
        pattern = patterns[index]
        choice = choices[index]
        subquery = triple_pattern_to_subquery(pattern, choice)
        ordered_patterns.append(pattern)
        ordered_choices.append((pattern, choice))
        plan = subquery if plan is None else NaturalJoinNode(plan, subquery)

    assert plan is not None
    return BGPCompilationResult(
        plan=plan,
        choices=ordered_choices,
        join_order=ordered_patterns,
        statically_empty=False,
    )
