"""Unit tests for the plan IR (`repro.engine.ops`): immutable nodes,
generic traversal, the visitor protocol and the capability flags engines
branch on instead of node classes."""

import re
from pathlib import Path

import pytest

from repro.engine.ops import (
    AggregateNode,
    AggregateSpec,
    DistinctNode,
    EmptyNode,
    FilterNode,
    LeftOuterJoinNode,
    LimitNode,
    NaturalJoinNode,
    Operation,
    OperationVisitor,
    OrderByNode,
    ProjectNode,
    SqlSkeleton,
    SubqueryNode,
    TableScanNode,
    UnionNode,
    count_joins,
    plan_depth,
)
from repro.sparql.expressions import Comparison, TermExpression, VariableExpression
from repro.rdf.terms import IRI, Literal, Variable


def scan(table: str, *aliases: str) -> SubqueryNode:
    columns = ("s", "o")[: len(aliases)]
    return SubqueryNode(table_name=table, projections=tuple(zip(columns, aliases)))


@pytest.fixture()
def tree():
    """join(scan(a), filter(scan(b))) — the reference tree for traversal."""
    left = scan("vp_p", "x", "y")
    inner = scan("vp_q", "y", "z")
    predicate = Comparison(
        "=", VariableExpression(Variable("z")), TermExpression(IRI("c"))
    )
    right = FilterNode(child=inner, expression=predicate)
    return NaturalJoinNode(left=left, right=right), left, inner, right


class TestTraversal:
    def test_walk_is_preorder(self, tree):
        root, left, inner, right = tree
        assert list(root.walk()) == [root, left, right, inner]

    def test_output_columns_dedup_shared(self, tree):
        root, *_ = tree
        assert root.output_columns() == ("x", "y", "z")
        assert root.shared_columns() == ("y",)

    def test_transform_preserves_untouched_identity(self, tree):
        root, left, *_ = tree
        rebuilt = root.transform(lambda node: node)
        # Nothing changed, so the *same* objects come back — executors key
        # annotations on id(node) and rely on this.
        assert rebuilt is root

    def test_transform_rebuilds_path_to_changed_node(self, tree):
        root, left, inner, right = tree
        replacement = scan("extvp_ss_q__p", "y", "z")

        def swap(node):
            return replacement if node is inner else node

        rebuilt = root.transform(swap)
        assert rebuilt is not root
        assert rebuilt.left is left  # untouched branch keeps identity
        assert rebuilt.right is not right
        assert rebuilt.right.child is replacement
        # The original tree is untouched (nodes are immutable).
        assert root.right.child is inner

    def test_nodes_are_frozen(self, tree):
        root, *_ = tree
        with pytest.raises(AttributeError):
            root.left = root.right

    def test_measures(self, tree):
        root, *_ = tree
        assert plan_depth(root) == 3
        assert count_joins(root) == 1
        assert count_joins(UnionNode(left=root, right=root)) == 2


class TestCapabilityFlags:
    def test_joins(self, tree):
        root, *_ = tree
        assert root.is_join and not root.is_outer_join and not root.is_scan
        outer = LeftOuterJoinNode(left=root.left, right=root.right)
        assert outer.is_join and outer.is_outer_join

    def test_scans(self):
        assert scan("vp_p", "x", "y").is_scan
        assert TableScanNode(table_name="triples", columns=("s", "p", "o")).is_scan
        assert not EmptyNode(columns=("x",)).is_scan

    def test_plain_operators_carry_no_flags(self, tree):
        root, *_ = tree
        for node in (
            DistinctNode(child=root),
            ProjectNode(child=root, columns=("x",)),
            OrderByNode(child=root, keys=(("x", True),)),
            LimitNode(child=root, limit=3),
            UnionNode(left=root, right=root),
        ):
            assert not node.is_join and not node.is_outer_join and not node.is_scan

    def test_no_isinstance_ladders_outside_the_ir_module(self):
        """Engines must branch on capability flags / visitors, never on node
        classes: no `isinstance(..., XxxNode)` outside repro/engine/ops.py."""
        node_names = (
            "TableScanNode|SubqueryNode|EmptyNode|NaturalJoinNode|LeftOuterJoinNode"
            "|UnionNode|FilterNode|ProjectNode|DistinctNode|OrderByNode|LimitNode"
            "|AggregateNode|PlanNode|Operation"
        )
        pattern = re.compile(r"isinstance\([^)]*\b(?:" + node_names + r")\b")
        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        offenders = [
            f"{path}:{number}: {line.strip()}"
            for path in sorted(src.rglob("*.py"))
            if path.name != "ops.py"
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)
        ]
        assert offenders == []


class TestVisitorProtocol:
    def test_dispatch_and_context_threading(self, tree):
        root, *_ = tree

        class CountingVisitor(OperationVisitor):
            def visit_natural_join(self, node, depth):
                return 1 + self.visit(node.left, depth + 1) + self.visit(node.right, depth + 1)

            def visit_filter(self, node, depth):
                return self.visit(node.child, depth + 1)

            def visit_subquery(self, node, depth):
                assert depth > 0
                return 0

        assert CountingVisitor().visit(root, 0) == 1

    def test_unhandled_node_raises(self, tree):
        root, *_ = tree
        with pytest.raises(TypeError, match="cannot handle NaturalJoinNode"):
            OperationVisitor().visit(root)

    def test_spark_sql_rendering_is_a_visitor(self, tree):
        root, *_ = tree
        text = root.to_sql()
        assert "JOIN" in text and "vp_p" in text and "vp_q" in text


def rebound(plan: Operation, binding) -> Operation:
    """``plan`` rebuilt with ``binding``'s constants in its scans' conditions."""

    def rebind(node):
        if type(node) is not SubqueryNode:
            return node
        conditions = tuple(
            (column, binding.get(id(value), value)) for column, value in node.conditions
        )
        return SubqueryNode(node.table_name, node.projections, conditions)

    return plan.transform(rebind)


#: Every character ``str.splitlines`` breaks at besides "\n"; N3 keeps them as they are.
LINE_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestSqlRendering:
    @pytest.mark.parametrize("separator", LINE_BREAKS, ids=repr)
    def test_a_constant_keeps_its_line_separators_at_any_depth(self, separator):
        constant = Literal(f"a{separator}b")
        leaf = SubqueryNode("t", (("s", "x"),), (("o", constant),))
        assert leaf.to_sql() == f"SELECT s AS x FROM t WHERE o = '\"a{separator}b\"'"
        nested = NaturalJoinNode(leaf, scan("u", "x"))
        assert f"  SELECT s AS x FROM t WHERE o = '\"a{separator}b\"'\n" in nested.to_sql()

    def test_the_skeleton_of_a_plan_is_its_text(self, tree):
        root, *_ = tree
        plan = NaturalJoinNode(
            SubqueryNode("vp_p", (("s", "x"),), (("o", IRI("a")),)),
            UnionNode(
                root, SubqueryNode("vp_q", (("o", "x"),), (("s", IRI("b")), ("o", IRI("a"))))
            ),
        )
        skeleton = SqlSkeleton(plan)
        assert skeleton.render() == skeleton.render(None) == plan.to_sql()

    @pytest.mark.parametrize(
        "value",
        [Literal("it's"), Literal('say "x"\\'), Literal("a\rb", language="en"), Literal("5"),
         IRI("c"), "line\nbreak", 42],
        ids=repr,
    )
    def test_a_filled_skeleton_is_the_text_of_the_rebound_plan(self, value):
        first, second = IRI("a"), IRI("b")
        plan = LimitNode(
            child=NaturalJoinNode(
                SubqueryNode("vp_p", (("s", "x"),), (("o", first),)),
                FilterNode(
                    child=SubqueryNode("vp_q", (("s", "x"), ("o", "y")), (("o", second),)),
                    expression=Comparison(
                        "=", VariableExpression(Variable("y")), TermExpression(IRI("c"))
                    ),
                ),
            ),
            limit=3,
        )
        skeleton = SqlSkeleton(plan)
        for binding in ({id(second): value}, {id(first): value, id(second): Literal("z")}, {}):
            assert skeleton.render(binding) == rebound(plan, binding).to_sql()

    def test_a_plan_whose_text_holds_the_marker_renders_whole(self):
        constant = IRI("a")
        plan = FilterNode(
            child=SubqueryNode("vp_p", (("s", "x"),), (("o", constant),)),
            expression=Comparison(
                "=", VariableExpression(Variable("x")), TermExpression(Literal("nul\x00here"))
            ),
        )
        binding = {id(constant): IRI("b")}
        assert SqlSkeleton(plan).render(binding) == rebound(plan, binding).to_sql()
        assert "'<b>'" in SqlSkeleton(plan).render(binding)


class TestAggregateSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown aggregate function"):
            AggregateSpec(function="median", column="x", alias="m")
        with pytest.raises(ValueError, match=r"sum\(\*\) is not defined"):
            AggregateSpec(function="sum", column=None, alias="s")

    def test_describe(self):
        spec = AggregateSpec(function="count", column="x", alias="n", distinct=True)
        assert spec.describe() == "count(DISTINCT ?x) AS ?n"
        star = AggregateSpec(function="count", column=None, alias="n")
        assert star.describe() == "count(*) AS ?n"

    def test_output_columns(self, tree):
        root, *_ = tree
        node = AggregateNode(
            child=root,
            group_keys=("x",),
            aggregates=(AggregateSpec(function="count", column="y", alias="n"),),
        )
        assert node.output_columns() == ("x", "n")
