"""The *differential correctness harness*: a seeded randomized generator of
BGP / OPTIONAL / UNION queries — layered with FILTER expressions, DISTINCT,
ORDER BY + LIMIT and aggregate heads (COUNT / SUM / AVG / MIN / MAX, grouped
and implicit) — asserting bag-equality across the execution paths: the row
oracle (``row_oracle.py``, the plan executor on rows of terms over a build
catalog's relations, its ExtVP tables computed by their definition in
``extvp_reference.py``: the reference), the in-memory session (id batches over
the store image it holds), the stored native path — id batches over a
persisted dataset that carries pending (uncompacted) delta segments from an
incremental append, traced — directly and through ``serve()``, the sqlite
oracle (``sqlite_oracle.py``, a SQL lowering of the plan: over the build
catalog, and over the delta-carrying stored dataset's catalog with the
stored session's own plan), the stored dataset served with
``execution_mode="process"`` — whole queries shipped to worker processes by
``serve()`` — and, for every plain BGP, an oracle that shares nothing with
the engine but the parser: index nested loops over the graph
(:func:`repro.baselines.binding_iteration.index_nested_loop_execute`).
The ``template-hit`` path answers from the session's template cache: every
WatDiv template (and every generated query) is run again with other constants
in its subject/object slots, so the grammar and the compilation are skipped
and the new constants rebound into the cached tree and plan.

Every WatDiv Basic and IL template also runs through the sqlite oracle, the
graph oracle, the in-memory session and the stored native path at 1, 2 and 8
hash buckets.  And the
costing pass is pinned: the one-walk planner annotates every join of the
WatDiv workload exactly as per-join estimation does."""

import random

import pytest

from engine.extvp_reference import reference_layout
from engine.row_oracle import RowOracle
from engine.sqlite_oracle import SqliteExecutor
from repro.baselines.base import SparqlEngine, UnsupportedQueryError
from repro.baselines.binding_iteration import index_nested_loop_execute
from repro.core.compiler import QueryCompiler
from repro.core.session import S2RDFSession
from repro.core.table_selection import TableSelector
from repro.engine import strategies
from repro.engine.metrics import ExecutionMetrics
from repro.engine.ops import count_joins
from repro.engine.plan import PlanExecutor
from repro.engine.strategies import estimate_rows, plan_join_strategies
from repro.rdf.graph import Graph
from repro.sparql import parse_query
from repro.watdiv.basic_queries import BASIC_TEMPLATES
from repro.watdiv.incremental_queries import INCREMENTAL_TEMPLATES
from repro.watdiv.selectivity_queries import SELECTIVITY_TEMPLATES
from repro.watdiv.template import instantiate_template

ALL_TEMPLATES = {template.name: template for template in BASIC_TEMPLATES + INCREMENTAL_TEMPLATES}


@pytest.fixture(scope="module")
def workload(small_dataset):
    """One build layout (the row oracle's catalog) plus every workload query
    compiled once over its statistics."""
    layout = reference_layout(small_dataset.graph)
    compiler = QueryCompiler(TableSelector(layout))
    compiled = {
        name: compiler.compile(parse_query(instantiate_template(template, small_dataset)))
        for name, template in ALL_TEMPLATES.items()
    }
    return layout, compiled


def bag(relation):
    return sorted(map(repr, relation.rows))


def _strategies_by_per_join_estimates(plan, catalog):
    """What the planner decided before it became one walk: for every join, in
    post-order, estimate both children from scratch and apply the rule."""
    out = []

    def annotate(node):
        for child in node.children():
            annotate(child)
        if not node.is_join:
            return
        left_columns, right_columns = node.left.output_columns(), node.right.output_columns()
        rows = [estimate_rows(side, catalog) for side in (node.left, node.right)]
        sizes = [
            None
            if count == strategies.UNKNOWN_ROWS
            else count * max(1, len(columns)) * strategies.BYTES_PER_VALUE
            for count, columns in zip(rows, (left_columns, right_columns))
        ]
        out.append(
            strategies.choose_join_strategy(
                tuple(c for c in left_columns if c in right_columns),
                *rows,
                *sizes,
                outer=node.is_outer_join,
            )
        )

    annotate(plan)
    return out


#: Bucket counts the stored path runs at.  ``num_partitions`` now only sets
#: how many hash buckets a dataset is written with; no count may change an
#: answer.
BUCKET_COUNTS = (1, 2, 8)


@pytest.fixture(scope="module")
def watdiv_paths(workload, small_dataset, tmp_path_factory):
    """The sqlite oracle over the build catalog, plus, at every bucket count
    of :data:`BUCKET_COUNTS`, an in-memory session and the small dataset it
    saves, opened cold."""
    layout, _ = workload
    sqlite_executor = SqliteExecutor(layout.catalog)
    sessions = {}
    for buckets in BUCKET_COUNTS:
        in_memory = S2RDFSession.from_graph(
            small_dataset.graph, num_partitions=buckets, journal_enabled=False
        )
        path = str(tmp_path_factory.mktemp(f"watdiv-{buckets}-buckets") / "dataset")
        with S2RDFSession.from_graph(
            small_dataset.graph, num_partitions=buckets, journal_enabled=False
        ) as saver:
            saver.save_dataset(path)
        sessions[f"in-memory, {buckets} bucket(s)"] = in_memory
        sessions[f"stored, {buckets} bucket(s)"] = S2RDFSession.open_dataset(
            path, journal_enabled=False
        )
    yield sqlite_executor, sessions
    sqlite_executor.close()
    for session in sessions.values():
        session.close()


@pytest.mark.parametrize("template_name", sorted(ALL_TEMPLATES))
def test_every_path_matches_serial_on_watdiv(workload, watdiv_paths, small_dataset, template_name):
    """Every WatDiv Basic and IL template: the sqlite oracle over the same
    catalog, the graph oracle, and the in-memory and stored native paths at
    every bucket count return the row oracle's bag."""
    layout, compiled = workload
    sqlite_executor, sessions = watdiv_paths
    plan = compiled[template_name].plan
    text = instantiate_template(ALL_TEMPLATES[template_name], small_dataset)
    serial = RowOracle(layout.catalog).execute(plan, ExecutionMetrics())
    sql_result = sqlite_executor.execute(plan, ExecutionMetrics())
    assert sql_result.columns == serial.columns
    assert bag(sql_result) == bag(serial), "sqlite"
    assert oracle_bag(small_dataset.graph, text, serial.columns) == bag(serial), "graph-oracle"
    for label, session in sessions.items():
        result = session.query(text)
        assert sorted(result.relation.columns) == sorted(serial.columns), label
        projected = result.relation.project(serial.columns)
        assert bag(projected) == bag(serial), label


@pytest.mark.parametrize("template_name", sorted(ALL_TEMPLATES))
def test_in_memory_session_executes_on_ids(workload, watdiv_paths, small_dataset, template_name):
    """A session built from a graph serves its store image: every WatDiv Basic
    and IL template runs on id batches there, at every bucket count, and
    returns the row oracle's bag."""
    layout, compiled = workload
    _, sessions = watdiv_paths
    text = instantiate_template(ALL_TEMPLATES[template_name], small_dataset)
    serial = RowOracle(layout.catalog).execute(compiled[template_name].plan)
    for label, session in sessions.items():
        if not label.startswith("in-memory"):
            continue
        assert session.dataset_path is None, label
        result = session.query(text)
        # A query the statistics prove empty scans nothing at all.
        assert result.statically_empty or result.metrics.vectorized_batches > 0, label
        assert bag(result.relation.project(serial.columns)) == bag(serial), label


@pytest.mark.parametrize("template_name", sorted(ALL_TEMPLATES))
def test_one_pass_planner_decides_what_per_join_estimation_decided(
    workload, template_name, monkeypatch
):
    """``plan_join_strategies`` estimates each subtree once, on the way up; the
    strategies of every WatDiv Basic template and IL chain must be the ones
    two fresh ``estimate_rows`` calls per join produce, and the estimate it
    keeps per operator the one ``estimate_rows`` gives that operator.  At this data scale
    Spark's threshold broadcasts every join, so the constant is also lowered
    to reach the shuffle side of the rule (0) and to mix both in one plan."""
    layout, compiled = workload
    plan = compiled[template_name].plan
    for threshold in (0, 2_000, strategies.DEFAULT_BROADCAST_THRESHOLD):
        monkeypatch.setattr(strategies, "DEFAULT_BROADCAST_THRESHOLD", threshold)
        physical = plan_join_strategies(plan, layout.catalog)
        expected = _strategies_by_per_join_estimates(plan, layout.catalog)
        assert physical.strategies() == expected, threshold
        assert len(expected) == count_joins(plan)
    # The same walk kept every operator's estimate (what explain_analyze prints).
    for node in plan.walk():
        assert physical.rows_for(node) == estimate_rows(node, layout.catalog)
    assert physical.root_rows == estimate_rows(plan, layout.catalog)


# --------------------------------------------------------------------------- #
# Differential correctness harness: randomized BGP / OPTIONAL / UNION queries
# --------------------------------------------------------------------------- #
class RandomQueryGenerator:
    """Seeded generator of structurally varied SPARQL queries.

    BGPs are grown connected (each new triple pattern shares at least one
    variable with the ones before it); subjects/objects are variables most of
    the time but occasionally constants drawn from the dataset's terms, so
    pushdown scans with equality predicates get exercised too.  On top of the
    plain BGP shape the generator emits OPTIONAL blocks (left outer joins)
    and two-branch UNIONs, randomly layers FILTER expressions (comparisons
    against dataset constants under &&, || and !) over the body, and picks a
    head shape: SELECT *, DISTINCT, ORDER BY every variable + LIMIT, or an
    aggregate head (COUNT / COUNT DISTINCT / SUM / AVG / MIN / MAX with an
    optional GROUP BY key — the dataset's numeric literals are all integers,
    so SUM/AVG are exact on every backend).  Ordering by *every* in-scope
    variable makes the sort key the whole row, so LIMIT cuts are
    deterministic up to duplicate rows and bag-equality is well-defined.
    """

    _COMPARATORS = ("=", "!=", "<", "<=", ">", ">=")
    _AGG_FUNCTIONS = ("count", "count", "sum", "avg", "min", "max")

    def __init__(self, graph: Graph, seed: int, redraw: int = 0) -> None:
        self.rng = random.Random(seed)
        #: Two generators with one seed emit the same queries; ``redraw``
        #: shifts which constant lands in each triple-pattern slot, and
        #: nothing else (same shapes, predicates, variables and filters).
        self.redraw = redraw
        self.predicates = [p.n3() for p in graph.predicates()]
        subjects = sorted(graph.subjects(), key=lambda t: t.n3())
        objects = sorted(graph.objects(), key=lambda t: t.n3())
        self.subject_terms = [t.n3() for t in subjects]
        self.object_terms = [t.n3() for t in objects]
        self.triples = sorted((t.subject.n3(), t.predicate.n3(), t.object.n3()) for t in graph)

    def _slot_constant(self, terms) -> str:
        return terms[(self.rng.randrange(len(terms)) + self.redraw) % len(terms)]

    def _bgp(self, size: int, first_var: int = 0):
        """Return (pattern lines, in-scope variables, next free var index)."""
        patterns = []
        next_var = first_var + 2
        variables = [f"?v{first_var}", f"?v{first_var + 1}"]
        patterns.append(
            f"{variables[0]} {self.rng.choice(self.predicates)} {variables[1]} ."
        )
        for _ in range(size - 1):
            anchor = self.rng.choice(variables)
            fresh = f"?v{next_var}"
            next_var += 1
            roll = self.rng.random()
            if roll < 0.45:
                subject, object_ = anchor, fresh
                variables.append(fresh)
            elif roll < 0.8:
                subject, object_ = fresh, anchor
                variables.append(fresh)
            elif roll < 0.9:
                subject, object_ = anchor, self._slot_constant(self.object_terms)
            else:
                subject, object_ = self._slot_constant(self.subject_terms), anchor
            patterns.append(f"{subject} {self.rng.choice(self.predicates)} {object_} .")
        return patterns, variables, next_var

    def _body(self):
        """Return (group graph pattern text, in-scope variables)."""
        shape = self.rng.choice(["bgp", "bgp", "optional", "union"])
        if shape == "bgp":
            patterns, variables, _ = self._bgp(self.rng.randint(2, 4))
            body = "\n  ".join(patterns)
        elif shape == "optional":
            required, variables, next_var = self._bgp(self.rng.randint(1, 3))
            # The OPTIONAL block hooks onto ?v1, shared with the required part.
            optional_var = f"?v{next_var}"
            optional = f"?v1 {self.rng.choice(self.predicates)} {optional_var} ."
            body = "\n  ".join(required) + "\n  OPTIONAL { " + optional + " }"
            variables = variables + [optional_var]
        else:
            left, left_vars, _ = self._bgp(self.rng.randint(1, 2))
            right, right_vars, _ = self._bgp(self.rng.randint(1, 2))
            body = "{ " + " ".join(left) + " } UNION { " + " ".join(right) + " }"
            variables = sorted(set(left_vars) | set(right_vars), key=lambda v: int(v[2:]))
        return body, variables

    def _comparison(self, variables) -> str:
        variable = self.rng.choice(variables)
        operator = self.rng.choice(self._COMPARATORS)
        constant = self.rng.choice(self.object_terms)
        return f"{variable} {operator} {constant}"

    def _filter(self, variables) -> str:
        roll = self.rng.random()
        if roll < 0.5:
            expression = self._comparison(variables)
        elif roll < 0.7:
            expression = f"{self._comparison(variables)} && {self._comparison(variables)}"
        elif roll < 0.85:
            expression = f"{self._comparison(variables)} || {self._comparison(variables)}"
        else:
            expression = f"!({self._comparison(variables)})"
        return f"FILTER({expression})"

    def _aggregate_head(self, variables):
        """Return (select clause, trailing GROUP BY clause or '')."""
        group = self.rng.choice(variables) if self.rng.random() < 0.6 else None
        candidates = [v for v in variables if v != group] or list(variables)
        bindings = []
        for index in range(self.rng.randint(1, 2)):
            function = self.rng.choice(self._AGG_FUNCTIONS)
            distinct = "DISTINCT " if self.rng.random() < 0.3 else ""
            if function == "count" and self.rng.random() < 0.3:
                argument = "*"
            else:
                argument = self.rng.choice(candidates)
            bindings.append(f"({function.upper()}({distinct}{argument}) AS ?agg{index})")
        select = ((group + " ") if group else "") + " ".join(bindings)
        return select, (f" GROUP BY {group}" if group else "")

    def bgp_query(self) -> str:
        """A plain ``SELECT *`` BGP: the shape the independent oracle answers."""
        patterns, _, _ = self._bgp(self.rng.randint(2, 4))
        return "SELECT * WHERE {\n  " + "\n  ".join(patterns) + "\n}"

    def ground_query(self, rng: random.Random) -> str:
        """A plain BGP holding a pattern without a variable — half the time
        a triple of the graph, otherwise one it lacks — alone or beside a
        pattern with variables.  Drawn from ``rng``, not from the
        generator's own stream, which the other queries keep to themselves."""
        subject, predicate, object_ = rng.choice(self.triples)
        if rng.random() < 0.5:
            held = set(self.triples)
            object_ = rng.choice(
                [term for term in self.object_terms if (subject, predicate, term) not in held]
            )
        patterns = [f"{subject} {predicate} {object_} ."]
        if rng.random() < 0.5:
            patterns.insert(rng.randrange(2), f"?v0 {rng.choice(self.predicates)} ?v1 .")
        return "SELECT * WHERE {\n  " + "\n  ".join(patterns) + "\n}"

    def query(self) -> str:
        body, variables = self._body()
        if self.rng.random() < 0.4:
            body += "\n  " + self._filter(variables)
        head = self.rng.choice(["star", "star", "distinct", "order-limit", "aggregate"])
        if head == "star":
            return "SELECT * WHERE {\n  " + body + "\n}"
        if head == "distinct":
            return "SELECT DISTINCT * WHERE {\n  " + body + "\n}"
        if head == "order-limit":
            keys = " ".join(
                variable if self.rng.random() < 0.5 else f"DESC({variable})"
                for variable in variables
            )
            limit = self.rng.randint(1, 25)
            return (
                "SELECT * WHERE {\n  " + body + "\n} ORDER BY " + keys + f" LIMIT {limit}"
            )
        select, group_by = self._aggregate_head(variables)
        return "SELECT " + select + " WHERE {\n  " + body + "\n}" + group_by


@pytest.fixture(scope="module")
def differential_setup(small_dataset, tmp_path_factory):
    """The row oracle over a build of the full graph, a warm in-memory
    session on it, plus a stored session whose dataset was saved from a
    *subset* and grown to the full graph via append_triples — so its tables
    carry pending, uncompacted delta segments."""
    graph = small_dataset.graph
    triples = sorted(graph, key=lambda t: (t.subject.n3(), t.predicate.n3(), t.object.n3()))
    base = [t for i, t in enumerate(triples) if i % 7 != 0]
    pending = [t for i, t in enumerate(triples) if i % 7 == 0]

    build = reference_layout(graph)
    row_oracle = RowOracle(build.catalog)
    warm = S2RDFSession.from_graph(graph, selectivity_threshold=1.0)

    saver = S2RDFSession.from_graph(Graph(base), num_partitions=4)
    path = str(tmp_path_factory.mktemp("differential") / "dataset")
    saver.save_dataset(path)
    saver.close()
    # tracing_enabled exercises the instrumented store/query paths on the
    # stored-scan mode; tracing must never change answers.
    stored = S2RDFSession.open_dataset(path, tracing_enabled=True)
    report = stored.append_triples(pending)
    assert report.triples_appended == len(pending)
    assert report.delta_segments > 0  # the deltas really are pending

    # The sqlite oracle runs twice: over the build catalog, and over the
    # delta-carrying stored dataset's catalog with the stored session's plans.
    sqlite_executor = SqliteExecutor(build.catalog)
    stored_sql = SqliteExecutor(stored.layout.catalog)
    # Process workers over the same delta-carrying dataset: the scheduler
    # ships whole queries to them.
    stored_proc = S2RDFSession.open_dataset(path, execution_mode="process", worker_processes=2)
    served = stored.serve()
    served_proc = stored_proc.serve()

    yield row_oracle, warm, graph, stored, sqlite_executor, stored_sql, served, served_proc
    served.close()
    served_proc.close()
    sqlite_executor.close()
    stored_sql.close()
    warm.close()
    stored.close()
    stored_proc.close()


def oracle_bag(graph: Graph, query_text: str, columns):
    """The bag of a plain ``SELECT *`` BGP by index nested loops over the
    graph — no table selection, no plan, no store — or ``None`` for any
    other query shape."""
    parsed = parse_query(query_text)
    if parsed.distinct or parsed.order_by or parsed.limit is not None or parsed.aggregates:
        return None
    try:
        bgp = SparqlEngine.extract_single_bgp(parsed)
    except UnsupportedQueryError:
        return None
    bindings = index_nested_loop_execute(graph, bgp.patterns)
    return sorted(repr(tuple(binding.get(name) for name in columns)) for binding in bindings)


@pytest.mark.parametrize("seed", range(24))
def test_differential_equivalence_across_execution_modes(differential_setup, seed):
    """Row oracle, in-memory and stored native (direct and served), the
    sqlite oracle (over both catalogs) and served process-worker execution
    must agree on the bag of rows for every generated query; plain BGPs must
    also agree with the graph oracle.  One query per seed holds a pattern
    without a variable, which must neither join nor show as a column."""
    row_oracle, warm, graph, stored, sqlite_executor, stored_sql, served, served_proc = (
        differential_setup
    )
    generator = RandomQueryGenerator(_graph_view(row_oracle), seed)
    # Six random shapes, then one plain BGP so the oracle never sits a seed
    # out, then one holding a pattern without a variable.
    texts = [generator.query() for _ in range(6)] + [generator.bgp_query()]
    texts.append(generator.ground_query(random.Random(f"ground {seed}")))
    for query_text in texts:
        compiled = warm.compile(query_text)
        reference = row_oracle.execute(compiled.plan, ExecutionMetrics())
        sql_result = sqlite_executor.execute(compiled.plan, ExecutionMetrics())
        assert sql_result.columns == reference.columns, ("sqlite", query_text)
        assert bag(sql_result) == bag(reference), ("sqlite", query_text)
        oracle = oracle_bag(graph, query_text, reference.columns)
        if oracle is not None:
            assert bag(reference) == oracle, ("graph-oracle", query_text)
        for label, run in (
            ("in-memory", lambda text: warm.query(text).relation),
            ("stored-native", lambda text: stored.query(text).relation),
            ("stored-sqlite", lambda text: stored_sql.execute(stored.compile(text).plan)),
            ("served", lambda text: served.submit(text).result(timeout=60).relation),
            ("served-process", lambda text: served_proc.submit(text).result(timeout=60).relation),
        ):
            relation = run(query_text)
            assert sorted(relation.columns) == sorted(reference.columns), (label, query_text)
            projected = relation.project(reference.columns)
            assert bag(projected) == bag(reference), (label, query_text)


def _graph_view(row_oracle: RowOracle) -> Graph:
    """Reconstruct a Graph from the build's triples table (generator input)."""
    from repro.rdf.triple import Triple

    relation = row_oracle.catalog.table("triples")
    return Graph(Triple(s, p, o) for s, p, o in relation.rows)


# --------------------------------------------------------------------------- #
# The template-hit path: answers from the session's template cache
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "template",
    BASIC_TEMPLATES + INCREMENTAL_TEMPLATES + SELECTIVITY_TEMPLATES,
    ids=lambda template: template.name,
)
def test_template_hits_match_a_fresh_session_and_the_oracle(
    differential_setup, instantiations, cache_counters, template
):
    """Three instantiations of every Basic, IL and ST template on one stored
    session: the second and third are answered from the template cache (parse
    and plan), and each is bag-equal to a session that never saw the template
    (a miss) and to the graph oracle."""
    _, _, graph, stored, *_ = differential_setup
    texts = instantiations(template)
    fresh = S2RDFSession.open_dataset(stored.dataset_path, journal_enabled=False)
    try:
        for position, text in enumerate(texts):
            before = cache_counters(stored)
            result = stored.query(text)
            moved = cache_counters(stored, before)
            if position:
                assert moved == (1, 0, 1, 0), (template.name, position)
            before = cache_counters(fresh)
            missed = fresh.query(text)
            if not position:
                assert cache_counters(fresh, before) == (0, 1, 0, 1)
            assert result.relation.columns == missed.relation.columns
            assert bag(result.relation) == bag(missed.relation), (template.name, position)
            oracle = oracle_bag(graph, text, result.relation.columns)
            assert oracle is not None, template.name  # every WatDiv template is a plain BGP
            assert bag(result.relation) == oracle, ("graph-oracle", template.name, position)
            # A hit must not leak the first instantiation's plan or SQL.
            assert result.sql == missed.sql
            assert result.selected_tables == missed.selected_tables
    finally:
        fresh.close()


@pytest.mark.parametrize("seed", range(8))
def test_generated_queries_with_redrawn_constants_hit_the_template(
    differential_setup, cache_counters, seed
):
    """The generator's queries again, with other constants in their slots:
    the cached front end must equal the uncached one (``Query``, plan, SQL)
    and the answers a fresh compile gives, and must have been a hit."""
    from repro.core.compiler import QueryCompiler
    from repro.core.table_selection import TableSelector

    row_oracle, warm, *_ = differential_setup
    view = _graph_view(row_oracle)
    catalog = warm.layout.catalog
    compiler = QueryCompiler(TableSelector(warm.layout))
    drawn = RandomQueryGenerator(view, seed)
    redrawn = RandomQueryGenerator(view, seed, redraw=1)
    pairs = [(drawn.query(), redrawn.query()) for _ in range(6)]
    pairs.append((drawn.bgp_query(), redrawn.bgp_query()))
    with_slots = 0
    for first, second in pairs:
        warm.compile(first)
        before = cache_counters(warm)
        parsed = warm.parse(second)
        compiled = warm.compile(parsed)
        moved = cache_counters(warm, before)
        assert moved == (1, 0, 1, 0), (first, second)
        reference = parse_query(second)
        assert parsed == reference, second
        expected = compiler.compile(reference)
        assert compiled == expected, second
        assert compiled.sql() == expected.sql()
        cached_rows = PlanExecutor(catalog).execute(compiled.plan, ExecutionMetrics())
        fresh_rows = PlanExecutor(catalog).execute(expected.plan, ExecutionMetrics())
        assert cached_rows.columns == fresh_rows.columns
        assert bag(cached_rows) == bag(fresh_rows), second
        with_slots += first != second
    assert with_slots >= 1  # some pair really differs in its constants
