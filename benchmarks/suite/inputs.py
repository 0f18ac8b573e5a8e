"""Benchmark inputs: data, replay lists, append batches, oracle answers, pins.

Everything here runs in a short-lived child process (see :func:`prepare`), so
the generated ``Graph`` and the oracle's bindings never count towards the
``peak_rss_mb`` of the process that runs the program under test.  The program
receives only generated text: N-Triples for the store and the append batches,
SPARQL for the queries.

The data is fixed (``generate_dataset(SCALE_FACTOR, DATA_SEED)``); ``--seed``
drives only template instantiation and list order.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import pickle
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

SUITE_DIR = pathlib.Path(__file__).resolve().parent
EXPECTED_DIR = SUITE_DIR / "expected"

#: The data every workload loads.  Sized by the driver's time cap, not by
#: taste: ``repro.create`` costs ~0.9 s per scale-factor unit on the builder's
#: 2-vCPU box and every run sets the store up three times.
SCALE_FACTOR = 3.0
SMOKE_SCALE_FACTOR = 1.0
DATA_SEED = 42
#: Seed whose replay lists and answers are committed under ``expected/``.
DEFAULT_SEED = 1
#: Share (by index, from the end) of Review / Purchase / Offer entities whose
#: triples are held out of the store and arrive as append batches.
HOLDOUT_SHARE = 0.10
#: Queries run after each append batch.
QUERIES_PER_APPEND = 8
#: Sessions (and fixed templates) behind ``cold_first_query_ms``.
COLD_SESSIONS = 9

WORKLOADS: Dict[str, str] = {
    "basic_selective": (
        "WatDiv Basic L/S/F x12 + C1-C3 (207 instances, 1-5 ms): parse, compile, "
        "journal and per-query fixed costs are the largest share they will ever be"
    ),
    "scan_heavy": (
        "20 ST + IL-3 + IL-1/IL-2 x5 (86 instances, up to 14 k result rows, 5-10 joins): "
        "scan/join/exchange/decode dominate, front-end changes must show no change"
    ),
    "serve_closed": (
        "the basic_selective list through session.serve() on process workers, 2 closed-loop "
        "clients: adds queue, dispatch, pickle and parent journal to identical engine work"
    ),
    "append_query": (
        "3 entity-centric append batches each followed by 8 queries, compact(), then the "
        "61-instance list: write cost, epoch-keyed cache rebuilds and bytes trade against reads"
    ),
}

Answer = Tuple[int, str]  # (row count, digest of the sorted rows)


@dataclass
class Inputs:
    """What one benchmark run needs, produced from (workload, seed, scale)."""

    workload: str
    seed: int
    scale_factor: float
    #: N-Triples text of the store every workload loads (held-out triples removed).
    ntriples: str
    triples: int
    #: One N-Triples document per append batch (Review, Purchase, Offer entities).
    append_batches: List[str]
    append_triples: List[int]
    #: The fixed replay list: (template name, SPARQL text).
    queries: List[Tuple[str, str]]
    #: List positions of the instances behind ``cold_first_query_ms``.
    cold_positions: List[int]
    #: Oracle answer per list instance over the store's graph.
    answers: List[Answer]
    #: Oracle answers of the queries run after append batch ``b`` (graph so far).
    answers_after_append: List[List[Answer]] = field(default_factory=list)
    #: Oracle answer per list instance over the graph with every batch appended.
    answers_final: List[Answer] = field(default_factory=list)
    data_sha256: str = ""
    queries_sha256: str = ""
    #: ``"oracle"`` or ``"expected/<file>"``.
    answer_source: str = "oracle"

    def texts(self) -> List[str]:
        return [text for _, text in self.queries]

    def interleaved_positions(self, batch: int) -> List[int]:
        """List positions of the queries run after append batch ``batch``.

        The first instance of ``QUERIES_PER_APPEND`` fixed templates per batch
        (taken in name order, wrapping around): these are the slowest
        positions of an ``append_query`` round, so their mix of query shapes
        must not move with the seed.
        """
        first = _first_positions(self.queries)
        names = sorted(first)
        start = batch * QUERIES_PER_APPEND
        return [first[names[(start + j) % len(names)]] for j in range(QUERIES_PER_APPEND)]


class PinMismatch(RuntimeError):
    """The generated inputs differ from the committed digests."""


PIN_MISMATCH_EXIT = 3


def answer_of(columns: Sequence[str], rows) -> Answer:
    """Row count + digest of a bag: columns sorted by name, rows sorted as text.

    ``rows`` holds tuples aligned with ``columns`` whose cells are RDF terms
    (rendered with ``n3()``) or ``None``.
    """
    order = sorted(range(len(columns)), key=lambda i: columns[i])
    lines = sorted(
        "\t".join("" if row[i] is None else row[i].n3() for i in order) for row in rows
    )
    digest = hashlib.sha256()
    digest.update("\t".join(columns[i] for i in order).encode("utf-8"))
    for line in lines:
        digest.update(b"\n")
        digest.update(line.encode("utf-8"))
    return len(lines), digest.hexdigest()[:16]


def _sha256(parts: Sequence[str]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def _oracle_answer(graph, text: str) -> Answer:
    """Answer ``text`` with index nested loops over the graph.

    Shares only the SPARQL parser with the engine: no table selection, no
    plan, no store.  The replay lists hold plain BGP queries; anything else is
    refused rather than silently mis-answered.
    """
    from repro import parse_query
    from repro.baselines.base import SparqlEngine
    from repro.baselines.binding_iteration import index_nested_loop_execute

    parsed = parse_query(text)
    if parsed.distinct or parsed.order_by or parsed.limit is not None or parsed.aggregates:
        raise ValueError("the oracle answers plain BGP queries only")
    bgp = SparqlEngine.extract_single_bgp(parsed)
    columns = parsed.projected_names()
    bindings = index_nested_loop_execute(graph, bgp.patterns)
    return answer_of(columns, [tuple(b.get(name) for name in columns) for b in bindings])


def _replay_list(workload: str, dataset, rng) -> List[Tuple[str, str]]:
    from repro.watdiv import (
        BASIC_TEMPLATES,
        INCREMENTAL_TEMPLATES,
        SELECTIVITY_TEMPLATES,
        instantiate_template,
    )

    def instances(templates, copies: int) -> List[Tuple[str, str]]:
        out = []
        for template in templates:
            for _ in range(copies if template.is_parameterized() else 1):
                out.append((template.name, instantiate_template(template, dataset, rng)))
        return out

    bound_chains = [t for t in INCREMENTAL_TEMPLATES if t.is_parameterized()]
    free_chains = [t for t in INCREMENTAL_TEMPLATES if not t.is_parameterized()]
    if workload == "basic_selective":
        queries = instances(BASIC_TEMPLATES, 12)
    elif workload == "scan_heavy":
        queries = instances(SELECTIVITY_TEMPLATES, 1) + instances(free_chains, 1)
        queries += instances(bound_chains, 5)
    elif workload == "append_query":
        queries = instances(BASIC_TEMPLATES, 2) + instances(bound_chains, 2)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {sorted(WORKLOADS)}")
    order = rng.permutation(len(queries))
    return [queries[i] for i in order]


def _first_positions(queries: Sequence[Tuple[str, str]]) -> Dict[str, int]:
    """Template name -> list position of its first instance."""
    first: Dict[str, int] = {}
    for position, (name, _) in enumerate(queries):
        first.setdefault(name, position)
    return first


def _cold_positions(queries: Sequence[Tuple[str, str]]) -> List[int]:
    """First list position of COLD_SESSIONS templates, evenly spaced by name.

    Fixing the *templates* keeps the cold metric's mix of query shapes the
    same for every seed; only their parameters move.
    """
    first = _first_positions(queries)
    names = sorted(first)
    picks = [names[(k * len(names)) // COLD_SESSIONS] for k in range(COLD_SESSIONS)]
    return [first[name] for name in picks]


def _split_holdout(dataset):
    """Partition the graph into stored triples and one append batch per class."""
    from repro.watdiv import EntityClass, entity_iri

    batch_of = {}
    classes = (EntityClass.REVIEW, EntityClass.PURCHASE, EntityClass.OFFER)
    for batch, entity_class in enumerate(classes):
        count = dataset.entity_counts[entity_class]
        for index in range(count - max(1, int(count * HOLDOUT_SHARE)), count):
            batch_of[entity_iri(entity_class, index)] = batch
    stored, batches = [], [[] for _ in classes]
    for triple in dataset.graph:
        batch = batch_of.get(triple.subject, batch_of.get(triple.object))
        (stored if batch is None else batches[batch]).append(triple)
    return stored, batches


def build_inputs(workload: str, seed: int, scale_factor: float, with_appends: bool) -> Inputs:
    """Generate the inputs and answer every instance (child-process body)."""
    import numpy as np

    from repro import Graph
    from repro.rdf.ntriples import serialize_ntriples
    from repro.watdiv import generate_dataset

    dataset = generate_dataset(scale_factor=scale_factor, seed=DATA_SEED)
    stored, batches = _split_holdout(dataset)
    graph = Graph(stored)
    batch_texts = [serialize_ntriples(Graph(batch)) for batch in batches]
    # serve_closed replays the basic_selective list: identical engine work.
    list_name = "basic_selective" if workload == "serve_closed" else workload
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(list_name)])
    queries = _replay_list(list_name, dataset, rng)
    inputs = Inputs(
        workload=workload,
        seed=seed,
        scale_factor=scale_factor,
        ntriples=serialize_ntriples(graph),
        triples=len(graph),
        append_batches=batch_texts,
        append_triples=[len(batch) for batch in batches],
        queries=queries,
        cold_positions=_cold_positions(queries),
        answers=[],
    )
    inputs.data_sha256 = _sha256([inputs.ntriples] + batch_texts)
    inputs.queries_sha256 = _sha256(inputs.texts())
    _check_pins(inputs)
    committed = _committed_answers(inputs)
    if committed is not None:
        inputs.answers = committed["answers"]
        inputs.answers_after_append = committed["answers_after_append"]
        inputs.answers_final = committed["answers_final"]
        inputs.answer_source = f"expected/{workload}.json"
        return inputs
    texts = inputs.texts()
    inputs.answers = [_oracle_answer(graph, text) for text in texts]
    if with_appends:
        for batch, triples in enumerate(batches):
            graph.add_all(triples)
            inputs.answers_after_append.append(
                [_oracle_answer(graph, texts[p]) for p in inputs.interleaved_positions(batch)]
            )
        inputs.answers_final = [_oracle_answer(graph, text) for text in texts]
    return inputs


# --------------------------------------------------------------------- #
# Pins: committed digests of the inputs and, for the default seed, answers
# --------------------------------------------------------------------- #
def _load_pins() -> Optional[dict]:
    path = EXPECTED_DIR / "pins.json"
    return json.loads(path.read_text()) if path.exists() else None


def _check_pins(inputs: Inputs) -> None:
    """Refuse to run when the generator or a template moved the workload.

    ``repro.watdiv`` lives in ``src/``: a later change must not be able to
    shift what the benchmark measures by editing it.  The data digest binds
    every seed at the benchmark's scale factor; the list digest binds the
    default seed.
    """
    pins = _load_pins()
    if pins is None or inputs.scale_factor != pins["scale_factor"]:
        return
    if inputs.data_sha256 != pins["data_sha256"]:
        raise PinMismatch(
            f"generated N-Triples differ from the committed digest "
            f"({inputs.data_sha256[:12]} != {pins['data_sha256'][:12]}): "
            "repro.watdiv's generator or schema changed"
        )
    pinned_list = pins["queries_sha256"].get(inputs.workload)
    if inputs.seed == pins["default_seed"] and inputs.queries_sha256 != pinned_list:
        raise PinMismatch(
            f"replay list of {inputs.workload} (seed {inputs.seed}) differs from the committed "
            f"digest ({inputs.queries_sha256[:12]} != {str(pinned_list)[:12]}): a template changed"
        )


def _committed_answers(inputs: Inputs) -> Optional[dict]:
    pins = _load_pins()
    path = EXPECTED_DIR / f"{inputs.workload}.json"
    if (
        pins is None
        or not path.exists()
        or inputs.scale_factor != pins["scale_factor"]
        or inputs.seed != pins["default_seed"]
    ):
        return None
    stored = json.loads(path.read_text())

    def answers(cells: Sequence[str]) -> List[Answer]:
        return [(int(cell.split(":")[0]), cell.split(":")[1]) for cell in cells]

    return {
        "answers": answers(stored["answers"]),
        "answers_after_append": [answers(group) for group in stored["answers_after_append"]],
        "answers_final": answers(stored["answers_final"]),
    }


def write_expected() -> None:
    """Regenerate ``expected/`` from the oracle (maintainers only)."""
    EXPECTED_DIR.mkdir(exist_ok=True)
    for path in EXPECTED_DIR.glob("*.json"):
        path.unlink()
    pins = {
        "scale_factor": SCALE_FACTOR,
        "data_seed": DATA_SEED,
        "default_seed": DEFAULT_SEED,
        "data_sha256": "",
        "queries_sha256": {},
    }

    def cells(answers: Sequence[Answer]) -> List[str]:
        return [f"{rows}:{digest}" for rows, digest in answers]

    for workload in WORKLOADS:
        inputs = prepare(workload, DEFAULT_SEED, SCALE_FACTOR, with_appends=True)
        pins["data_sha256"] = inputs.data_sha256
        pins["queries_sha256"][workload] = inputs.queries_sha256
        stored = {
            "answers": cells(inputs.answers),
            "answers_after_append": [cells(group) for group in inputs.answers_after_append],
            "answers_final": cells(inputs.answers_final),
        }
        (EXPECTED_DIR / f"{workload}.json").write_text(json.dumps(stored, indent=0) + "\n")
    (EXPECTED_DIR / "pins.json").write_text(json.dumps(pins, indent=2) + "\n")


def prepare(workload: str, seed: int, scale_factor: float, with_appends: bool) -> Inputs:
    """Run :func:`build_inputs` in a child process and return its result.

    A plain ``subprocess`` (not ``multiprocessing``): it leaves no resource
    tracker behind, so nothing the benchmark started outlives it.
    """
    command = [sys.executable, str(pathlib.Path(__file__).resolve())]
    command += [workload, str(seed), repr(scale_factor), str(int(with_appends))]
    environment = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=environment)
    if done.returncode == PIN_MISMATCH_EXIT:
        raise PinMismatch(done.stderr.decode("utf-8", "replace").strip())
    if done.returncode != 0:
        raise RuntimeError("input generation failed:\n" + done.stderr.decode("utf-8", "replace"))
    return pickle.loads(done.stdout)  # Bytes this program's own child wrote.


def _child_main(arguments: Sequence[str]) -> int:
    workload, seed, scale_factor, with_appends = arguments
    try:
        built = build_inputs(workload, int(seed), float(scale_factor), bool(int(with_appends)))
    except PinMismatch as error:
        print(error, file=sys.stderr)
        return PIN_MISMATCH_EXIT
    sys.stdout.buffer.write(pickle.dumps(built))
    return 0


if __name__ == "__main__":
    import inputs  # The result must pickle as inputs.Inputs, not __main__.Inputs.

    sys.exit(inputs._child_main(sys.argv[1:]))
