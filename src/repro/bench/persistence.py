"""Persistence benchmark: cold-open vs. rebuild, plus scan pushdown.

S2RDF's premise is that the expensive ExtVP materialisation happens *once*;
every later session reads the persisted Parquet tables.  This experiment
measures exactly that trade on the reproduction's dataset store:

1. **rebuild** — parse-free in-memory build (``S2RDFSession.from_graph``),
   i.e. the full VP + ExtVP semi-join computation;
2. **save** — writing the layout as hash-bucketed columnar segments;
3. **cold open** — ``S2RDFSession.open_dataset``, which only reads the
   manifest and dictionary (tables stay on disk until scanned);
4. **equivalence** — every WatDiv Basic query must return the same bag of
   rows on the cold session as on the in-memory one;
5. **zone-map pruning** — a store scan with an equality predicate that
   provably skips at least one segment without reading it;
6. **partition alignment** — shuffle joins consuming stored buckets directly
   (zero re-partitioning for that input).
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import List, Optional, Sequence, Tuple

from repro.bench.reporting import ExperimentReport
from repro.bench.scaling import forced_exchange
from repro.core.session import S2RDFSession
from repro.store.format import Manifest, StoredTermDictionary, read_manifest
from repro.watdiv.basic_queries import BASIC_TEMPLATES
from repro.watdiv.generator import WatDivDataset, generate_dataset
from repro.watdiv.template import instantiate_many


def _bag(relation) -> List[str]:
    return sorted(map(repr, relation.rows))


def find_zone_pruned_predicate(manifest: Manifest) -> Optional[Tuple[str, str, int]]:
    """Find ``(table, column, term_id)`` where a zone map prunes a segment.

    Looks for a multi-bucket table and a non-partition-key column whose
    per-segment id ranges differ, then picks an id that at least one segment
    provably lacks — the canonical zone-map win.
    """
    for name, entry in sorted(manifest.tables.items()):
        if entry.num_partitions < 2:
            continue
        for column in entry.columns:
            if column in entry.partition_keys:
                continue
            zones = [p.zones[column] for p in entry.partitions if p.row_count > 0]
            if len(zones) < 2:
                continue
            target = max(zone.max_id for zone in zones)
            if any(not zone.may_contain(target) for zone in zones):
                return name, column, target
    return None


def run_persistence(
    scale_factor: float = 3.0,
    seed: int = 42,
    path: Optional[str] = None,
    num_buckets: int = 4,
    instantiations: int = 1,
    template_names: Optional[Sequence[str]] = None,
    selectivity_threshold: float = 1.0,
    dataset: Optional[WatDivDataset] = None,
) -> ExperimentReport:
    """Measure the dataset store against an in-memory rebuild."""
    dataset = dataset if dataset is not None else generate_dataset(scale_factor=scale_factor, seed=seed)
    if path is None:
        path = os.path.join(tempfile.mkdtemp(prefix="s2rdf-store-"), "dataset")

    report = ExperimentReport(
        name="Persistence — columnar dataset store",
        description=(
            f"WatDiv graph ({len(dataset.graph)} triples, scale factor {dataset.scale_factor:g}), "
            f"{num_buckets} hash buckets, SF threshold {selectivity_threshold:g}"
        ),
        columns=["step", "seconds", "speedup", "detail"],
    )

    # 1. Full in-memory rebuild: the cost every fresh session pays today.
    start = time.perf_counter()
    warm = S2RDFSession.from_graph(
        dataset.graph,
        selectivity_threshold=selectivity_threshold,
        num_partitions=num_buckets,
    )
    rebuild_seconds = time.perf_counter() - start
    report.add_row(
        step="rebuild (VP + ExtVP build)",
        seconds=round(rebuild_seconds, 4),
        speedup=None,
        detail=f"{warm.layout.report.table_count} tables, {warm.layout.report.tuple_count} tuples",
    )

    # 2. Persist once.
    write = warm.save_dataset(path, num_buckets=num_buckets, overwrite=True)
    report.add_row(
        step="save_dataset",
        seconds=round(write.write_seconds, 4),
        speedup=None,
        detail=(
            f"{write.segment_count} segments, {write.dictionary_terms} dictionary terms, "
            f"{write.total_bytes} bytes"
        ),
    )

    # 3. Cold open: manifest + dictionary I/O only.
    start = time.perf_counter()
    cold = S2RDFSession.open_dataset(path)
    cold_open_seconds = time.perf_counter() - start
    assert cold.load_report is not None
    assert not cold.load_report.ntriples_parsed and not cold.load_report.extvp_rebuilt
    report.add_row(
        step="cold open_dataset",
        seconds=round(cold_open_seconds, 4),
        speedup=round(rebuild_seconds / cold_open_seconds, 2) if cold_open_seconds > 0 else None,
        detail=(
            f"{cold.load_report.table_count} stored tables, "
            f"{cold.load_report.statistics_only_count} statistics-only entries, no parse/rebuild"
        ),
    )

    # 4. Result equivalence on the Basic Testing workload.
    queries: List[str] = []
    for template in BASIC_TEMPLATES:
        if template_names is not None and template.name not in template_names:
            continue
        queries.extend(instantiate_many(template, dataset, instantiations, seed=seed))
    mismatches = 0
    for query_text in queries:
        if _bag(warm.query(query_text).relation) != _bag(cold.query(query_text).relation):
            mismatches += 1
    report.add_row(
        step="result equivalence",
        seconds=None,
        speedup=None,
        detail=f"{len(queries)} Basic queries, {mismatches} mismatches",
    )
    if mismatches:
        raise AssertionError(f"{mismatches} of {len(queries)} queries disagree after the roundtrip")

    # 5. A zone-map-pruned scan: the predicate's id range excludes segments.
    manifest = read_manifest(path)
    pruned_demo = find_zone_pruned_predicate(manifest)
    fresh = S2RDFSession.open_dataset(path)  # unscanned store, nothing cached
    if pruned_demo is not None:
        table, column, term_id = pruned_demo
        probe_term = StoredTermDictionary.open(path).decode(term_id)
        entry = manifest.tables[table]
        scan = fresh.layout.catalog.scan(
            table, columns=list(entry.columns), conditions={column: probe_term}
        )
        report.add_row(
            step="zone-map-pruned scan",
            seconds=None,
            speedup=None,
            detail=(
                f"{table}[{column} = id {term_id}]: {scan.segments_pruned} segments pruned, "
                f"{scan.segments_scanned} scanned, {scan.rows_scanned}/{entry.row_count} rows read"
            ),
        )
        if scan.segments_pruned < 1:
            raise AssertionError("expected at least one zone-map-pruned segment")
    else:
        report.add_row(
            step="zone-map-pruned scan",
            seconds=None,
            speedup=None,
            detail="no prunable (table, column) found — dataset too uniform",
        )

    # 6. Partition-aligned shuffle joins: stored buckets consumed directly.
    aligned_session = S2RDFSession.open_dataset(path, broadcast_threshold=0)
    aligned_inputs = 0
    shuffled_bytes = 0
    with forced_exchange():  # these inputs are small enough to join inline
        for query_text in queries:
            metrics = aligned_session.query(query_text).metrics
            aligned_inputs += metrics.partition_aligned_inputs
            shuffled_bytes += metrics.shuffled_bytes
    report.add_row(
        step="partition-aligned joins",
        seconds=None,
        speedup=None,
        detail=(
            f"{aligned_inputs} join inputs consumed pre-bucketed "
            f"(shuffle forced, {shuffled_bytes} bytes still exchanged)"
        ),
    )

    report.add_note(
        "cold open reads MANIFEST.json + dictionary.nt only; segments decode lazily at first scan."
    )
    report.add_note(
        "zone maps prune on dictionary-id ranges; predicates on the partition key additionally "
        "prune to a single hash bucket."
    )
    warm.close()
    cold.close()
    fresh.close()
    aligned_session.close()
    return report
