"""The persistent query journal: one structured record per executed query.

The per-query :class:`~repro.engine.metrics.ExecutionMetrics` object dies with
its :class:`~repro.core.results.QueryResult`; the journal is the *workload*
memory: every query appends one JSON record — a constant-stripped template
fingerprint, the dataset's manifest epoch, phase timings, row counts, scanned
tables, estimate-vs-observed cardinality error and store pruning counters — to ``journal/`` under the stored dataset (or to a bounded
in-memory ring for ephemeral sessions).  The workload analyzer
(:mod:`repro.obs.workload`) aggregates these records across sessions into hot
templates, per-table reuse counts and materialization advice — the evidence
stream the ROADMAP's epoch-keyed caching and workload-adaptive ExtVP items
consume.

Template fingerprints are computed on the parsed algebra, not the query text:
variables are canonicalised by order of first appearance and every non-
predicate constant is stripped to a ``*`` placeholder, so all instantiations
of one WatDiv-style template collapse into one fingerprint while queries with
different structure (or different predicates) stay distinct.

Persistence is append-only JSONL with rotation: records go to
``queries-<n>.jsonl`` files capped at :data:`DEFAULT_MAX_FILE_BYTES` each and
:data:`DEFAULT_MAX_FILES` files total (oldest deleted first), so a long-lived
serving session cannot grow the journal without bound.  Template strings are
deduplicated into a ``templates.jsonl`` sidecar (one line per distinct
fingerprint) so record lines stay small.  A truncated trailing line (crashed
writer) is skipped on read, never propagated.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.sparql.algebra import (
    BGP,
    Distinct,
    Filter,
    Join,
    LeftJoin,
    OrderBy,
    PatternVisitor,
    Projection,
    Query,
    Slice,
    TriplePattern,
    Union,
)
from repro.rdf.terms import Variable

#: Name of the journal directory under a stored dataset root.
JOURNAL_DIR = "journal"

#: Rotation caps: bytes per journal file and files kept (oldest pruned).
DEFAULT_MAX_FILE_BYTES = 1024 * 1024
DEFAULT_MAX_FILES = 8

#: Records kept by an in-memory (ephemeral-session) journal.
DEFAULT_MAX_MEMORY_RECORDS = 10_000

#: Sidecar mapping template fingerprints to their full template text; written
#: once per distinct fingerprint so the hot append path never re-encodes the
#: (long) template string.
TEMPLATES_FILE = "templates.jsonl"

#: Appends between explicit flushes of the current journal file.  Reads via
#: the same journal object flush first, so read-your-writes always holds; a
#: crash can lose at most this many trailing records (and a truncated last
#: line is already tolerated on read).
FLUSH_INTERVAL = 64

#: Literal constants inside rendered filter expressions ('...' strings and
#: bare numbers) are stripped to ``*`` so filter templates fingerprint alike.
_FILTER_CONSTANT_RE = re.compile(r"'(?:[^'\\]|\\.)*'|\b\d+(?:\.\d+)?\b")

#: Bare identifiers left in a constant-stripped filter rendering — variable
#: names, which must be canonicalised like every other variable occurrence.
_FILTER_IDENT_RE = re.compile(r"\b[A-Za-z_]\w*\b")


# --------------------------------------------------------------------- #
# Template fingerprinting
# --------------------------------------------------------------------- #
#: Canonical variable names, precomputed for the common arities.
_CANONICAL_NAMES = tuple(f"?{i}" for i in range(64))


def _canonical_var(names: Dict[str, str], term: Variable) -> str:
    canonical = names.get(term.name)
    if canonical is None:
        index = len(names)
        canonical = _CANONICAL_NAMES[index] if index < 64 else f"?{index}"
        names[term.name] = canonical
    return canonical


def _template_triple(names: Dict[str, str], pattern: TriplePattern) -> str:
    subject = pattern.subject
    predicate = pattern.predicate
    obj = pattern.object
    s = _canonical_var(names, subject) if type(subject) is Variable else "*"
    p = _canonical_var(names, predicate) if type(predicate) is Variable else predicate.n3()
    o = _canonical_var(names, obj) if type(obj) is Variable else "*"
    return f"{s} {p} {o}"


class _TemplateRenderer(PatternVisitor):
    """Renders a constant-stripped template string for each algebra operator.

    ``names`` (the canonical-variable map) is threaded through every visit,
    so one stateless renderer instance serves all queries.
    """

    def generic_visit(self, node, names: Dict[str, str]) -> str:
        children = ",".join([self.visit(c, names) for c in node.children()])
        return f"{type(node).__name__}({children})"

    def visit_bgp(self, node: BGP, names: Dict[str, str]) -> str:
        return "{" + " . ".join([_template_triple(names, p) for p in node.patterns]) + "}"

    def visit_join(self, node: Join, names: Dict[str, str]) -> str:
        return f"Join({self.visit(node.left, names)},{self.visit(node.right, names)})"

    def visit_left_join(self, node: LeftJoin, names: Dict[str, str]) -> str:
        guard = "+F" if node.expression is not None else ""
        return (
            f"Optional{guard}({self.visit(node.left, names)},"
            f"{self.visit(node.right, names)})"
        )

    def visit_union(self, node: Union, names: Dict[str, str]) -> str:
        return f"Union({self.visit(node.left, names)},{self.visit(node.right, names)})"

    def visit_filter(self, node: Filter, names: Dict[str, str]) -> str:
        # Walk the guarded pattern first so its variables claim canonical
        # names in textual order, then rename the variables the rendered
        # expression mentions (sorted, so set order never leaks into the
        # fingerprint) — alpha-renamed FILTER queries must fingerprint alike.
        inner = self.visit(node.pattern, names)
        expression = _FILTER_CONSTANT_RE.sub("*", node.expression.to_sql())
        filter_vars = sorted(node.expression.variables(), key=lambda v: v.name)
        if filter_vars:
            mapping = {v.name: _canonical_var(names, v) for v in filter_vars}
            expression = _FILTER_IDENT_RE.sub(
                lambda match: mapping.get(match.group(0), match.group(0)), expression
            )
        return f"Filter[{expression}]({inner})"

    def visit_projection(self, node: Projection, names: Dict[str, str]) -> str:
        inner = self.visit(node.pattern, names)
        projected = ",".join([_canonical_var(names, v) for v in node.variables_list])
        return f"Project[{projected}]({inner})"

    def visit_distinct(self, node: Distinct, names: Dict[str, str]) -> str:
        return f"Distinct({self.visit(node.pattern, names)})"

    def visit_order_by(self, node: OrderBy, names: Dict[str, str]) -> str:
        return f"OrderBy({self.visit(node.pattern, names)})"

    def visit_slice(self, node: Slice, names: Dict[str, str]) -> str:
        return f"Slice({self.visit(node.pattern, names)})"


_TEMPLATE_RENDERER = _TemplateRenderer()


def template_text(query: Query) -> str:
    """Canonical constant-stripped template of a parsed query.

    Predicates are kept verbatim (they define the template's table
    footprint); subject/object constants become ``*``; variables are renamed
    ``?0, ?1, ...`` in order of first appearance so alpha-renamed queries
    fingerprint identically.  The rendering covers the whole algebra tree, so
    OPTIONAL/UNION/FILTER structure and the solution modifiers stay part of
    the template.
    """
    names: Dict[str, str] = {}
    body = _TEMPLATE_RENDERER.visit(query.pattern, names)
    select = ",".join([_canonical_var(names, v) for v in query.select_variables]) or "*"
    grouped = bool(query.aggregates or query.group_by)
    if not (
        query.distinct or query.order_by or query.limit is not None or query.offset or grouped
    ):
        return f"SELECT {select} WHERE {body}"
    modifiers = []
    if query.distinct:
        modifiers.append("DISTINCT")
    if grouped:
        # Aggregate structure is part of the template: the function list (with
        # a DISTINCT marker) and the group-by arity distinguish e.g.
        # COUNT(?x) from COUNT(DISTINCT ?x) over the same pattern.
        functions = ",".join(
            binding.function + ("~d" if binding.distinct else "") for binding in query.aggregates
        )
        modifiers.append(f"AGG[{functions}]GROUP[{len(query.group_by)}]")
    if query.order_by:
        modifiers.append(f"ORDER[{len(query.order_by)}]")
    if query.limit is not None or query.offset:
        modifiers.append("SLICE")
    suffix = " " + " ".join(modifiers)
    return f"SELECT {select}{suffix} WHERE {body}"


def fingerprint_text(template: str) -> str:
    """Short stable hash of a template string (hex, 12 chars)."""
    return hashlib.sha1(template.encode("utf-8")).hexdigest()[:12]


def fingerprint_query(query: Query) -> str:
    """Short stable hash of :func:`template_text` (hex, 12 chars)."""
    return fingerprint_text(template_text(query))


# --------------------------------------------------------------------- #
# Records
# --------------------------------------------------------------------- #
def _safe_key(key: str) -> str:
    """A string safe to embed between JSON quotes (escaped only if needed)."""
    if '"' in key or "\\" in key:
        return json.dumps(key)[1:-1]
    return key


@dataclass(slots=True)
class JournalRecord:
    """One executed query, as the workload analyzer sees it."""

    fingerprint: str
    template: str
    #: Manifest append epoch of the session's dataset at execution time;
    #: ``None`` for sessions that never touched a stored dataset.
    epoch: Optional[int]
    rows: int
    wall_ms: float
    #: Wall-clock unix timestamp (seconds) when the record was written.
    ts: float = 0.0
    phase_ms: Dict[str, float] = field(default_factory=dict)
    #: Per-table rows read, from ``ExecutionMetrics.scanned_tables``.
    scanned_tables: Dict[str, int] = field(default_factory=dict)
    #: Pre-execution root-cardinality estimate (``None`` when unknown).
    estimated_rows: Optional[int] = None
    #: q-error of the estimate: ``max(est/obs, obs/est)`` on ``+1``-smoothed
    #: counts, so exact estimates score 1.0 and zeros stay finite.
    estimate_q_error: Optional[float] = None
    segments_scanned: int = 0
    segments_pruned: int = 0
    statically_empty: bool = False
    #: Milliseconds the query waited in the serving scheduler's admission
    #: queue before execution started; ``None`` (omitted) for queries that
    #: never passed through a scheduler.
    queue_ms: Optional[float] = None
    #: Milliseconds the hop to a process worker cost (round trip seen by the
    #: scheduler minus the worker's task time); ``None`` (omitted) for
    #: queries that ran in the scheduler's own process.
    dispatch_ms: Optional[float] = None

    def to_json(self, include_template: bool = True) -> Dict[str, Any]:
        """Sparse JSON form: default/empty fields are omitted entirely.

        Sparseness is a hot-path decision, not cosmetics — one record is
        serialized per executed query, so every omitted key is bytes not
        encoded, not written and not rotated.  Persistent journals pass
        ``include_template=False`` and store each template once in a sidecar
        (see :class:`QueryJournal`) instead of on every line.  The returned
        dict aliases ``phase_ms``/``scanned_tables`` rather than copying them.
        """
        data: Dict[str, Any] = {
            "ts": round(self.ts, 3),
            "fingerprint": self.fingerprint,
            "epoch": self.epoch,
            "rows": self.rows,
            "wall_ms": round(self.wall_ms, 3),
        }
        if include_template:
            data["template"] = self.template
        if self.phase_ms:
            data["phase_ms"] = {name: round(ms, 3) for name, ms in self.phase_ms.items()}
        if self.scanned_tables:
            data["scanned_tables"] = self.scanned_tables
        if self.estimated_rows is not None:
            data["estimated_rows"] = self.estimated_rows
        if self.estimate_q_error is not None:
            data["estimate_q_error"] = round(self.estimate_q_error, 4)
        if self.segments_scanned:
            data["segments_scanned"] = self.segments_scanned
        if self.segments_pruned:
            data["segments_pruned"] = self.segments_pruned
        if self.statically_empty:
            data["statically_empty"] = True
        if self.queue_ms is not None:
            data["queue_ms"] = round(self.queue_ms, 3)
        if self.dispatch_ms is not None:
            data["dispatch_ms"] = round(self.dispatch_ms, 3)
        return data

    def to_json_line(self, include_template: bool = True) -> str:
        """The sparse JSON text of :meth:`to_json`, hand-assembled.

        Serialization runs once per executed query and ``json.dumps`` on the
        nested record dict costs more than the rest of the append path
        combined, so the hot path assembles the line with C-level
        ``%``-formatting.  Keys, fingerprints and numbers need no escaping by
        construction; the only free-form strings (template text, phase/table
        names) are escaped via ``json.dumps`` when they contain a quote or
        backslash.
        """
        line = '{"ts":%.3f,"fingerprint":"%s","epoch":%s,"rows":%d,"wall_ms":%.3f' % (
            self.ts,
            self.fingerprint,
            "null" if self.epoch is None else self.epoch,
            self.rows,
            self.wall_ms,
        )
        if include_template and self.template:
            line += ',"template":' + json.dumps(self.template)
        if self.phase_ms:
            line += ',"phase_ms":{%s}' % ",".join(
                ['"%s":%.3f' % (_safe_key(k), v) for k, v in self.phase_ms.items()]
            )
        if self.scanned_tables:
            line += ',"scanned_tables":{%s}' % ",".join(
                ['"%s":%d' % (_safe_key(k), v) for k, v in self.scanned_tables.items()]
            )
        if self.estimated_rows is not None:
            if self.estimate_q_error is not None:
                line += ',"estimated_rows":%d,"estimate_q_error":%.4f' % (
                    self.estimated_rows,
                    self.estimate_q_error,
                )
            else:
                line += ',"estimated_rows":%d' % self.estimated_rows
        elif self.estimate_q_error is not None:
            line += ',"estimate_q_error":%.4f' % self.estimate_q_error
        if self.segments_scanned or self.segments_pruned:
            line += ',"segments_scanned":%d,"segments_pruned":%d' % (
                self.segments_scanned,
                self.segments_pruned,
            )
        if self.statically_empty:
            line += ',"statically_empty":true'
        if self.queue_ms is not None:
            line += ',"queue_ms":%.3f' % self.queue_ms
            if self.dispatch_ms is not None:  # only served queries have a hop
                line += ',"dispatch_ms":%.3f' % self.dispatch_ms
        return line + "}"

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "JournalRecord":
        """Read one journal line.  Keys this version does not write — older
        journals carry ``aqe_replans``, ``shuffled_bytes``, ``engine`` and the
        like — are ignored."""
        return cls(
            fingerprint=data["fingerprint"],
            template=data.get("template", ""),
            epoch=data.get("epoch"),
            rows=data["rows"],
            wall_ms=data["wall_ms"],
            ts=data.get("ts", 0.0),
            phase_ms=dict(data.get("phase_ms", {})),
            scanned_tables=dict(data.get("scanned_tables", {})),
            estimated_rows=data.get("estimated_rows"),
            estimate_q_error=data.get("estimate_q_error"),
            segments_scanned=data.get("segments_scanned", 0),
            segments_pruned=data.get("segments_pruned", 0),
            statically_empty=data.get("statically_empty", False),
            queue_ms=data.get("queue_ms"),
            dispatch_ms=data.get("dispatch_ms"),
        )


def q_error(estimated: Optional[int], observed: int) -> Optional[float]:
    """Symmetric estimate error on ``+1``-smoothed counts (1.0 = exact)."""
    if estimated is None or estimated < 0:
        return None
    est, obs = estimated + 1.0, observed + 1.0
    return max(est / obs, obs / est)


# --------------------------------------------------------------------- #
# The journal
# --------------------------------------------------------------------- #
_FILE_RE = re.compile(r"^queries-(\d{5})\.jsonl$")


def _file_name(index: int) -> str:
    return f"queries-{index:05d}.jsonl"


class QueryJournal:
    """Append-only query log: JSONL files with rotation, or an in-memory ring.

    Construct with ``directory=None`` for an ephemeral session (records live
    in a bounded in-memory list) or point it at a dataset's ``journal/``
    directory to persist across sessions: :meth:`append` accepts one record
    per executed query, :meth:`records` reads every surviving record —
    including those written by previous sessions — in order.

    The append path is deliberately cheap — it runs once per executed query
    (the suite's ``obs.journal_overhead_share`` measures it): records serialize
    sparsely (defaults omitted, lines hand-assembled), the template *text* is
    stored once per fingerprint in a ``templates.jsonl`` sidecar rather than
    on every line, and the journal file is flushed every
    :data:`FLUSH_INTERVAL` records instead of per append.  :meth:`records`
    flushes first, so a journal always reads its own writes; a crash loses at
    most one flush interval of trailing records.

    Appends are lock-protected (the session may be driven from multiple
    threads); reads open the files fresh, so a concurrently appending writer
    is observed at line granularity.
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        max_file_bytes: int = DEFAULT_MAX_FILE_BYTES,
        max_files: int = DEFAULT_MAX_FILES,
        max_memory_records: int = DEFAULT_MAX_MEMORY_RECORDS,
    ) -> None:
        if max_file_bytes < 1 or max_files < 1 or max_memory_records < 1:
            raise ValueError("journal caps must be >= 1")
        self.directory = directory
        self.max_file_bytes = max_file_bytes
        self.max_files = max_files
        self.max_memory_records = max_memory_records
        self._lock = threading.Lock()
        self._memory: List[JournalRecord] = []
        self._handle = None
        self._current_index = 0
        self._current_bytes = 0
        self._unflushed = 0
        self._templates: Dict[str, str] = {}
        self._templates_handle = None
        #: Records appended through *this* journal object (not prior sessions).
        self.appended_count = 0
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            existing = self._existing_indexes()
            self._current_index = existing[-1] if existing else 1
            path = self._path(self._current_index)
            self._current_bytes = os.path.getsize(path) if os.path.isfile(path) else 0
            self._load_templates()

    @property
    def persistent(self) -> bool:
        return self.directory is not None

    # ------------------------------------------------------------------ #
    def append(self, record: JournalRecord) -> None:
        """Store one record (one JSON line, or an in-memory ring slot)."""
        if record.ts == 0.0:
            record.ts = time.time()
        with self._lock:
            self.appended_count += 1
            self._store(record)

    def flush(self) -> None:
        """Flush the buffered journal file (a no-op for in-memory journals)."""
        with self._lock:
            if self._handle is not None and self._unflushed:
                self._handle.flush()
                self._unflushed = 0

    def records(self) -> List[JournalRecord]:
        """Every surviving record, oldest first (all sessions, all files)."""
        self.flush()
        with self._lock:
            if self.directory is None:
                return list(self._memory)
            self._load_templates()  # pick up templates other sessions added
            out: List[JournalRecord] = []
            for index in self._existing_indexes():
                try:
                    with open(self._path(index), "r", encoding="utf-8") as handle:
                        for line in handle:
                            line = line.strip()
                            if not line:
                                continue
                            try:
                                record = JournalRecord.from_json(json.loads(line))
                            except (ValueError, KeyError):
                                # A truncated/corrupt line (crashed writer)
                                # loses that record only, never the journal.
                                continue
                            if not record.template:
                                record.template = self._templates.get(record.fingerprint, "")
                            out.append(record)
                except OSError:
                    continue
            return out

    def record_count(self) -> int:
        return len(self.records())

    def file_count(self) -> int:
        self.flush()
        with self._lock:
            return 0 if self.directory is None else len(self._existing_indexes())

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
                self._unflushed = 0
            if self._templates_handle is not None:
                self._templates_handle.close()
                self._templates_handle = None

    # ------------------------------------------------------------------ #
    def _store(self, record: JournalRecord) -> None:
        """Store one record; caller holds the lock."""
        if self.directory is None:
            self._memory.append(record)
            if len(self._memory) > self.max_memory_records:
                del self._memory[: len(self._memory) - self.max_memory_records]
            return
        if record.template and record.fingerprint not in self._templates:
            self._register_template(record.fingerprint, record.template)
        line = record.to_json_line(include_template=False) + "\n"
        nbytes = len(line) if line.isascii() else len(line.encode("utf-8"))
        if self._handle is not None and self._current_bytes + nbytes > self.max_file_bytes:
            self._rotate()
        if self._handle is None:
            if self._current_bytes + nbytes > self.max_file_bytes and self._current_bytes:
                self._current_index += 1
                self._current_bytes = 0
            self._handle = open(self._path(self._current_index), "a", encoding="utf-8")
            self._current_bytes = self._handle.tell()
            self._prune()
        self._handle.write(line)
        self._current_bytes += nbytes
        self._unflushed += 1
        if self._unflushed >= FLUSH_INTERVAL:
            self._handle.flush()
            self._unflushed = 0

    # ------------------------------------------------------------------ #
    def _path(self, index: int) -> str:
        assert self.directory is not None
        return os.path.join(self.directory, _file_name(index))

    def _existing_indexes(self) -> List[int]:
        assert self.directory is not None
        indexes = []
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        for name in names:
            match = _FILE_RE.match(name)
            if match:
                indexes.append(int(match.group(1)))
        return sorted(indexes)

    def _rotate(self) -> None:
        """Close the full current file, start the next one, prune the oldest."""
        assert self._handle is not None
        self._handle.close()
        self._unflushed = 0
        self._current_index += 1
        self._handle = open(self._path(self._current_index), "a", encoding="utf-8")
        self._current_bytes = 0
        self._prune()

    def _templates_path(self) -> str:
        assert self.directory is not None
        return os.path.join(self.directory, TEMPLATES_FILE)

    def _load_templates(self) -> None:
        """(Re)read the fingerprint -> template sidecar into memory."""
        try:
            with open(self._templates_path(), "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                        self._templates[entry["fingerprint"]] = entry["template"]
                    except (ValueError, KeyError, TypeError):
                        continue
        except OSError:
            return

    def _register_template(self, fingerprint: str, template: str) -> None:
        """Record a newly seen template in the sidecar (flushed immediately —
        new fingerprints are rare, unlike record appends)."""
        self._templates[fingerprint] = template
        if self._templates_handle is None:
            self._templates_handle = open(self._templates_path(), "a", encoding="utf-8")
        self._templates_handle.write(
            json.dumps({"fingerprint": fingerprint, "template": template}, separators=(",", ":"))
            + "\n"
        )
        self._templates_handle.flush()

    def _prune(self) -> None:
        indexes = self._existing_indexes()
        while len(indexes) > self.max_files:
            oldest = indexes.pop(0)
            try:
                os.remove(self._path(oldest))
            except OSError:
                break


def journal_directory(dataset_path: str) -> str:
    """The journal directory of a stored dataset."""
    return os.path.join(dataset_path, JOURNAL_DIR)


def open_dataset_journal(dataset_path: str, **kwargs: Any) -> QueryJournal:
    """A persistent journal under ``<dataset>/journal/`` (created on demand)."""
    return QueryJournal(directory=journal_directory(dataset_path), **kwargs)


def read_dataset_journal(dataset_path: str) -> List[JournalRecord]:
    """Read a dataset's journal without attaching a writer (inspection path)."""
    directory = journal_directory(dataset_path)
    if not os.path.isdir(directory):
        return []
    return QueryJournal(directory=directory).records()
