"""Top-level entry points: ``repro.connect`` and ``repro.create``.

Callers should never need to touch :class:`~repro.mappings.extvp.ExtVPLayout`
or :class:`~repro.store.writer.DatasetWriter` directly:

.. code-block:: python

    import repro

    # Build a queryable session from triples, optionally persisting it:
    session = repro.create(triples, path="dataset/", num_partitions=4)

    # Later (or from another process), connect to the persisted dataset:
    with repro.connect("dataset/", execution_mode="process") as session:
        for binding in session.query(text):
            ...

Both factories accept the flat session knobs (``num_partitions``,
``execution_mode``, ...) or a prebuilt
:class:`~repro.core.config.SessionConfig` via ``config=``.  Every session
executes on dictionary-id batches and decodes terms once per result: a
connected one reads the store from its directory, a created one serves the
same store image from memory (and writes exactly that image to ``path``).
Creating is appending to an empty store: ``repro.create(triples, path=p)``
writes what ``repro.create("", path=p)``, ``append_triples(triples)`` and
``compact()`` write.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from repro.core.config import SessionConfig
from repro.core.session import S2RDFSession
from repro.rdf.graph import Graph
from repro.rdf.ntriples import parse_ntriples
from repro.rdf.triple import Triple


def connect(path: str, config: Optional[SessionConfig] = None, **knobs: object) -> S2RDFSession:
    """Open a persisted dataset directory as a query-ready session.

    Thin, intention-revealing wrapper over
    :meth:`~repro.core.session.S2RDFSession.open_dataset`; accepts the same
    flat knobs (or ``config=``).  Use as a context manager to release pools
    and file handles deterministically.
    """
    return S2RDFSession.open_dataset(path, config=config, **knobs)


def create(
    triples: Union[Graph, Iterable[Triple], str],
    path: Optional[str] = None,
    config: Optional[SessionConfig] = None,
    **knobs: object,
) -> S2RDFSession:
    """Build a session from RDF data, optionally persisting it to ``path``.

    ``triples`` may be a :class:`~repro.rdf.graph.Graph`, an iterable of
    :class:`~repro.rdf.triple.Triple`, or an N-Triples document string.
    The triples are written once, by the batch step and the bucket writer
    an append uses, as the store image the session serves.  With ``path``
    that image is saved as a columnar dataset (enabling appends, compaction,
    the workload journal on disk and process workers); without it the
    session stays in memory.
    """
    if isinstance(triples, Graph):
        graph = triples
    elif isinstance(triples, str):
        graph = parse_ntriples(triples)
    else:
        graph = Graph(list(triples))
    session = S2RDFSession.from_graph(graph, config=config, **knobs)
    if path is not None:
        session.save_dataset(path)
    return session
