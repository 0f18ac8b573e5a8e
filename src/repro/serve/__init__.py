"""Concurrent serving: process query workers + the async query scheduler.

``repro.serve`` turns a single-query session into a small query server:

.. code-block:: python

    import repro

    with repro.connect("dataset/", execution_mode="process") as session:
        with session.serve() as scheduler:
            handles = [scheduler.submit(q) for q in queries]
            rows = [h.result(timeout=30).bindings for h in handles]
            print(scheduler.stats())  # p50/p99 latency, completions

See :mod:`repro.serve.scheduler` for admission control and
:mod:`repro.serve.workers` for the process worker pool.
"""

from repro.serve.scheduler import AdmissionError, QueryHandle, QueryScheduler
from repro.serve.workers import PartitionWorkerPool, WorkerDiedError

__all__ = [
    "AdmissionError",
    "QueryHandle",
    "QueryScheduler",
    "PartitionWorkerPool",
    "WorkerDiedError",
]
