"""Serving tests own worker processes: none may outlive the test that started it."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_leaked_worker_processes():
    yield
    leaked = multiprocessing.active_children()
    for child in leaked:  # do not let one leak fail every later test too
        child.kill()
        child.join(timeout=10)
    assert not leaked, f"worker processes outlived the test: {leaked}"
