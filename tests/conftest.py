import os

import pytest

from pqcbound import EntropyCache


def pytest_collection_modifyitems(config, items):
    if os.environ.get("PQC_SLOW"):
        return
    skip = pytest.mark.skip(reason="long-running optional check; set PQC_SLOW=1 to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


_CACHES: dict = {}


@pytest.fixture
def shared_cache():
    """Session-wide entropy caches keyed by (f, q); avoids re-enumeration."""

    def get(f, q=2):
        key = (f, q)
        if key not in _CACHES:
            _CACHES[key] = EntropyCache(f, q)
        return _CACHES[key]

    return get


class PoolSizes(list):
    """The pool sizes requested, in order; maps holds (tasks, chunksize) of
    each map sent to a pool."""

    def __init__(self):
        super().__init__()
        self.maps = []


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace search's process pool with one that maps inline, so no process
    starts; returns the PoolSizes it records."""
    from pqcbound import search

    sizes = PoolSizes()

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            tasks = list(tasks)
            sizes.maps.append((len(tasks), chunksize))
            return map(fn, tasks)

    monkeypatch.setattr(search, "ProcessPoolExecutor", InlinePool)
    return sizes
