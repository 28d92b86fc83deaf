import tracemalloc

import pytest


@pytest.fixture
def peak_bytes():
    """measure(fn) -> (fn(), peak bytes that fn allocated over its entry, by tracemalloc)."""

    def measure(fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = fn()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return result, peak

    return measure
