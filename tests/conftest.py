import time

import pytest

from bwbforge import classify as cl


@pytest.fixture(scope="session")
def classify_seconds():
    """Wall time of a timed classification fixture, keyed by d: ``report_d4`` fills 4."""
    return {}


@pytest.fixture(scope="session")
def report_d4(classify_seconds):
    """Full d=4 classification with Hodge rows, shared by several tests."""
    t0 = time.time()
    rep = cl.classify(cl.exceptional_spaces(), 4, with_hodge=True)
    classify_seconds[4] = time.time() - t0
    return rep


@pytest.fixture(scope="session")
def report_d3():
    return cl.classify(cl.exceptional_spaces(), 3, with_hodge=True)
