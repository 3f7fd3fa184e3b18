import time

import pytest

from bwbforge import classify as cl


@pytest.fixture(scope="session")
def report_d4():
    """Full d=4 classification with Hodge rows, shared by several tests."""
    t0 = time.time()
    rep = cl.classify(cl.exceptional_spaces(), 4, with_hodge=True)
    rep.elapsed_seconds = time.time() - t0
    return rep


@pytest.fixture(scope="session")
def report_d3():
    t0 = time.time()
    rep = cl.classify(cl.exceptional_spaces(), 3, with_hodge=True)
    rep.elapsed_seconds = time.time() - t0
    return rep
