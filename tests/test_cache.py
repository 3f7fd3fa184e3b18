import os
import pickle

import pytest

from bwbforge import cache
from bwbforge.homspace import parse_homspace
from bwbforge.koszul import BundleSum, ZeroLocus, restricted_cohomology


@pytest.fixture
def disk(tmp_path):
    cache.set_cache_dir(str(tmp_path))
    cache.clear()
    yield str(tmp_path)
    cache.set_cache_dir(None)
    cache.clear()


def _entry(directory, namespace, key_obj):
    return os.path.join(directory, cache._key(namespace, key_obj) + ".pkl")


def test_squatted_temp_name_does_not_block_persisting(disk):
    os.mkdir(_entry(disk, "t", "k")[: -len(".pkl")] + ".tmp")
    cache.memo("t", "k", lambda: 7)
    assert os.path.isfile(_entry(disk, "t", "k"))


def test_garbage_entry_is_recomputed_and_counted(disk):
    with open(_entry(disk, "t", "k"), "wb") as fh:
        fh.write(b"not a pickle")
    assert cache.memo("t", "k", lambda: 7) == 7
    assert cache.stats()["corrupt"] == 1
    assert cache.stats()["misses"] == 1
    cache.clear()
    assert cache.memo("t", "k", lambda: pytest.fail("recomputed")) == 7


def test_entry_under_another_stamp_is_not_read(disk, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(cache, "source_stamp", lambda: "another engine")
        cache.memo("t", "k", lambda: "stale")
    cache.clear()
    assert cache.memo("t", "k", lambda: "fresh") == "fresh"
    assert cache.stats()["disk_hits"] == 0


def test_entry_with_a_foreign_stamp_inside_is_not_read(disk):
    with open(_entry(disk, "t", "k"), "wb") as fh:
        pickle.dump({"stamp": "another engine", "value": "stale"}, fh)
    assert cache.memo("t", "k", lambda: "fresh") == "fresh"
    assert cache.stats()["corrupt"] == 1


def test_memory_entries_count_every_table():
    cache.clear()
    X = parse_homspace("G2/P2")
    # a page of lines reads no Levi row: the module w1 of F is what climbs
    Z = ZeroLocus(X, BundleSum.make(X, {(1, 0): 1, X.line(3): 1}))
    restricted_cohomology(Z, BundleSum.make(X, {X.line(-3): 1}))
    climb = len(cache.table("climb", X.levi))
    assert climb > 0
    assert cache.stats()["memory_entries"] >= climb + len(cache.table("wedge_decomps"))
    # levi_tensor nests its rows per module: the rows are what is counted,
    # here two rows of one module from a second locus
    Z = ZeroLocus(X, BundleSum.make(X, {(1, 1): 2}))
    restricted_cohomology(Z, BundleSum.make(X, {(1, 0): 1}))
    rows = sum(map(len, cache.table("levi_tensor", X.levi).values()))
    assert rows > len(cache.table("levi_tensor", X.levi))
    per_namespace = cache.namespace_entries()
    assert per_namespace["levi_tensor"] == rows
    assert cache.stats()["memory_entries"] == sum(per_namespace.values())
    cache.clear()
    assert cache.stats()["memory_entries"] == 0
    assert cache.table("climb", X.levi) == {}


def test_restricted_cohomology_shares_the_levi_climb_table():
    # the E1 page climbs into the same per-context table as decompose_character
    cache.clear()
    X = parse_homspace("G2/P2")
    # a page of lines reads no Levi row: the module w1 of F is what climbs
    Z = ZeroLocus(X, BundleSum.make(X, {(1, 0): 1, X.line(3): 1}))
    restricted_cohomology(Z, BundleSum.make(X, {X.line(-3): 1}))
    assert "bott" not in cache.namespace_entries()
    assert cache.table("climb", X.levi)


def test_clear_removes_temp_files_of_killed_writers(disk):
    key = cache._key("t", "k")
    left = os.path.join(disk, key + "x1y2z3.tmp")
    with open(left, "wb") as fh:
        fh.write(b"half a pickle")
    cache.memo("t", "k", lambda: 7)
    cache.clear(disk=True)
    assert os.listdir(disk) == []
