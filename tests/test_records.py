"""The engine's records are ``NamedTuple``s: off the import path of ``dataclasses``,
validated on every construction (unpickling included), and never mixed in a memo."""

import ast
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import bwbforge
from bwbforge import cache, koszul
from bwbforge import repcalc as rc
from bwbforge.classify import classify, exceptional_spaces
from bwbforge.homspace import HomSpace, parse_homspace
from bwbforge.koszul import BundleSum, PackedPage, ZeroLocus
from bwbforge.rootdata import RootDataError, RootSystem

SRC = pathlib.Path(bwbforge.__file__).resolve().parents[1]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    paths = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    probe = "import sys, bwbforge.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_a_cli_job_loads_neither_argparse_gettext_locale_nor_csv():
    # one table parses the command line, and only the csv format imports csv
    paths = [str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    probe = (
        "import contextlib, io, sys\n"
        "from bwbforge.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['--format', 'json', 'hodge', 'G2/P2', 'O(3)', '--d', '4'])\n"
        "print(code, sorted({'argparse', 'gettext', 'locale', 'csv'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


def importers_of(module):
    """``file:line`` of each import of ``module`` under ``src/``."""
    importers = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            if any(n.split(".")[0] == module for n in names):
                importers.append(f"{path.name}:{node.lineno}")
    return importers


def test_no_source_file_imports_dataclasses():
    assert importers_of("dataclasses") == []


def test_no_source_file_imports_argparse():
    assert importers_of("argparse") == []


def _refusals():
    E6 = RootSystem("E", 6)
    X, Y = HomSpace(E6, 2), HomSpace(E6, 1)
    return [
        (lambda: RootSystem("E", 9), RootDataError, "rank 9 not admissible for family E"),
        (lambda: RootSystem("X", 3), RootDataError, "unknown family 'X'"),
        (lambda: rc.Context(E6, (2, 1)), ValueError, "levi indices must be sorted and unique"),
        (lambda: rc.Context(E6, (0, 1)), ValueError, "levi indices out of range"),
        (lambda: HomSpace(E6, 0), ValueError, "parabolic index 0 out of range for E6"),
        (lambda: ZeroLocus(X, BundleSum.make(Y, {Y.line(1): 1})), ValueError,
         "bundle lives on a different space"),
        # w1(-1) is P2-dominant, so a bundle, but not E6-dominant: no sections
        (lambda: ZeroLocus(X, BundleSum(X, ((X.twist(X.fundamental(1), -1), 1),))), ValueError,
         "summand (1, -1, 0, 0, 0, 0) is not E6-dominant: it has no sections, "
         "so its zero locus has no Koszul resolution"),
        (lambda: ZeroLocus(X, BundleSum.make(X, {X.line(1): 22})), ValueError,
         "bundle rank exceeds the ambient dimension"),
    ]


@pytest.mark.parametrize("build,exc,message", _refusals())
def test_refused_records_keep_their_exception_and_message(build, exc, message):
    with pytest.raises(exc) as info:
        build()
    assert type(info.value) is exc and str(info.value) == message


def _bad_fields():
    """Each refusal above as a valid record and the fields that spoil it."""
    E6 = RootSystem("E", 6)
    X, Y = HomSpace(E6, 2), HomSpace(E6, 1)
    Z = ZeroLocus(X, BundleSum.make(X, {X.fundamental(6): 1, X.line(1): 5, X.fundamental(1): 1}))
    return [
        (E6, {"rank": 9}, RootDataError, "rank 9 not admissible for family E"),
        (E6, {"family": "X", "rank": 3}, RootDataError, "unknown family 'X'"),
        (X.levi, {"levi": (2, 1)}, ValueError, "levi indices must be sorted and unique"),
        (X.levi, {"levi": (0, 1)}, ValueError, "levi indices out of range"),
        (X, {"k": 0}, ValueError, "parabolic index 0 out of range for E6"),
        (Z, {"bundle": BundleSum.make(Y, {Y.line(1): 1})}, ValueError,
         "bundle lives on a different space"),
        (Z, {"bundle": BundleSum(X, ((X.twist(X.fundamental(1), -1), 1),))}, ValueError,
         "summand (1, -1, 0, 0, 0, 0) is not E6-dominant: it has no sections, "
         "so its zero locus has no Koszul resolution"),
        (Z, {"bundle": BundleSum.make(X, {X.line(1): 22})}, ValueError,
         "bundle rank exceeds the ambient dimension"),
    ]


@pytest.mark.parametrize("route", ["_make", "_replace"])
@pytest.mark.parametrize("good,bad,exc,message", _bad_fields())
def test_make_and_replace_refuse_what_the_constructor_refuses(route, good, bad, exc, message):
    fields = {**good._asdict(), **bad}
    cls = type(good)
    with pytest.raises(exc) as info:
        cls._make(fields.values()) if route == "_make" else good._replace(**bad)
    assert type(info.value) is exc and str(info.value) == message
    # the same fields, unspoilt, go through both routes to an equal record
    assert cls._make(good) == good._replace() == good and type(cls._make(good)) is cls


def _plan_fields(plan):
    pages = [[getattr(page, name) for name in PackedPage.__slots__] for page in plan.pages]
    return plan.terms, plan.hulls, pages


def test_records_survive_pickle_and_are_validated_on_load():
    X = parse_homspace("E6/P2")
    Z = ZeroLocus(X, BundleSum.make(X, {X.fundamental(6): 1, X.line(1): 5, X.fundamental(1): 1}))
    for record in (X, Z):
        back = pickle.loads(pickle.dumps(record))
        assert back == record and type(back) is type(record)
    plan = koszul.read_plan(Z.bundle)
    back = pickle.loads(pickle.dumps(plan))
    assert type(back) is koszul.ReadPlan and _plan_fields(back) == _plan_fields(plan)
    # unpickling calls the validating constructor again: a record that
    # skipped it, as one forged on disk would, is refused on load
    forged = pickle.dumps(tuple.__new__(HomSpace, (X.rs, 9)))
    with pytest.raises(ValueError, match="parabolic index 9 out of range for E6"):
        pickle.loads(forged)


def test_read_plan_is_read_back_from_disk(tmp_path):
    X = parse_homspace("E6/P2")
    F = BundleSum.make(X, {X.fundamental(6): 1, X.line(1): 5, X.fundamental(1): 1})
    cache.set_cache_dir(str(tmp_path))
    try:
        cache.clear()
        plan = koszul.read_plan(F)
        cache.clear()
        back = koszul.read_plan(F)
        assert cache.stats()["disk_hits"] == 1 and cache.stats()["corrupt"] == 0
    finally:
        cache.set_cache_dir(None)
        cache.clear()
    assert _plan_fields(back) == _plan_fields(plan)


def test_each_memo_namespace_has_owners_of_one_type():
    # a NamedTuple equals any tuple of the same fields, so owners of two
    # types in one namespace could alias each other's entries; the per-context
    # and per-space tables are owned by the records, the memo tables by None
    cache.clear()
    try:
        classify(exceptional_spaces(), 3)
        owners = {}
        for namespace, owner in cache._tables:
            owners.setdefault(namespace, set()).add(type(owner))
    finally:
        cache.clear()
    assert {"climb", "bwb", "wedge_decomps"} <= set(owners)
    want = {"dim": rc.Context, "climb": rc.Context, "levi_tensor": rc.Context, "bwb": HomSpace}
    assert owners == {ns: {want.get(ns, type(None))} for ns in owners}
