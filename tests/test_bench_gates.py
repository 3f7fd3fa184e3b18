"""The benchmark's correctness gates, run on the engine in process.

The benchmark compares every output with ``bench/reference.json``; these
tests apply the same checks, so a moved byte of the ``classify-d3`` or
``hodge-e6p2`` output or a changed ``restrict-mix`` answer fails here and not
only in a benchmark run.
The reference file is only read.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from bwbforge import cli
from bwbforge.koszul import restricted_cohomology

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bwbforge_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load("run")
mix = _load("mix")


@pytest.fixture(scope="module")
def reference():
    return run.load_reference()


def test_hodge_e6p2_output_passes_the_gate(reference):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(run.HODGE_E6P2) == 0
    assert run.check_cli_output("hodge-e6p2", buf.getvalue(), reference) == []


def test_classify_d3_output_passes_the_gate(reference):
    # the benchmark's cold job, without its --cache directory
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(run.CLASSIFY_D3) == 0
    assert run.check_cli_output("classify-d3", buf.getvalue(), reference) == []


def test_restrict_mix_answers_pass_the_gate(reference):
    seed = reference["restrict-mix"]["seed"]
    queries = mix.generate(seed)
    answers = []
    for query in queries:
        zc = restricted_cohomology(*mix.build(query))
        answers.append([zc.dims, zc.status, sorted([q, list(b)] for q, b in zc.bounds.items())])
    # the benchmark's child process hands its answers over as JSON
    session = {"queries_digest": run.digest(json.dumps(queries)),
               "answers": json.loads(json.dumps(answers))}
    assert len(answers) == len(reference["restrict-mix"]["answers"])
    assert run.check_mix(session, seed, reference) == 0
