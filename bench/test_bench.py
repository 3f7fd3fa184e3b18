"""Self-tests of the benchmark.

Run from the root of a checkout: ``PYTHONPATH=src python3 -m pytest bench -q``.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import mix  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return run.load_reference()


def test_aggregate_self_time_on_synthetic_tree():
    # a[0,10] -> b[1,4], c[5,9] -> b[6,8] -> a[6.5,7]
    names = ["a", "b", "c"]
    name_ids = [0, 1, 2, 1, 0]
    starts = [0.0, 1.0, 5.0, 6.0, 6.5]
    ends = [10.0, 4.0, 9.0, 8.0, 7.0]
    parents = [-1, 0, 0, 2, 3]
    agg = tracing.aggregate(names, name_ids, starts, ends, parents)
    assert agg["a"] == {"calls": 2, "s": 10.0, "self_s": 3.0 + 0.5}
    assert agg["b"] == {"calls": 2, "s": 5.0, "self_s": 3.0 + 1.5}
    assert agg["c"] == {"calls": 1, "s": 4.0, "self_s": 2.0}
    assert agg["<root>"]["s"] == 10.0
    # self times partition the root span
    assert sum(agg[n]["self_s"] for n in names) == pytest.approx(10.0)


def test_tracer_spans_nest_and_round_trip(tmp_path):
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.span("inner", lambda x: x + 1)
    outer = tracer.span("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    path = str(tmp_path / "spans.bin")
    tracer.dump(path)
    header, cols = tracing.load(path)
    agg = tracing.aggregate(header["names"], *cols)
    assert agg["outer"] == {"calls": 1, "s": 3.0, "self_s": 2.0}
    assert agg["inner"] == {"calls": 1, "s": 1.0, "self_s": 1.0}


def test_install_wraps_every_binding_site_and_uninstall_restores():
    from bwbforge import bwbcohom, hodge, koszul, repcalc

    originals = (bwbcohom.bundle_cohomology, koszul.bundle_cohomology,
                 hodge.restricted_cohomology, repcalc.conv)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # names taken in with "from ... import" are wrapped too
        assert koszul.bundle_cohomology is bwbcohom.bundle_cohomology
        assert koszul.bundle_cohomology is not originals[0]
        assert hodge.restricted_cohomology is koszul.restricted_cohomology
        assert hodge.restricted_cohomology is not originals[2]
        X = mix.build(mix.generate(1)[0])[0].space
        repcalc.conv({repcalc.pack((0,) * X.rs.rank): 1}, {repcalc.pack((1,) * X.rs.rank): 2},
                     X.rs.rank)
        assert tracer.counts["repcalc.conv.products"] == 1
    finally:
        tracer.uninstall()
    assert (bwbcohom.bundle_cohomology, koszul.bundle_cohomology,
            hodge.restricted_cohomology, repcalc.conv) == originals


def test_generator_is_deterministic(reference):
    first = mix.generate(7)
    assert first == mix.generate(7)
    assert first != mix.generate(8)
    per_locus = {}
    for space, bundle, (kind, _) in first:
        per_locus.setdefault((space, bundle), []).append(kind)
    assert len(per_locus) == len(mix.LOCI)
    assert all(kinds.count("omega") == 1 and len(kinds) == 6 for kinds in per_locus.values())
    ref = reference["restrict-mix"]
    committed = mix.generate(ref["seed"])
    assert run.digest(json.dumps(committed)) == ref["queries_digest"]


def test_mix_inputs_match_the_engine():
    from bwbforge import repcalc
    from bwbforge.homspace import parse_homspace

    # the Serre duality check relies on a trivial canonical bundle
    for space, bundle, _ in mix.LOCI:
        Z, _ = mix.build((space, bundle, ("omega", 0)))
        assert Z.is_canonical_trivial(), space
    # SMALL_LEVI holds the two Levi fundamental weights of smallest rank
    for space, (a, b) in mix.SMALL_LEVI.items():
        X = parse_homspace(space)
        r = X.rs.rank
        ranks = sorted(repcalc.weyl_dim(X.levi, tuple(int(j == i) for j in range(r)))
                       for i in range(r) if i != X.k - 1)
        smallest = ranks[:2] if len(ranks) > 1 else ranks * 2
        assert [repcalc.weyl_dim(X.levi, a), repcalc.weyl_dim(X.levi, b)] == smallest, space


@pytest.fixture(scope="module")
def d3_output():
    from bwbforge import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(run.CLASSIFY_D3) == 0
    return buf.getvalue()


def test_gate_accepts_the_engine_output(d3_output, reference):
    assert run.check_cli_output("classify-d3", d3_output, reference) == []


def test_gate_rejects_a_corrupted_output(d3_output, reference):
    data = json.loads(d3_output)
    data["results"]["rows"][0]["chi"] += 2
    corrupted = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    problems = run.check_cli_output("classify-d3", corrupted, reference)
    assert any("digest" in p for p in problems)
    assert any("rows" in p for p in problems)
    # a single changed byte that keeps every spot value still fails
    assert run.check_cli_output("classify-d3", d3_output + " ", reference)


def test_gate_rejects_a_wrong_mix_answer(reference):
    ref = reference["restrict-mix"]
    session = {"queries_digest": ref["queries_digest"], "answers": copy.deepcopy(ref["answers"])}
    assert run.check_mix(session, ref["seed"], reference) == 0
    session["answers"][3][0][0] += 1
    assert run.check_mix(session, ref["seed"], reference) == 1
    # on another seed only duality and repetition can catch it
    other = {"answers": session["answers"], "duality": {"mismatches": [3]}}
    assert run.check_mix(other, ref["seed"] + 1, reference) == 1


def test_cold_and_warm_disk_hit_checks():
    assert run.check_disk_hits({"disk_hits": 0}, warm=False) == []
    assert run.check_disk_hits({"disk_hits": 3}, warm=False)
    assert run.check_disk_hits({"disk_hits": 0}, warm=True)
    assert run.check_disk_hits({"disk_hits": 3}, warm=True) == []


def test_speed_scale_divides_out_a_uniform_slowdown():
    ref = run.REFERENCE_CALIBRATION_S
    assert run.speed_scale(ref, ref) == 1.0
    # the same pass on a machine at half speed, calibration included, reads the same
    fast = 8.0 * run.speed_scale(0.30, 0.40)
    slow = 16.0 * run.speed_scale(0.60, 0.80)
    assert slow == pytest.approx(fast)
