import json
import re

import pytest

from bwbforge import repcalc as rc
from bwbforge.cli import main
from bwbforge.hodge import (
    ChaseStuckError,
    HodgeDiamond,
    HodgeRow,
    assemble,
    h0_row,
    h1_row,
    h22_chase_report,
    is_hyperkaehler,
    omega_filtration,
    solve_exact_system,
)
from bwbforge.homspace import gradation, parse_homspace
from bwbforge.koszul import (
    AmbiguousCohomologyError,
    BundleSum,
    ZeroLocus,
    restricted_cohomology,
    wedge_dual_chars,
)
from bwbforge.bwbcohom import FilteredBundle, bundle_cohomology

from char_helpers import decompose
import second_wedge
from second_wedge import graded_module_char


def mk(space, weights):
    X = parse_homspace(space)
    return ZeroLocus(X, BundleSum.make(X, weights))


def w(rank, **kw):
    v = [0] * rank
    for key, val in kw.items():
        v[int(key[1:]) - 1] = val
    return tuple(v)


# -- the exact-sequence solver ------------------------------------------------


def test_solver_single_unknown_segment():
    values, done = solve_exact_system([0, 1, "x", 0])
    assert done and values == {"x": 1}
    values, done = solve_exact_system(["x", 272, 14, 0])
    assert done and values == {"x": 258}


def test_solver_needs_two_sequences():
    # the kernel chase's fixpoint: k is pinned by the second sequence, then x
    # resolves in the first
    seqs = [[1, "x", "k"], ["k", 91, 0]]
    values, done = second_wedge.solve_sequences(seqs)
    assert done and values == {"k": 91, "x": 92}
    # one sequence alone leaves x open
    assert solve_exact_system(seqs[0]) == ({}, False)


def test_solver_reports_stuck_unknowns():
    values, done = solve_exact_system(["a", 5, "b"])
    assert not done and values == {}


def test_solver_rejects_negative_forcing():
    with pytest.raises(ChaseStuckError):
        solve_exact_system(["x", 3, 5, 0])


def test_solver_refuses_a_repeated_unknown():
    # each unknown appears once in the conormal sequence; a repeat would
    # need a second pass with the first value substituted
    with pytest.raises(ValueError, match="repeats"):
        solve_exact_system(["x", 3, 0, "x", 3, 0])
    with pytest.raises(ValueError, match="repeats"):
        solve_exact_system([1, "x", "k", 0, "k", 91, 0])


# -- h^{0,q} -------------------------------------------------------------------


def test_h0_rows_and_verdicts():
    Z = mk("E6/P2", {w(6, i1=1): 2, w(6, i2=1): 5})
    row = h0_row(Z)
    assert row.values == [1, 0, 0, 0, 1]
    assert not is_hyperkaehler(row)
    Z = mk("A5/P2", {(3, 0, 0, 0, 0): 1})
    row = h0_row(Z)
    assert row.values == [1, 0, 1, 0, 1]
    assert is_hyperkaehler(row)
    Z = mk("G2/P1", {(2, 0): 1, (3, 0): 1})
    assert h0_row(Z).values == [1, 0, 0, 1]


def test_hyperkaehler_criterion_is_the_whole_row():
    assert is_hyperkaehler([1, 0, 1, 0, 1])
    # h^{0,2} = 1 alone is not enough
    assert not is_hyperkaehler([1, 1, 1, 1, 1])
    assert not is_hyperkaehler([1, 0, 1, None, 1])
    assert not is_hyperkaehler([1, 0, 1, 0])


# -- h^{1,q} -------------------------------------------------------------------


def test_h1_rows_g2():
    Z = mk("G2/P2", {(0, 3): 1})
    assert h1_row(Z).values == [0, 1, 0, 258, 0]
    Z = mk("G2/P1", {(5, 0): 1})
    assert h1_row(Z).values == [0, 1, 0, 356, 0]


def test_h1_row_e6p1_lines():
    Z = mk("E6/P1", {w(6, i1=1): 12})
    assert h1_row(Z).values == [0, 1, 0, 102, 0]


# -- h^{2,2} and diamonds -------------------------------------------------------


def test_h22_g2p2():
    Z = mk("G2/P2", {(0, 3): 1})
    assert h22_chase_report(Z).solved["h22"] == 1080
    # intermediate checkpoint from the worked computation
    r = restricted_cohomology(Z, BundleSum.make(Z.space, {(0, -6): 1}))
    assert r.dims == [0, 0, 0, 0, 3269]


def test_h22_g2p1_complete_intersection_crosscheck():
    Z = mk("G2/P1", {(5, 0): 1})
    assert h22_chase_report(Z).solved["h22"] == 1472
    dia = assemble(Z)
    assert dia.euler_characteristic() == 2190


def test_diamond_g2p2():
    Z = mk("G2/P2", {(0, 3): 1})
    dia = assemble(Z)
    assert dia.rows() == [
        [1, 0, 0, 0, 1],
        [0, 1, 0, 258, 0],
        [0, 0, 1080, 0, 0],
        [0, 258, 0, 1, 0],
        [1, 0, 0, 0, 1],
    ]
    assert dia.euler_characteristic() == 1602
    assert dia.flags[(3, 1)] == "symmetry-forced"
    assert dia.flags[(1, 1)] == "computed"


def test_assemble_reuses_the_rows_it_is_given(monkeypatch):
    # classify hands over the rows it already has; assemble must not redo them
    Z = mk("G2/P1", {(1, 0): 1, (4, 0): 1})
    row0 = h0_row(Z)
    row1 = h1_row(Z, row0)
    expected = assemble(Z).rows()

    def recomputed(*args):
        raise AssertionError("row recomputed")

    monkeypatch.setattr("bwbforge.hodge.h0_row", recomputed)
    monkeypatch.setattr("bwbforge.hodge.h1_row", recomputed)
    assert assemble(Z, row0, row1).rows() == expected


def test_diamond_keeps_the_reason_h22_is_blocked():
    # Table 1 row E6/P3, E_w3 + E_w6^4: S^2 F^*|_Z is only bounded, which
    # stalls a kernel chase but not the Euler characteristic
    dia = assemble(mk("E6/P3", {w(6, i3=1): 1, w(6, i6=1): 4}))
    assert dia.get(2, 2) == 336 and dia.flags[(2, 2)] == "euler-characteristic"
    assert dia.blocked == {}
    assert assemble(mk("G2/P2", {(0, 3): 1})).blocked == {}
    # only inexact rows 0 and 1 block h^{2,2}: the Beauville-Donagi fourfold
    dia = assemble(mk("A5/P2", {(3, 0, 0, 0, 0): 1}))
    assert dia.get(2, 2) is None and dia.flags[(2, 2)] == "ambiguous"
    assert dia.blocked == {"h22": "h22 needs exact h^{0,q} and h^{1,q} rows"}


def test_diamond_symmetry_everywhere():
    for space, weights in [
        ("G2/P2", {(0, 3): 1}),
        ("G2/P1", {(1, 0): 1, (4, 0): 1}),
        ("E6/P3", {w(6, i1=1): 1, w(6, i6=1): 4}),
    ]:
        dia = assemble(mk(space, weights))
        d = dia.d
        for p in range(d + 1):
            for q in range(d + 1):
                assert dia.get(p, q) == dia.get(q, p) == dia.get(d - p, d - q)


def test_chi_formula_consistency():
    # chi = 4 + 2 h11 + 2 h13 + h22 for our fourfolds with vanishing odd rows
    for space, weights, h13, h22v in [
        ("G2/P2", {(0, 3): 1}, 258, 1080),
        ("G2/P1", {(5, 0): 1}, 356, 1472),
    ]:
        dia = assemble(mk(space, weights))
        assert dia.euler_characteristic() == 4 + 2 * 1 + 2 * h13 + h22v


def test_chi_trivial_arithmetic():
    dia = HodgeDiamond(4)
    for p in range(5):
        for q in range(5):
            dia.set(p, q, 0, "computed")
    for p, q, v in [(0, 0, 1), (4, 4, 1), (0, 4, 1), (4, 0, 1),
                    (1, 1, 1), (3, 3, 1), (2, 2, 2)]:
        dia.set(p, q, v, "computed")
    assert dia.euler_characteristic() == 8


def test_threefold_chi_reporting():
    Z = mk("G2/P1", {(2, 0): 1, (3, 0): 1})
    r1 = h1_row(Z)
    assert r1.values == [0, 1, 73, 0]
    dia = assemble(Z)
    assert dia.euler_characteristic() == -144
    assert dia.euler_characteristic() == 2 * (1 - 73)


def test_h22_requires_fourfold():
    with pytest.raises(ValueError):
        h22_chase_report(mk("G2/P1", {(2, 0): 1, (3, 0): 1}))


def test_diamond_fills_a_cell_from_its_mirror():
    # explicit rows on a threefold: (0,1) is open, (1,0) is known
    Z = mk("G2/P1", {(2, 0): 1, (3, 0): 1})
    row0 = HodgeRow([1, None, 0, 1], "ambiguous")
    row1 = HodgeRow([0, 1, 73, 0], "exact")
    dia = assemble(Z, row0, row1)
    assert dia.get(0, 1) == 0 and dia.flags[(0, 1)] == "symmetry-forced"
    assert dia.get(3, 2) == 0 and dia.flags[(1, 0)] == "computed"
    assert dia.complete() and dia.euler_characteristic() == -144


def test_diamond_refuses_conflicting_mirror_cells():
    Z = mk("G2/P1", {(2, 0): 1, (3, 0): 1})
    row0 = HodgeRow([1, 0, 0, 1], "exact")
    row1 = HodgeRow([7, 1, 73, 0], "exact")
    with pytest.raises(ChaseStuckError, match="symmetry violated"):
        assemble(Z, row0, row1)


# -- engine values for the reference classification tables ----------------------

TABLE1_ENGINE = [
    ("E6/P1", {"i1": (1, 12)}, 102),
    ("E6/P2", {"i1": (1, 2), "i2": (1, 5)}, 87),
    ("E6/P2", {"i6": (1, 2), "i2": (1, 5)}, 87),
    ("E6/P3", {"i1": (1, 3), "i6": (1, 3)}, 48),
    ("E6/P3", {"i6": (1, 4), "i3": (1, 1)}, 72),
    ("F4/P1", {"i4": (1, 1), "i1": (1, 5)}, 87),  # reference tables carry 86; see below
    ("F4/P4", {"i4": (1, 11)}, 102),
    ("F4/P4", {"i1": (1, 1), "i4": (1, 4)}, 87),
    ("G2/P1", {"i1": (5, 1)}, 356),
    ("G2/P2", {"i2": (3, 1)}, 258),
]


@pytest.mark.parametrize("space,spec,h13", TABLE1_ENGINE)
def test_table1_h13_engine_values(space, spec, h13):
    X = parse_homspace(space)
    weights = {}
    for key, (coeff, mult) in spec.items():
        lam = [0] * X.rs.rank
        lam[int(key[1:]) - 1] = coeff
        weights[tuple(lam)] = mult
    Z = ZeroLocus(X, BundleSum.make(X, weights))
    r0 = h0_row(Z)
    r1 = h1_row(Z, r0)
    assert r0.values == [1, 0, 0, 0, 1]
    assert r1.values == [0, 1, 0, h13, 0]


def test_f4p1_h13_cross_validated_three_ways():
    """The F4/P1 fourfold: three independent routes all give h13 = 87.

    The reference table value for this row is 86, which is inconsistent with
    the Borel-Weil-Bott Euler characteristic; every analogous Spin/standard
    row gives 87.
    """
    Z = mk("F4/P1", {w(4, i4=1): 1, w(4, i1=1): 5})
    X = Z.space
    # route 1: the conormal chase
    assert h1_row(Z).values == [0, 1, 0, 87, 0]
    # route 2: Euler characteristics, pure alternating sums (no spectral logic)
    def chi_restricted(chars):
        total = 0
        wch = wedge_dual_chars(Z)
        for p in range(Z.bundle.rank + 1):
            for gchar in chars:
                dec = decompose(
                    X.levi, rc.conv(wch[p], gchar, X.rs.rank)
                )
                t = bundle_cohomology(X, dec)
                total += (-1) ** p * sum(
                    (-1) ** q * v for q, v in t.dims().items()
                )
        return total

    om_chars = [graded_module_char(X, ell) for ell in gradation(X).levels]
    chi_omega_z = chi_restricted(om_chars) - chi_restricted([Z.bundle.dual().char()])
    assert -chi_omega_z - 1 == 87
    # route 3: deformations through the normal-bundle sequence
    tangent = FilteredBundle.from_decomps(
        [
            decompose(
                X.levi,
                {
                    rc.pack(tuple(-c for c in rc.unpack(v, X.rs.rank))): m
                    for v, m in graded_module_char(X, ell).items()
                },
            )
            for ell in sorted(gradation(X).levels)
        ]
    )
    B = restricted_cohomology(Z, tangent)
    C = restricted_cohomology(Z, Z.bundle)
    assert B.dims == [52, 0, 0, 1, 0]  # h^0(T_X|_Z) = dim F4
    assert C.dims == [139, 0, 0, 0, 0]
    assert C.dims[0] - B.dims[0] == 87


TABLE2_ENGINE = [
    ("E6/P3", {(1, 0, 0, 0, 0, 0): 1, (0, 0, 0, 0, 0, 1): 4}, 31, -60),
    ("G2/P1", {(1, 0): 1, (4, 0): 1}, 89, -176),
    ("G2/P1", {(2, 0): 1, (3, 0): 1}, 73, -144),
    ("G2/P1", {(1, 1): 1}, 50, -98),
    ("G2/P2", {(0, 1): 1, (0, 2): 1}, 61, -120),
    ("G2/P2", {(1, 1): 1}, 50, -98),
]


@pytest.mark.parametrize("space,weights,h12,chi", TABLE2_ENGINE)
def test_table2_engine_values(space, weights, h12, chi):
    Z = mk(space, weights)
    assert Z.d == 3
    r0 = h0_row(Z)
    r1 = h1_row(Z, r0)
    assert r0.values == [1, 0, 0, 1]
    assert r1.values == [0, 1, h12, 0]
    assert assemble(Z).euler_characteristic() == chi


def test_omega_filtration_matches_gradation():
    X = parse_homspace("G2/P1")
    fb = omega_filtration(X)
    assert [dict(g) for g in fb.gradeds] == [
        {(-3, 1): 1}, {(-1, 0): 1}, {(-2, 1): 1}
    ]


def test_chase_reports_expose_the_audit_trail():
    from bwbforge.hodge import h1_chase_report

    Z = mk("G2/P2", {(0, 3): 1})
    rep = h1_chase_report(Z)
    assert rep.complete and rep.solved["x3"] == 258
    assert rep.known == {"x0": 0, "x4": 0}
    assert len(rep.sequences) == 1 and rep.notes() == []
    rep = h22_chase_report(Z)
    assert rep.complete and rep.sequences == [] and rep.notes() == []
    assert rep.known == {"x0": 0, "x1": 0, "x3": 0, "x4": 0,
                         "chi_O": 2, "chi_Omega1": -259}
    assert rep.solved == {"chi": 1080, "h22": 1080}


def test_h22_is_blocked_unless_the_canonical_bundle_is_trivial(capsys):
    # the quadric Q4 = Z(O(1)) on G2/P2 has exact rows, but K_Q4 = O(-4):
    # 22 chi_O - 4 chi_Omega1 is chi(Omega^2) only when c_1 = 0
    Q4 = mk("G2/P2", {(0, 1): 1})
    dia = assemble(Q4)
    assert dia.get(2, 2) is None and dia.flags[(2, 2)] == "ambiguous"
    assert dia.blocked == {"h22": "h22 needs a trivial canonical bundle"}
    args = ["--format", "json", "hodge", "G2/P2", "O(1)", "--d", "4"]
    assert main(args) == 1
    capsys.readouterr()
    assert main(["--allow-bounds", *args]) == 2
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["h22"] is None
    assert res["blocked"] == {"h22": "h22 needs a trivial canonical bundle"}
    # the three pages hold on any fourfold; the ungated closed form does not
    for Z, want, ungated in [(Q4, 2, 26), (mk("G2/P2", {(0, 4): 1}), 5510, 6578)]:
        r0 = h0_row(Z)
        r1 = h1_row(Z, r0)
        assert second_wedge.h22(Z, r0, r1) == want
        chi_o = sum((-1) ** q * v for q, v in enumerate(r0.values))
        chi_1 = sum((-1) ** q * v for q, v in enumerate(r1.values))
        assert 22 * chi_o - 4 * chi_1 - 2 * r0.values[2] + 2 * r1.values[2] == ungated


# The 12 rows of ``classify --d 4``; the first four keep their test ids.
TABLE1_H22 = [
    ("G2/P2", {(0, 3): 1}, 1080),
    ("G2/P1", {(5, 0): 1}, 1472),
    ("F4/P1", {w(4, i4=1): 1, w(4, i1=1): 5}, 396),
    ("E6/P1", {w(6, i1=1): 12}, 456),
    ("E6/P2", {w(6, i6=1): 2, w(6, i2=1): 5}, 396),
    ("E6/P2", {w(6, i6=1): 1, w(6, i2=1): 5, w(6, i1=1): 1}, 396),
    ("E6/P2", {w(6, i2=1): 5, w(6, i1=1): 2}, 396),
    ("E6/P3", {w(6, i6=1): 4, w(6, i3=1): 1}, 336),
    ("E6/P3", {w(6, i6=1): 3, w(6, i1=1): 3}, 240),
    ("E7/P1", {w(7, i7=1): 2, w(7, i1=1): 5}, 396),
    ("F4/P4", {w(4, i4=1): 11}, 456),
    ("F4/P4", {w(4, i4=1): 4, w(4, i1=1): 1}, 396),
]


@pytest.mark.parametrize("space,weights,h22_expected", TABLE1_H22)
def test_h22_satisfies_cy4_riemann_roch(space, weights, h22_expected):
    """Independent consistency oracle for the whole diamond.

    On a fourfold with trivial canonical bundle and h^{p,0} = 0 for
    p = 1, 2, 3, Riemann-Roch forces
    h^{2,2} = 2 (22 + 2 h^{1,1} + 2 h^{3,1} - h^{2,1}).
    The engine reads h^{2,2} off that same identity, so it is checked on
    the three-page chi(Omega^2_Z) of the second wedge, which never uses it;
    agreement cross-validates the h^{1,3} and h^{2,2} computations at once,
    and the engine must equal the three-page value.  On the F4/P1 fourfold
    the identity discriminates sharply: h^{1,3} = 87 forces 396 (computed),
    while the reference table's 86 would force 392.
    """
    Z = mk(space, weights)
    r0 = h0_row(Z)
    r1 = h1_row(Z, r0)
    assert r0.values == [1, 0, 0, 0, 1]
    value = second_wedge.h22(Z, r0, r1)
    assert h22_chase_report(Z, r0, r1).solved["h22"] == value == h22_expected
    h11, h21, h31 = r1.values[1], r1.values[2], r1.values[3]
    assert value == 2 * (22 + 2 * h11 + 2 * h31 - h21)


# -- the two-sequence kernel chase, an oracle for h^{2,2} --------------------

# the Table 1 rows where a restricted bundle of the second wedge is only bounded
KERNEL_CHASE_STUCK = [
    ("E6/P3", {w(6, i6=1): 4, w(6, i3=1): 1}, "S^2F^*|_Z: {3: (0, 10), 4: (7320, 7330)}"),
    ("E6/P3", {w(6, i6=1): 3, w(6, i1=1): 3}, "Omega^2|_Z: {3: (2, 817), 4: (3030, 3845)}"),
    ("F4/P4", {w(4, i4=1): 4, w(4, i1=1): 1}, "F^* (x) Omega|_Z: {3: (0, 3), 4: (9138, 9141)}"),
]
# kernel cells h^q(K) of the worked G2/P2 computation
KERNEL_CELLS = {"G2/P2": {"k3": 1079, "k4": 91}}
KERNEL_CHASE_CERTIFIED = [
    row for row in TABLE1_H22
    if (row[0], row[1]) not in [(space, wts) for space, wts, _ in KERNEL_CHASE_STUCK]
]


@pytest.mark.parametrize("space,weights,h22_expected", KERNEL_CHASE_CERTIFIED)
def test_kernel_chase_agrees_with_euler_characteristic(space, weights, h22_expected):
    Z = mk(space, weights)
    r0 = h0_row(Z)
    r1 = h1_row(Z, r0)
    values, complete = second_wedge.kernel_chase(Z, r0, r1)
    assert complete
    assert values["h22"] == h22_chase_report(Z, r0, r1).solved["h22"] == h22_expected
    cells = KERNEL_CELLS.get(space, {})
    assert {name: values[name] for name in cells} == cells


@pytest.mark.parametrize("space,weights,reason", KERNEL_CHASE_STUCK,
                         ids=["E6/P3-w6^4+O(1)", "E6/P3-w6^3+w1^3", "F4/P4-O(1)^4+w1"])
def test_kernel_chase_stalls_on_a_bounded_bundle(space, weights, reason):
    Z = mk(space, weights)
    r0 = h0_row(Z)
    with pytest.raises(AmbiguousCohomologyError, match=re.escape(reason)):
        second_wedge.kernel_chase(Z, r0, h1_row(Z, r0))
