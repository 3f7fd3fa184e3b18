import ast
import json
import pathlib
import re
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bwbforge import hodge
from bwbforge import repcalc as rc
from bwbforge.cli import main, parse_bundle
from bwbforge.hodge import (
    AmbiguousCohomologyError,
    ChaseStuckError,
    HodgeDiamond,
    assemble,
    h0_row,
    h1_chase_report,
    h1_row,
    h22_chase_report,
    is_hyperkaehler,
    omega_filtration,
    solve_exact_system,
)
from bwbforge.homspace import gradation, parse_homspace
from bwbforge.koszul import (
    BundleSum,
    FilteredBundle,
    ZCohomology,
    ZeroLocus,
    restricted_cohomology,
    wedge_dual_chars,
)
from bwbforge.bwbcohom import bundle_cohomology

from char_helpers import decompose
import second_wedge
from second_wedge import graded_module_char


def mk(space, weights):
    X = parse_homspace(space)
    return ZeroLocus(X, BundleSum.make(X, weights))


def rows(Z):
    """Rows 0 and 1 of Z, each computed once, as the row functions take them."""
    row0 = h0_row(Z)
    return row0, h1_row(Z, row0)


def w(rank, **kw):
    v = [0] * rank
    for key, val in kw.items():
        v[int(key[1:]) - 1] = val
    return tuple(v)


# -- the exact-sequence solver ------------------------------------------------


def test_solver_single_unknown_segment():
    # an unknown between known terms: t_i = r_{i-1} + r_i pins it
    assert solve_exact_system([(0, 0), (1, 1), (0, 9), (0, 0)], []) == [(0, 0), (1, 1), (1, 1), (0, 0)]
    got = solve_exact_system([(0, 300), (272, 272), (14, 14), (0, 0)], [])
    assert got[0] == (258, 258)


def test_solver_needs_two_sequences():
    # the kernel chase's fixpoint in the oracle: k is pinned by the second
    # sequence, then x resolves in the first
    seqs = [[1, "x", "k"], ["k", 91, 0]]
    values, done = second_wedge.solve_sequences(seqs)
    assert done and values == {"k": 91, "x": 92}
    # one sequence alone leaves x open
    assert second_wedge.solve_segment_cells(seqs[0]) == {}


def test_solver_bounds_what_it_cannot_pin():
    # a -> 5 -> b: only a + b = 5 is known, so each stays a bound
    assert solve_exact_system([(0, 9), (5, 5), (0, 9)], []) == [(0, 5), (5, 5), (0, 5)]
    # an Euler row a - b = 5 closes both; a - b = 1 only narrows, since the
    # solver propagates intervals and eliminates no row against another
    assert solve_exact_system([(0, 9), (5, 5), (0, 9)], [((0, 2), 5)]) == [(5, 5), (5, 5), (0, 0)]
    assert solve_exact_system([(0, 9), (5, 5), (0, 9)], [((0, 2), 1)]) == [(1, 5), (5, 5), (0, 4)]


def test_solver_rejects_negative_forcing():
    # x -> 3 -> 5 -> 0 would need x = -2
    with pytest.raises(AssertionError):
        solve_exact_system([(0, 9), (3, 3), (5, 5), (0, 0)], [])


def test_solver_pins_two_unknowns_of_one_segment_by_euler():
    # t0 in [0, 1] and t1 in [1, 2] share a segment; their Euler row t0 - t1 = -2
    # pins both, and then t2 = t1 - t0
    got = solve_exact_system([(0, 1), (1, 2), (0, 9)], [((0, 1), -2)])
    assert got == [(0, 0), (2, 2), (2, 2)]


def _exact_fillings(terms, chis):
    """Every filling of the terms by an exact sequence meeting the Euler rows: ranks r_i >= 0
    of t_i -> t_{i+1}, with t_i = r_{i-1} + r_i, each ranging up to the ends it joins."""
    m, out = len(terms), set()
    for ranks in product(*(range(min(terms[i][1], terms[i + 1][1]) + 1) for i in range(m - 1))):
        r = (0, *ranks, 0)
        t = tuple(r[i] + r[i + 1] for i in range(m))
        if all(lo <= v <= hi for v, (lo, hi) in zip(t, terms)) and all(
            sum(-t[i] if j % 2 else t[i] for j, i in enumerate(indices)) == chi
            for indices, chi in chis
        ):
            out.add(t)
    return out


@st.composite
def exact_systems(draw):
    """Intervals around an exact sequence's terms, and Euler rows over some of them, each its
    true value or off by one: about a third of the systems have no filling."""
    ranks = draw(st.lists(st.integers(0, 3), min_size=0, max_size=4))
    r = (0, *ranks, 0)
    true = [r[i] + r[i + 1] for i in range(len(r) - 1)]
    terms = [(max(0, t - draw(st.integers(0, 2))), t + draw(st.integers(-1, 2))) for t in true]
    terms = [(lo, max(lo, hi)) for lo, hi in terms]
    chis = []
    for _ in range(draw(st.integers(0, 2))):
        indices = sorted(draw(st.sets(st.integers(0, len(true) - 1), min_size=1)))
        chi = sum(-true[i] if j % 2 else true[i] for j, i in enumerate(indices))
        chis.append((indices, chi + draw(st.sampled_from((0, 0, 1, -1)))))
    return terms, chis


@settings(max_examples=300, deadline=None)
@given(system=exact_systems())
def test_exact_system_against_every_filling(system):
    terms, chis = system
    fillings = _exact_fillings(terms, chis)
    try:
        got = solve_exact_system(terms, chis)
    except AssertionError:
        # refused only when no exact sequence fits
        assert not fillings
        return
    assert len(got) == len(terms)
    for n, (lo, hi) in enumerate(got):
        assert all(lo <= t[n] <= hi for t in fillings)


# -- h^{0,q} -------------------------------------------------------------------


def test_h0_rows_and_verdicts():
    Z = mk("E6/P2", {w(6, i1=1): 2, w(6, i2=1): 5})
    row = h0_row(Z)
    assert row.dims == [1, 0, 0, 0, 1]
    assert not is_hyperkaehler(row.dims)
    Z = mk("A5/P2", {(3, 0, 0, 0, 0): 1})
    row = h0_row(Z)
    assert row.dims == [1, 0, 1, 0, 1]
    assert is_hyperkaehler(row.dims)
    Z = mk("G2/P1", {(2, 0): 1, (3, 0): 1})
    assert h0_row(Z).dims == [1, 0, 0, 1]


def test_hyperkaehler_criterion_is_the_whole_row():
    assert is_hyperkaehler([1, 0, 1, 0, 1])
    # h^{0,2} = 1 alone is not enough
    assert not is_hyperkaehler([1, 1, 1, 1, 1])
    assert not is_hyperkaehler([1, 0, 1, None, 1])
    assert not is_hyperkaehler([1, 0, 1, 0])


# -- h^{1,q} -------------------------------------------------------------------


def test_h1_rows_g2():
    Z = mk("G2/P2", {(0, 3): 1})
    assert h1_row(Z, h0_row(Z)).dims == [0, 1, 0, 258, 0]
    Z = mk("G2/P1", {(5, 0): 1})
    assert h1_row(Z, h0_row(Z)).dims == [0, 1, 0, 356, 0]


def test_h1_row_e6p1_lines():
    Z = mk("E6/P1", {w(6, i1=1): 12})
    assert h1_row(Z, h0_row(Z)).dims == [0, 1, 0, 102, 0]


# rows the interval chase closes or bounds where a single-unknown segment rule
# could not: (space, bundle, h^{1,*} row, its bounds, h^{2,2}); the exceptional
# rows, F4/P4 and F4/P1 with h^{1,3} = 87 among them, are in TABLE1_ENGINE
CHASE_ROWS = [
    # Omega_X|_Z is only bounded; its Euler row and the sequence pin it
    ("C6/P3", "O(2)^2 + w1^6", [0, 1, 0, 143, 0], {}, 620),
    # both sheaves exact, two unknowns in one segment
    ("A6/P2", "O(1) + w1(1) + w11", [0, 1, None, None, 0], {2: (0, 1), 3: (97, 98)}, None),
]


@pytest.mark.parametrize("space,bundle,dims,bounds,h22", CHASE_ROWS)
def test_interval_chase_rows(space, bundle, dims, bounds, h22):
    X = parse_homspace(space)
    Z = ZeroLocus(X, parse_bundle(X, bundle))
    row0 = h0_row(Z)
    row1 = h1_row(Z, row0)
    assert row0.dims == [1, 0, 0, 0, 1]
    assert (row1.dims, row1.bounds) == (dims, bounds)
    assert row1.status == ("ambiguous" if bounds else "exact")
    assert assemble(Z, row0, row1).get(2, 2) == h22


@pytest.mark.parametrize("space,bundle", [("A5/P2", "[3,0,0,0,0]"), ("A9/P4", "w7")])
def test_hyperkaehler_h1_rows_stay_bounds(space, bundle):
    # Beauville-Donagi and Debarre-Voisin: each bound holds the K3^[2] row
    # 21, 0, 21, and none closes (one d_1 of the F^*|_Z page stays open)
    X = parse_homspace(space)
    Z = ZeroLocus(X, parse_bundle(X, bundle))
    row0 = h0_row(Z)
    row1 = h1_row(Z, row0)
    assert is_hyperkaehler(row0.dims) and row1.chi == -42
    assert row1.status == "ambiguous" and row1.dims == [0, None, None, None, 0]
    for q, v in zip((1, 2, 3), (21, 0, 21)):
        lo, hi = row1.bounds[q]
        assert lo <= v <= hi and lo < hi


# -- h^{2,2} and diamonds -------------------------------------------------------


def test_h22_g2p2():
    Z = mk("G2/P2", {(0, 3): 1})
    assert h22_chase_report(Z, *rows(Z)).cells["h22"] == (1080, 1080)
    # intermediate checkpoint from the worked computation
    r = restricted_cohomology(Z, BundleSum.make(Z.space, {(0, -6): 1}))
    assert r.dims == [0, 0, 0, 0, 3269]


def test_h22_g2p1_complete_intersection_crosscheck():
    Z = mk("G2/P1", {(5, 0): 1})
    assert h22_chase_report(Z, *rows(Z)).cells["h22"] == (1472, 1472)
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
    # a bounded h^{1,2} bounds h^{2,2}: the Beauville-Donagi fourfold, whose
    # K3^[2] value 276 = 234 - 2 + 2 * 22 lies inside
    dia = assemble(mk("A5/P2", {(3, 0, 0, 0, 0): 1}))
    assert dia.get(2, 2) is None and dia.flags[(2, 2)] == "ambiguous"
    assert dia.blocked == {"h22": "h22 in [232, 304] from bounded h^{1,2} in [0, 36]"}
    # a dimension: chi(Omega^2_Z) - 2 h^{0,2} = -12 would be the lower end
    X = parse_homspace("B5/P4")
    dia = assemble(ZeroLocus(X, parse_bundle(X, "w1 + w11")))
    assert dia.blocked == {"h22": "h22 in [0, 1152] from bounded h^{1,2} in [0, 582]"}


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
    cells = {(p, q): (0, 0) for p in range(5) for q in range(5)}
    for p, q, v in [(0, 0, 1), (4, 4, 1), (0, 4, 1), (4, 0, 1),
                    (1, 1, 1), (3, 3, 1), (2, 2, 2)]:
        cells[p, q] = (v, v)
    dia = HodgeDiamond(4, cells, {}, {})
    assert dia.complete() and dia.euler_characteristic() == 8
    cells[2, 2] = (2, 3)
    assert not dia.complete() and dia.euler_characteristic() is None


def test_threefold_chi_reporting():
    Z = mk("G2/P1", {(2, 0): 1, (3, 0): 1})
    r1 = h1_row(Z, h0_row(Z))
    assert r1.dims == [0, 1, 73, 0]
    dia = assemble(Z)
    assert dia.euler_characteristic() == -144
    assert dia.euler_characteristic() == 2 * (1 - 73)


def test_h22_requires_fourfold():
    Z = mk("G2/P1", {(2, 0): 1, (3, 0): 1})
    with pytest.raises(ValueError):
        h22_chase_report(Z, *rows(Z))


def test_diamond_fills_a_cell_from_its_mirror():
    # explicit rows on a threefold: (0,1) is open, (1,0) is known
    Z = mk("G2/P1", {(2, 0): 1, (3, 0): 1})
    row0 = ZCohomology(((1, 1), (0, 1), (0, 0), (1, 1)), 0)
    row1 = ZCohomology(((0, 0), (1, 1), (73, 73), (0, 0)), 72)
    dia = assemble(Z, row0, row1)
    assert dia.get(0, 1) == 0 and dia.flags[(0, 1)] == "symmetry-forced"
    assert dia.get(3, 2) == 0 and dia.flags[(1, 0)] == "computed"
    assert dia.complete() and dia.euler_characteristic() == -144


def test_diamond_refuses_conflicting_mirror_cells():
    Z = mk("G2/P1", {(2, 0): 1, (3, 0): 1})
    row0 = zrow(3, [1, 0, 0, 1], {})
    row1 = zrow(3, [7, 1, 73, 0], {})
    with pytest.raises(ChaseStuckError, match="symmetry violated"):
        assemble(Z, row0, row1)


def orbit(d, p, q):
    """The cells conjugation and Serre duality tie to (p, q) on a d-fold."""
    return {(p, q), (q, p), (d - p, d - q), (d - q, d - p)}


def zrow(d, values, bounds):
    """A row of a d-fold holding ``values``, the cells of ``bounds`` widened to their intervals."""
    assert len(values) == d + 1
    chi = sum((-1) ** q * v for q, v in enumerate(values))
    return ZCohomology(tuple(bounds.get(q, (v, v)) for q, v in enumerate(values)), chi)


# a threefold and a fourfold with trivial K_Z: assemble reads only d and K_Z off them
ORBIT_LOCI = {3: ("G2/P1", {(2, 0): 1, (3, 0): 1}), 4: ("G2/P2", {(0, 3): 1})}
# rows 0 and 1 of a fourfold diamond whose h^{2,2} is 22 * 2 - 4 * 22 + 2 * 22 = 0
CUT_ROWS = ([1, 0, 0, 0, 1], [0, 0, 22, 0, 0])
CUT_DIAMOND = {(p, q): 0 if (p, q) == (2, 2) else CUT_ROWS[r[0]][r[1]]
               for p, q in product(range(5), repeat=2) for r in [min(orbit(4, p, q))]}


@st.composite
def widened_diamonds(draw):
    """(d, true diamond, bounds of rows 0 and 1): each bound holds its true value.

    On the fourfold h^{2,2} is the Libgober-Wood value of the true rows.
    """
    d = draw(st.sampled_from((3, 4)))
    true = {}
    for p, q in product(range(d + 1), repeat=2):
        rep = min(orbit(d, p, q))
        true[p, q] = true[rep] if rep in true else draw(st.integers(0, 60))
    if d == 4:
        chi0, chi1 = (sum((-1) ** q * true[p, q] for q in range(5)) for p in (0, 1))
        true[2, 2] = 22 * chi0 - 4 * chi1 - 2 * true[0, 2] + 2 * true[1, 2]
        assume(true[2, 2] >= 0)
    bounds = [{}, {}]
    for p, q in product((0, 1), range(d + 1)):
        v = true[p, q]
        if draw(st.booleans()):
            lo, hi = draw(st.integers(0, v)), draw(st.integers(v, v + 9))
            if lo < hi:
                bounds[p][q] = (lo, hi)
    return d, true, bounds


@given(widened_diamonds())
@example((4, CUT_DIAMOND, [{}, {2: (20, 22)}]))
@settings(max_examples=200, deadline=None)
def test_orbit_meet_keeps_the_true_diamond(case):
    d, true, bounds = case
    row0, row1 = (zrow(d, [true[p, q] for q in range(d + 1)], bounds[p]) for p in (0, 1))
    dia = assemble(mk(*ORBIT_LOCI[d]), row0, row1)
    points = {(p, q) for p, q in product((0, 1), range(d + 1)) if q not in bounds[p]}
    if d == 4 and 2 not in bounds[0] and 2 not in bounds[1]:
        points.add((2, 2))
    for (p, q), v in true.items():
        assert dia.get(p, q) in (None, v), (p, q)
        assert dia.get(p, q) == v or not orbit(d, p, q) & points, (p, q)
        assert (dia.get(p, q) is None) == (dia.flags[p, q] == "ambiguous")


def test_a_bounded_h12_cut_to_a_point_h22_keeps_both():
    # h^{1,2} in [20, 22] with chi(Omega^2_Z) = 22 * 2 - 4 * 22 = -44 puts
    # h^{2,2} in [-4, 0]; the cut at 0 certifies it while h^{1,2} stays open
    Z = mk(*ORBIT_LOCI[4])
    row0, row1 = zrow(4, CUT_ROWS[0], {}), zrow(4, CUT_ROWS[1], {2: (20, 22)})
    assert h22_chase_report(Z, row0, row1).cells == {
        "x1": (20, 22), "x3": (20, 22), "chi": (-44, -44), "h22": (0, 0)}
    dia = assemble(Z, row0, row1)
    assert dia.get(2, 2) == 0 and dia.flags[2, 2] == "euler-characteristic"
    assert dia.cells[1, 2] == dia.cells[2, 3] == (20, 22) and dia.get(1, 2) is None
    assert dia.flags[1, 2] == "ambiguous" and dia.blocked == {}


@given(widened_diamonds(), st.data())
@settings(max_examples=50, deadline=None)
def test_orbit_meet_refuses_conflicting_points(case, data):
    # h^{1,0} against h^{0,1}, or h^{1,d} against h^{0,d-1}
    d, true, _ = case
    values = [[true[p, q] for q in range(d + 1)] for p in (0, 1)]
    q = data.draw(st.sampled_from((0, d)))
    values[1][q] += data.draw(st.integers(1, 5))
    with pytest.raises(ChaseStuckError, match="symmetry violated"):
        assemble(mk(*ORBIT_LOCI[d]), zrow(d, values[0], {}), zrow(d, values[1], {}))


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
    assert r0.dims == [1, 0, 0, 0, 1]
    assert r1.dims == [0, 1, 0, h13, 0]


def test_f4p1_h13_cross_validated_three_ways():
    """The F4/P1 fourfold: three independent routes all give h13 = 87.

    The reference table value for this row is 86, which is inconsistent with
    the Borel-Weil-Bott Euler characteristic; every analogous Spin/standard
    row gives 87.
    """
    Z = mk("F4/P1", {w(4, i4=1): 1, w(4, i1=1): 5})
    X = Z.space
    # route 1: the conormal chase
    assert h1_row(Z, h0_row(Z)).dims == [0, 1, 0, 87, 0]
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
    assert r0.dims == [1, 0, 0, 1]
    assert r1.dims == [0, 1, h12, 0]
    assert assemble(Z).euler_characteristic() == chi


def test_omega_filtration_matches_gradation():
    X = parse_homspace("G2/P1")
    fb = omega_filtration(X)
    assert [dict(g) for g in fb.gradeds] == [
        {(-3, 1): 1}, {(-1, 0): 1}, {(-2, 1): 1}
    ]


def undetermined(rep):
    """The unknowns of a chase's sequences whose cell it left open."""
    names = {c for seq in rep.sequences for c in seq if isinstance(c, str)}
    return sorted(n for n in names if rep.cells[n][0] != rep.cells[n][1])


def test_chase_reports_expose_the_audit_trail():
    Z = mk("G2/P2", {(0, 3): 1})
    rep = h1_chase_report(Z, h0_row(Z))
    assert rep.cells["x3"] == (258, 258)
    assert rep.known == {"x0": 0, "x4": 0, "chi_a": 272, "chi_b": 13}
    assert all(lo == hi for lo, hi in rep.cells.values())
    assert rep.sequences[0][-6:] == [0, 0, "x3", 272, 14, "x4"]
    assert len(rep.sequences) == 1 and undetermined(rep) == []
    rep = h22_chase_report(Z, *rows(Z))
    assert rep.sequences == [] and undetermined(rep) == []
    assert rep.known == {"x0": 0, "x1": 0, "x3": 0, "x4": 0,
                         "chi_O": 2, "chi_Omega1": -259}
    assert rep.cells == {"chi": (1080, 1080), "h22": (1080, 1080)}


def test_h1_chase_bounds_beauville_donagi(monkeypatch):
    # Beauville-Donagi: F^*|_Z is only bounded, and the chase still computes
    # Omega_X|_Z and returns bounds that hold the K3^[2] row 21, 0, 21
    Z = mk("A5/P2", {(3, 0, 0, 0, 0): 1})
    row0 = h0_row(Z)
    restricted = []

    def counted(Z, E):
        restricted.append(E)
        return restricted_cohomology(Z, E)

    monkeypatch.setattr("bwbforge.hodge.restricted_cohomology", counted)
    rep = h1_chase_report(Z, row0)
    assert restricted == [Z.bundle.dual(), omega_filtration(Z.space)]
    assert rep.known == {"x0": 0, "x4": 0, "chi_a": 75, "chi_b": 33}
    assert rep.cells == {"x0": (0, 0), "x1": (21, 57), "a2": (20, 56), "x2": (0, 36),
                         "a3": (0, 36), "x3": (20, 21), "x4": (0, 0)}
    row1 = h1_row(Z, row0)
    assert row1.status == "ambiguous" and row1.chi == -42
    assert row1.dims == [0, None, None, None, 0]
    assert row1.bounds == {1: (21, 57), 2: (0, 36), 3: (20, 21)}


def test_h1_chase_seeds_a_bounded_row0_by_its_intervals():
    # a row 0 bounded at h^{0,1} seeds x_0 with that interval; exactness
    # between H^0(Omega_X|_Z) = 0 and H^1(F^*|_Z) = 0 then closes it
    Z = mk("G2/P2", {(0, 3): 1})
    row0 = zrow(4, [1, 0, 0, 0, 1], {1: (0, 1)})
    rep = h1_chase_report(Z, row0)
    assert rep.known == {"x4": 0, "chi_a": 272, "chi_b": 13}
    assert rep.cells["x0"] == (0, 0) and all(lo == hi for lo, hi in rep.cells.values())
    assert h1_row(Z, row0).dims == [0, 1, 0, 258, 0]


def test_the_row_refusals_live_in_hodge():
    # hodge defines and raises the empty-locus and ambiguity refusals, and
    # keeps the one table of empty loci; koszul only solves; check_p_dominant
    # is the one refusal of a weight that is no bundle, and cli checks none
    refusals = {"EmptyLocusError", "AmbiguousCohomologyError"}
    defined, raised, koszul_functions, names, cli_calls = {}, {}, set(), {}, set()
    for path in sorted(pathlib.Path(hodge.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name in refusals:
                defined.setdefault(node.name, set()).add(path.name)
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = getattr(exc, "id", None) or getattr(exc, "attr", None)
                if name in refusals:
                    raised.setdefault(name, set()).add(path.name)
            elif isinstance(node, ast.FunctionDef) and path.name == "koszul.py":
                koszul_functions.add(node.name)
            elif isinstance(node, ast.Call) and path.name == "cli.py":
                cli_calls.add(getattr(node.func, "id", None) or getattr(node.func, "attr", None))
            if isinstance(node, ast.ClassDef):
                names.setdefault(node.name, set()).add(path.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in getattr(node, "targets", [getattr(node, "target", None)]):
                    names.setdefault(getattr(target, "id", None), set()).add(path.name)
    assert defined == raised == {name: {"hodge.py"} for name in refusals}
    assert not koszul_functions & {"structure_cohomology", "has_trivial_summand"}
    assert names["NOWHERE_VANISHING"] == {"hodge.py"}
    assert not {"ExceptionEntry", "EXCEPTION_LIST", "NotPDominantError"} & set(names)
    assert "vanishes nowhere" not in (pathlib.Path(hodge.__file__).parent / "classify.py").read_text()
    assert "is_context_dominant" not in cli_calls


def test_each_record_keeps_its_intervals_once_in_cells():
    # a certified number is a point interval of ``cells``, a bounded one its
    # bounds: no record keeps a second form, and nothing converts between them
    assert ZCohomology._fields == ("cells", "chi")
    assert hodge.ChaseReport._fields == ("sequences", "known", "cells")
    assert HodgeDiamond._fields == ("d", "cells", "flags", "blocked")
    functions, methods, handlers = set(), set(), set()
    for path in sorted(pathlib.Path(hodge.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                functions.add(node.name)
            elif isinstance(node, ast.ClassDef):
                methods |= {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                if "AmbiguousCohomologyError" in ast.dump(node.type):
                    handlers.add(path.name)
    assert "intervals" not in functions and "set" not in methods
    # h22_chase_report raises the ambiguity refusal, and assemble alone catches it
    assert handlers == {"hodge.py"}


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
        chi_o = sum((-1) ** q * v for q, v in enumerate(r0.dims))
        chi_1 = sum((-1) ** q * v for q, v in enumerate(r1.dims))
        assert 22 * chi_o - 4 * chi_1 - 2 * r0.dims[2] + 2 * r1.dims[2] == ungated


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
    assert r0.dims == [1, 0, 0, 0, 1]
    value = second_wedge.h22(Z, r0, r1)
    assert h22_chase_report(Z, r0, r1).cells["h22"] == (value, value) == (h22_expected,) * 2
    h11, h21, h31 = r1.dims[1], r1.dims[2], r1.dims[3]
    assert value == 2 * (22 + 2 * h11 + 2 * h31 - h21)


def test_the_euler_row_of_omega_z_closes_the_conormal_chase():
    # B4/P4 O(3)^2 + w1: exactness and the Euler rows of F^*|_Z and
    # Omega_X|_Z leave h^{1,1} in [1, 3]; chi(Omega^1_Z) = chi_b - chi_a = -386
    # pins it to 2, and the rows then pin h^{2,2}
    X = parse_homspace("B4/P4")
    Z = ZeroLocus(X, parse_bundle(X, "O(3)^2 + w1"))
    row0 = h0_row(Z)
    row1 = h1_row(Z, row0)
    assert row0.dims == [2, 0, 0, 0, 2]
    assert (row1.dims, row1.status, row1.chi) == ([0, 2, 0, 384, 0], "exact", -386)
    dia = assemble(Z, row0, row1)
    assert dia.complete() and dia.get(2, 2) == 1632


# the 26 rows of classify --d 4 --family all --max-rank 6 that the Euler row of
# Omega_Z certifies; the five with h^{0,*} = 0 are empty loci
EULER_ROW_CERTIFIED = [
    ("B4/P3", "w4 + w44 + w1"),
    ("B4/P4", "O(3)^2 + w1"),
    ("B4/P4", "O(2) + O(4) + w1"),
    ("B4/P4", "O(1) + O(5) + w1"),
    ("B5/P4", "w5(1) + w1^3"),
    ("B5/P4", "O(1) + O(2) + w1^3"),
    ("B5/P5", "O(1)^4 + O(2)^2 + w1"),
    ("B5/P5", "O(1)^5 + O(3) + w1"),
    ("B5/P5", "O(6) + w1^2"),
    ("B6/P4", "O(1) + O(2) + w1^5"),
    ("B6/P5", "w6^2 + O(1)^2 + w1^3"),
    ("B6/P5", "O(3) + w1^4"),
    ("B6/P6", "O(1)^2 + O(2)^3 + w1^2"),
    ("B6/P6", "O(1)^3 + O(2) + O(3) + w1^2"),
    ("B6/P6", "O(1)^4 + O(4) + w1^2"),
    ("C4/P2", "w3 + O(1)^3"),
    ("C4/P2", "w3 + O(2) + w1"),
    ("C4/P2", "w3 + w11"),
    ("C5/P2", "w3 + O(1) + w1^2"),
    ("D5/P3", "w5 + w55 + w1^2"),
    ("D5/P3", "w55 + w4 + w1^2"),
    ("D5/P3", "w5 + w44 + w1^2"),
    ("D5/P3", "w4 + w44 + w1^2"),
    ("D6/P4", "w6(1) + w1^4"),
    ("D6/P4", "w5(1) + w1^4"),
    ("D6/P4", "O(1) + O(2) + w1^4"),
]


@pytest.mark.parametrize("space,bundle", EULER_ROW_CERTIFIED)
def test_h22_of_the_orbit_meet_is_the_second_wedge_value(space, bundle):
    X = parse_homspace(space)
    Z = ZeroLocus(X, parse_bundle(X, bundle))
    row0 = h0_row(Z)
    row1 = h1_row(Z, row0)
    dia = assemble(Z, row0, row1)
    assert dia.complete() and dia.flags[(2, 2)] == "euler-characteristic"
    assert dia.get(2, 2) == second_wedge.h22(Z, row0, row1)


def test_a_certified_h12_pins_h22_past_a_bounded_h11():
    # B5/P5 O(1) + w1 + w1(1): h^{1,1} and h^{1,3} stay bounds, but h^{2,2}
    # reads only h^{0,2} and h^{1,2}; the second wedge agrees
    X = parse_homspace("B5/P5")
    Z = ZeroLocus(X, parse_bundle(X, "O(1) + w1 + w1(1)"))
    row0 = h0_row(Z)
    row1 = h1_row(Z, row0)
    assert row1.dims[2] == 0 and row1.bounds == {1: (1, 3), 3: (203, 205)}
    rep = h22_chase_report(Z, row0, row1)
    assert rep.cells == {"chi": (912, 912), "h22": (912, 912)}
    assert second_wedge.h22(Z, row0, row1) == 912
    dia = assemble(Z, row0, row1)
    assert dia.get(2, 2) == 912 and dia.flags[(2, 2)] == "euler-characteristic"
    assert dia.get(1, 1) is None and dia.blocked == {}


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
    assert (values["h22"],) * 2 == h22_chase_report(Z, r0, r1).cells["h22"] == (h22_expected,) * 2
    cells = KERNEL_CELLS.get(space, {})
    assert {name: values[name] for name in cells} == cells


@pytest.mark.parametrize("space,weights,reason", KERNEL_CHASE_STUCK,
                         ids=["E6/P3-w6^4+O(1)", "E6/P3-w6^3+w1^3", "F4/P4-O(1)^4+w1"])
def test_kernel_chase_stalls_on_a_bounded_bundle(space, weights, reason):
    Z = mk(space, weights)
    r0 = h0_row(Z)
    with pytest.raises(AmbiguousCohomologyError, match=re.escape(reason)):
        second_wedge.kernel_chase(Z, r0, h1_row(Z, r0))
