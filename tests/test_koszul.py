import ast
import pathlib
from itertools import product
from math import comb
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwbforge import cache, koszul
from bwbforge import repcalc as rc
from bwbforge.bwbcohom import bundle_cohomology, bwb
from bwbforge.cli import main, parse_bundle
from bwbforge.hodge import EmptyLocusError, h0_row, omega_filtration
from bwbforge.homspace import dimension, fano_index, gradation, parse_homspace
from bwbforge.koszul import (
    BundleSum,
    FilteredBundle,
    PackedPage,
    ZeroLocus,
    _spectral_solve,
    e1_page,
    restricted_cohomology,
    wedge_dual_chars,
)
from bwbforge.rootdata import rho, to_dominant_chamber

from char_helpers import (
    char_dim,
    char_of_decomp,
    decomp_dim,
    decompose,
    koszul_dual_pages_oracle,
    page_form,
    running_product_pages_oracle,
    tensor_cohomology,
    wedge_decomps,
)
from second_wedge import (
    fstar_tensor_omega,
    graded_module_char,
    omega_square,
    symmetric_square_bundle,
)


def mk(space, weights):
    X = parse_homspace(space)
    return ZeroLocus(X, BundleSum.make(X, weights))


def w(rank, **kw):
    v = [0] * rank
    for key, val in kw.items():
        v[int(key[1:]) - 1] = val
    return tuple(v)


def wedge_decomp(Z, p):
    """Lambda^p F^* decomposed into irreducibles, as ``bwbforge ext`` prints it."""
    return koszul.wedge_decomp(Z.bundle, p)


def test_bundle_sum_validation():
    X = parse_homspace("G2/P2")
    B = BundleSum.make(X, {(0, 3): 1, (1, 1): 2})
    assert B.rank == 5 and B.dex == 3 + 2 * 3
    with pytest.raises(ValueError):
        BundleSum.make(X, {(-1, 2): 1})  # negative Levi coordinate
    with pytest.raises(ValueError):
        BundleSum.make(X, {(0, 1): 0})


def test_zero_locus_dimensions():
    Z = mk("F4/P4", {(1, 0, 0, 0): 1, (0, 0, 0, 1): 4})
    assert Z.d == 4 and Z.is_canonical_trivial()
    with pytest.raises(ValueError):
        mk("G2/P1", {(0, 6): 1})  # rank 7 exceeds dim 5


def test_trivial_summand_rejected():
    Z = mk("G2/P2", {(0, 0): 1, (0, 3): 1})
    with pytest.raises(EmptyLocusError):
        h0_row(Z)


def test_wedge_powers_f4p4_displays():
    # F = E_{w1} + O(1)^4 over F4/P4: the displayed decompositions
    Z = mk("F4/P4", {(1, 0, 0, 0): 1, (0, 0, 0, 1): 4})
    assert wedge_decomp(Z, 2) == {(0, 1, 0, -4): 1, (1, 0, 0, -3): 4, (0, 0, 0, -2): 6}
    assert wedge_decomp(Z, 3) == {
        (0, 0, 2, -6): 1, (0, 1, 0, -5): 4, (1, 0, 0, -4): 6, (0, 0, 0, -3): 4
    }
    assert wedge_decomp(Z, 10) == {(0, 0, 0, -10): 4, (1, 0, 0, -11): 1}
    assert wedge_decomp(Z, 11) == {(0, 0, 0, -11): 1}


def test_wedge_top_is_line_with_minus_dex():
    for space, weights in [
        ("A5/P2", {(3, 0, 0, 0, 0): 1}),
        ("E6/P3", {w(6, i6=1): 4, w(6, i3=1): 1}),
        ("G2/P1", {(2, 0): 1, (3, 0): 1}),
    ]:
        Z = mk(space, weights)
        top = wedge_decomp(Z, Z.bundle.rank)
        (lam, mult), = top.items()
        assert mult == 1
        assert lam[Z.space.k - 1] == -Z.bundle.dex
        assert all(c == 0 for i, c in enumerate(lam) if i != Z.space.k - 1)


def test_line_bundle_determinant():
    Z = mk("E6/P1", {w(6, i1=1): 12})
    top = wedge_decomp(Z, 12)
    assert top == {w(6, i1=-12): 1}


def test_wedge_ranks_binomial_convolution():
    Z = mk("E6/P2", {w(6, i1=1): 2, w(6, i2=1): 5})
    X = Z.space
    total = 0
    for p in range(Z.bundle.rank + 1):
        rank_p = decomp_dim(X.levi, wedge_decomp(Z, p))
        expect = sum(
            comb(6, a) * comb(6, b) * comb(5, p - a - b)
            for a in range(0, min(6, p) + 1)
            for b in range(0, min(6, p - a) + 1)
            if 0 <= p - a - b <= 5
        )
        assert rank_p == expect
        total += (-1) ** p * rank_p
    assert total == 0  # the Koszul complex telescopes


# The weight table for F = E_{w6}^4 + O(1) over E6/P3: every wedge power of
# F^* for p = 1..10, as coordinate vectors in the fundamental-weight basis.
E6P3_TABLE = {
    1: "(0,0,-1,0,0,0) (0,1,-1,0,0,0)",
    2: "(0,0,-2,1,0,0) (0,1,-2,0,0,0) (0,2,-2,0,0,0)",
    3: "(0,0,-3,1,0,0) (0,0,-2,0,1,0) (0,1,-3,1,0,0) (0,2,-3,0,0,0) (0,3,-3,0,0,0)",
    4: "(0,0,-4,2,0,0) (0,0,-3,0,1,0) (0,0,-2,0,0,1) (0,1,-4,1,0,0) (0,1,-3,0,1,0) "
       "(0,2,-4,1,0,0) (0,3,-4,0,0,0) (0,4,-4,0,0,0)",
    5: "(0,0,-5,2,0,0) (0,0,-4,1,1,0) (0,0,-3,0,0,1) (0,0,-2,0,0,0) (0,1,-5,2,0,0) "
       "(0,1,-4,0,1,0) (0,1,-3,0,0,1) (0,2,-5,1,0,0) (0,2,-4,0,1,0) (0,3,-5,1,0,0) "
       "(0,4,-5,0,0,0)",
    6: "(0,0,-6,3,0,0) (0,0,-5,1,1,0) (0,0,-4,0,2,0) (0,0,-4,1,0,1) (0,0,-3,0,0,0) "
       "(0,1,-6,2,0,0) (0,1,-5,1,1,0) (0,1,-4,0,0,1) (0,1,-3,0,0,0) (0,2,-6,2,0,0) "
       "(0,2,-5,0,1,0) (0,2,-4,0,0,1) (0,3,-6,1,0,0) (0,3,-5,0,1,0)",
    7: "(0,0,-7,3,0,0) (0,0,-6,2,1,0) (0,0,-5,0,2,0) (0,0,-5,1,0,1) (0,0,-4,0,1,1) "
       "(0,0,-4,1,0,0) (0,1,-7,3,0,0) (0,1,-6,1,1,0) (0,1,-5,0,2,0) (0,1,-5,1,0,1) "
       "(0,1,-4,0,0,0) (0,2,-7,2,0,0) (0,2,-6,1,1,0) (0,2,-5,0,0,1) (0,2,-4,0,0,0) "
       "(0,3,-6,0,1,0) (0,3,-5,0,0,1)",
    8: "(0,0,-8,4,0,0) (0,0,-7,2,1,0) (0,0,-6,1,2,0) (0,0,-6,2,0,1) (0,0,-5,0,1,1) "
       "(0,0,-5,1,0,0) (0,0,-4,0,0,2) (0,0,-4,0,1,0) (0,1,-8,3,0,0) (0,1,-7,2,1,0) "
       "(0,1,-6,0,2,0) (0,1,-6,1,0,1) (0,1,-5,0,1,1) (0,1,-5,1,0,0) (0,2,-7,1,1,0) "
       "(0,2,-6,0,2,0) (0,2,-6,1,0,1) (0,2,-5,0,0,0) (0,3,-6,0,0,1) (0,3,-5,0,0,0)",
    9: "(0,0,-9,4,0,0) (0,0,-8,3,1,0) (0,0,-7,1,2,0) (0,0,-7,2,0,1) (0,0,-6,0,3,0) "
       "(0,0,-6,1,1,1) (0,0,-6,2,0,0) (0,0,-5,0,0,2) (0,0,-5,0,1,0) (0,0,-4,0,0,1) "
       "(0,1,-8,2,1,0) (0,1,-7,1,2,0) (0,1,-7,2,0,1) (0,1,-6,0,1,1) (0,1,-6,1,0,0) "
       "(0,1,-5,0,0,2) (0,1,-5,0,1,0) (0,2,-7,0,2,0) (0,2,-7,1,0,1) (0,2,-6,0,1,1) "
       "(0,2,-6,1,0,0) (0,3,-6,0,0,0)",
    10: "(0,0,-9,3,1,0) (0,0,-8,2,2,0) (0,0,-8,3,0,1) (0,0,-7,0,3,0) (0,0,-7,1,1,1) "
        "(0,0,-7,2,0,0) (0,0,-6,0,2,1) (0,0,-6,1,0,2) (0,0,-6,1,1,0) (0,0,-5,0,0,1) "
        "(0,0,-4,0,0,0) (0,1,-8,1,2,0) (0,1,-8,2,0,1) (0,1,-7,0,3,0) (0,1,-7,1,1,1) "
        "(0,1,-7,2,0,0) (0,1,-6,0,0,2) (0,1,-6,0,1,0) (0,1,-5,0,0,1) (0,2,-7,0,1,1) "
        "(0,2,-7,1,0,0) (0,2,-6,0,0,2) (0,2,-6,0,1,0)",
}


def _parse_weights(text):
    out = set()
    for token in text.split():
        out.add(tuple(int(c) for c in token.strip("()").split(",")))
    return out


def test_e6p3_wedge_weight_table():
    Z = mk("E6/P3", {w(6, i6=1): 4, w(6, i3=1): 1})
    for p, text in E6P3_TABLE.items():
        assert set(wedge_decomp(Z, p)) == _parse_weights(text), f"p = {p}"
    # and the p = 3 multiplicities
    assert wedge_decomp(Z, 3) == {
        (0, 0, -3, 1, 0, 0): 10,
        (0, 0, -2, 0, 1, 0): 20,
        (0, 1, -3, 1, 0, 0): 20,
        (0, 2, -3, 0, 0, 0): 6,
        (0, 3, -3, 0, 0, 0): 4,
    }
    assert wedge_decomp(Z, 21) == {w(6, i3=-9): 1}


def test_structure_cohomology_anchors():
    assert h0_row(mk("F4/P4", {(1, 0, 0, 0): 1, (0, 0, 0, 1): 4})).dims == [1, 0, 0, 0, 1]
    assert h0_row(mk("A5/P2", {(3, 0, 0, 0, 0): 1})).dims == [1, 0, 1, 0, 1]
    assert h0_row(mk("E6/P3", {w(6, i6=1): 4, w(6, i3=1): 1})).dims == [1, 0, 0, 0, 1]


@pytest.mark.parametrize(
    "space,weights",
    [
        ("E6/P1", {w(6, i1=1): 12}),
        ("F4/P4", {w(4, i4=1): 11}),
        ("G2/P1", {(5, 0): 1}),
        ("G2/P2", {(0, 3): 1}),
    ],
)
def test_ample_line_bundle_fourfolds(space, weights):
    # direct sums of ample line bundles: h^0 = h^d = 1, middle zero
    Z = mk(space, weights)
    assert Z.d == 4 and Z.is_canonical_trivial()
    t = h0_row(Z)
    assert t.status == "exact" and t.dims == [1, 0, 0, 0, 1]


def test_adjunction_forces_top_cohomology():
    # when dex F = iota the Koszul tail is K_X, so h^d(O_Z) >= 1
    Z = mk("E6/P2", {w(6, i1=1): 2, w(6, i2=1): 5})
    assert Z.bundle.dex == fano_index(Z.space)
    t = h0_row(Z)
    assert t.dims[Z.d] >= 1


def test_restricted_cohomology_anchors():
    Z = mk("G2/P2", {(0, 3): 1})
    X = Z.space
    r = restricted_cohomology(Z, BundleSum.make(X, {(0, -3): 1}))
    assert r.status == "exact" and r.dims == [0, 0, 0, 0, 272]
    r = restricted_cohomology(Z, BundleSum.make(X, {(0, -6): 1}))
    assert r.dims == [0, 0, 0, 0, 3269]
    om = FilteredBundle.from_decomps(gradation(X).as_filtration())
    r = restricted_cohomology(Z, om)
    assert r.dims == [0, 1, 0, 0, 14]
    r = restricted_cohomology(Z, om.twist(X, -3))
    assert r.dims == [0, 0, 0, 0, 2281]


def test_restriction_of_trivial_matches_structure():
    Z = mk("G2/P1", {(5, 0): 1})
    t = restricted_cohomology(Z, BundleSum.make(Z.space, {(0, 0): 1}))
    s = h0_row(Z)
    assert t.dims == s.dims and t.status == s.status


def test_honest_ambiguity_is_reported():
    # restriction of E_{(-2,2)} to a plane conic: the answer genuinely
    # depends on the section, and the bookkeeping must say so
    Z = mk("A2/P1", {(1, 0): 1})
    r = restricted_cohomology(Z, BundleSum.make(Z.space, {(-2, 2): 1}))
    assert r.status == "ambiguous"
    assert r.dims == [None, None]
    assert r.bounds == {0: (0, 3), 1: (0, 3)}


def test_wedge_chars_match_decomposition_dims():
    Z = mk("E6/P3", {w(6, i1=1): 3, w(6, i6=1): 3})
    chars = wedge_dual_chars(Z)
    for p in range(len(chars)):
        assert char_dim(chars[p]) == decomp_dim(Z.space.levi, wedge_decomp(Z, p))


# -- oracle: the E1 page by convolution and decomposition ---------------------


def _graded_chars(Z, E):
    """Characters of the graded pieces of E, subbundle end first."""
    X = Z.space
    if E is None:
        return [{rc.pack((0,) * X.rs.rank): 1}]
    if isinstance(E, BundleSum):
        return [E.char()]
    return [char_of_decomp(X.levi, dict(g)) for g in E.gradeds]


def _oracle_entries(Z, E):
    """E1 entries (p, j, q): convolve Lambda^p F^* with gr_j E, decompose, apply BWB."""
    X = Z.space
    entries = {}
    for p, wedge in enumerate(wedge_dual_chars(Z)):
        for j, gchar in enumerate(_graded_chars(Z, E)):
            dec = decompose(X.levi, rc.conv(wedge, gchar, X.rs.rank))
            for q, v in bundle_cohomology(X, dec).dims().items():
                if v:
                    entries[(p, j, q)] = entries.get((p, j, q), 0) + v
    return entries


def _per_weight_entries(Z, E):
    """E1 entries (p, j, q) by the per-weight route: one Bott lookup per weight.

    Every weight nu of Lambda^p F^*, shifted by mu + rho for each
    irreducible E_mu of gr_j E, is climbed into the W_L-chamber (sign by
    the parity of the word) and then into the W-chamber, and contributes
    its signed dim V_G in the degree of the second climb; nothing is summed
    per Levi irreducible first.
    """
    X = Z.space
    rs = X.rs
    bott = {}
    entries = {}
    if E is None:
        E = BundleSum.make(X, {(0,) * rs.rank: 1})
    for j, graded in enumerate(E.gradeds):
        for mu, mult in graded:
            shifted = tuple(a + b for a, b in zip(mu, rho(rs)))
            for p, wedge in enumerate(wedge_dual_chars(Z)):
                for v, m in wedge.items():
                    x = tuple(a + b for a, b in zip(shifted, rc.unpack(v, rs.rank)))
                    if x not in bott:
                        bott[x] = None
                        levi = to_dominant_chamber(rs, x, X.levi.levi)
                        full = None if levi.singular else to_dominant_chamber(rs, levi.dominant)
                        if full is not None and not full.singular:
                            hw = tuple(c - 1 for c in full.dominant)
                            sign = -1 if levi.length % 2 else 1
                            bott[x] = full.length, sign * rc.weyl_dim(X.group, hw)
                    if bott[x] is not None:
                        q, dim = bott[x]
                        entries[(p, j, q)] = entries.get((p, j, q), 0) + mult * m * dim
    return {k: v for k, v in entries.items() if v}


def _oracle_restricted(Z, E):
    return _spectral_solve(_oracle_entries(Z, E), Z.d)


def _newton_girard_table(char, kmax, rank, exterior):
    """Lambda^k (or S^k) for k <= kmax from the power sums psi^m by Newton-Girard."""
    psi = [None]
    for m in range(1, kmax + 1):
        scaled = {}
        for v, mult in char.items():
            key = rc.pack(tuple(m * c for c in rc.unpack(v, rank)))
            scaled[key] = scaled.get(key, 0) + mult
        psi.append(scaled)
    table = [{rc.pack((0,) * rank): 1}]
    for k in range(1, kmax + 1):
        acc = {}
        for m in range(1, k + 1):
            sgn = -1 if exterior and m % 2 == 0 else 1
            for v, mult in rc.conv(table[k - m], psi[m], rank).items():
                acc[v] = acc.get(v, 0) + sgn * mult
        assert all(mult % k == 0 for mult in acc.values())
        table.append({v: mult // k for v, mult in acc.items() if mult})
    return table


def _newton_girard_wedges(Z):
    """Lambda^p F^*: Newton-Girard table per summand of F^*, then convolved."""
    X = Z.space
    rank = X.rs.rank
    acc = [{rc.pack((0,) * rank): 1}]
    for lam, mult in Z.bundle.dual().summands:
        piece = {v: m * mult for v, m in rc.char_irr(X.levi, lam).items()}
        tab = _newton_girard_table(piece, rc.weyl_dim(X.levi, lam) * mult, rank, True)
        new = []
        for p in range(len(acc) + len(tab) - 1):
            term = {}
            for a in range(max(0, p - len(tab) + 1), min(p, len(acc) - 1) + 1):
                for v, m in rc.conv(acc[a], tab[p - a], rank).items():
                    term[v] = term.get(v, 0) + m
            new.append(term)
        acc = new
    return acc


def _chi_alternating(Z, E):
    """chi(Z, E|_Z) by pure alternating sums over the Koszul terms."""
    return sum((-1) ** (q - p) * v for (p, _, q), v in _oracle_entries(Z, E).items())


@pytest.mark.parametrize(
    "space,weights",
    [
        ("G2/P2", {(0, 3): 1}),
        ("G2/P1", {(5, 0): 1}),
        ("F4/P4", {(1, 0, 0, 0): 1, (0, 0, 0, 1): 4}),
        ("E6/P2", {w(6, i1=1): 2, w(6, i2=1): 5}),
    ],
)
def test_solver_matches_euler_characteristic(space, weights):
    # the degree bookkeeping must reproduce the differential-free
    # alternating sums for every restricted bundle it certifies exact
    Z = mk(space, weights)
    targets = [
        None,
        Z.bundle.dual(),
        FilteredBundle.from_decomps(gradation(Z.space).as_filtration()),
    ]
    for E in targets:
        zc = restricted_cohomology(Z, E)
        assert zc.status == "exact"
        chi = sum((-1) ** q * zc.dims[q] for q in range(Z.d + 1))
        assert chi == _chi_alternating(Z, E)


# Table 1 and Table 2 loci except E7/P1 (its Newton-Girard tables take seconds)
TABLE_LOCI = [
    ("E6/P1", {w(6, i1=1): 12}),
    ("E6/P2", {w(6, i1=1): 2, w(6, i2=1): 5}),
    ("E6/P2", {w(6, i1=1): 1, w(6, i6=1): 1, w(6, i2=1): 5}),
    ("E6/P2", {w(6, i6=1): 2, w(6, i2=1): 5}),
    ("E6/P3", {w(6, i1=1): 3, w(6, i6=1): 3}),
    ("E6/P3", {w(6, i6=1): 4, w(6, i3=1): 1}),
    ("E6/P3", {w(6, i1=1): 1, w(6, i6=1): 4}),
    ("F4/P1", {w(4, i4=1): 1, w(4, i1=1): 5}),
    ("F4/P4", {w(4, i4=1): 11}),
    ("F4/P4", {(1, 0, 0, 0): 1, w(4, i4=1): 4}),
    ("G2/P1", {(5, 0): 1}),
    ("G2/P2", {(0, 3): 1}),
    ("G2/P1", {(1, 0): 1, (4, 0): 1}),
    ("G2/P1", {(2, 0): 1, (3, 0): 1}),
    ("G2/P1", {(1, 1): 1}),
    ("G2/P2", {(0, 1): 1, (0, 2): 1}),
    ("G2/P2", {(1, 1): 1}),
]


@pytest.mark.parametrize("space,weights", TABLE_LOCI)
def test_wedge_product_matches_newton_girard(space, weights):
    Z = mk(space, weights)
    assert wedge_dual_chars(Z) == _newton_girard_wedges(Z)


# every Table locus, plus one more locus of odd and one of even rank f, and
# an F of lines only, whose running product multiplies one-weight pages
DUALITY_LOCI = TABLE_LOCI + [
    ("G2/P1", {(1, 0): 1, (0, 1): 1}),
    ("G2/P2", {(0, 1): 2, (1, 0): 1}),
    ("G2/P2", {(0, 1): 3}),
]


@pytest.mark.parametrize("space,weights", DUALITY_LOCI)
def test_wedge_duality_matches_full_exterior_table(space, weights):
    # degrees above f // 2 come from Koszul duality: they must equal the full
    # per-weight product and, decomposed, a decomposition per degree
    Z = mk(space, weights)
    f = Z.bundle.rank
    full = rc.exterior_char_table(Z.bundle.dual().char(), f, Z.space.rs.rank)
    assert wedge_dual_chars(Z) == full
    assert wedge_decomps(Z) == [decompose(Z.space.levi, ch) for ch in full]


# the Table loci, the E7/P1 fourfold, and BD (A5/P2) and DV (A9/P6) of the
# classical half, whose Levi duals move fields
KOSZUL_DUAL_LOCI = TABLE_LOCI + [
    ("E7/P1", {w(7, i7=1): 2, w(7, i1=1): 5}),
    ("A5/P2", {(3, 0, 0, 0, 0): 1}),
    ("A9/P6", {w(9, i3=1): 1}),
]


def _fields(page):
    """The fields of a ``PackedPage``, its pairs as a map: their order is the order of a merge."""
    return [{s: (n, s0) for s, n, s0 in page.pairs} if name == "pairs" else getattr(page, name)
            for name in PackedPage.__slots__]


@pytest.mark.parametrize("space,weights", KOSZUL_DUAL_LOCI)
def test_packed_koszul_duality_matches_the_tuple_oracle(space, weights):
    # the top half of the pages of the module summands, packed key to packed key, field by field
    F = mk(space, weights).bundle
    pages = koszul.read_plan(F).pages
    f = len(pages) - 1
    top, want = pages[f // 2 + 1 :], koszul_dual_pages_oracle(F)
    assert len(top) == len(want) == f - f // 2
    for got, page in zip(top, want):
        assert _fields(got) == _fields(page)


# loci whose lines carry several twists: E6/P2 w6 + O(1)^3 + O(2) + w1,
# E6/P1 O(1)^10 + O(2) and G2/P1 O(1) + O(3) + O(2)^2
TWISTED_LINE_LOCI = [
    ("E6/P2", {w(6, i6=1): 1, w(6, i2=1): 3, w(6, i2=2): 1, w(6, i1=1): 1}),
    ("E6/P1", {w(6, i1=1): 10, w(6, i1=2): 1}),
    ("G2/P1", {(1, 0): 1, (3, 0): 1, (2, 0): 2}),
]


@pytest.mark.parametrize("space,weights", KOSZUL_DUAL_LOCI + TWISTED_LINE_LOCI)
def test_assembled_pages_match_the_running_product_with_lines_as_factors(space, weights):
    # the read plan summed over its line terms against the running product that
    # multiplies each line type in as one factor, every degree
    Z = mk(space, weights)
    want = [page.decomp(Z.space) for page in running_product_pages_oracle(Z)]
    assert len(want) == Z.bundle.rank + 1
    assert [koszul.wedge_decomp(Z.bundle, p) for p in range(len(want))] == want


@pytest.mark.parametrize("space,weights", TWISTED_LINE_LOCI + [TABLE_LOCI[1], TABLE_LOCI[0]])
def test_line_terms_are_the_line_polynomial(space, weights):
    # prod (1 + x y^-t)^m over the lines O(t)^m of F, expanded one factor at a time
    Z = mk(space, weights)
    X = Z.space
    want = {(0, 0): 1}
    for lam, m in Z.bundle.summands:
        if rc.weyl_dim(X.levi, lam) == 1:
            for _ in range(m):
                step = dict(want)
                for (c, T), n in want.items():
                    step[c + 1, T - lam[X.k - 1]] = step.get((c + 1, T - lam[X.k - 1]), 0) + n
                want = step
    terms = koszul.read_plan(Z.bundle).terms
    assert {(c, T): n for c, T, n in terms} == want and len(terms) == len(want)
    if space == "G2/P1":
        # O(-1) O(-3) and O(-2)^2 meet in one term
        assert (2, -4, 2) in terms


def test_no_product_step_multiplies_a_factor_of_lines(monkeypatch):
    # lines enter the E1 read as twists: every right factor of a product step is a module's
    graded_product, rights = koszul._graded_product, []

    def product(X, left, right, kmax):
        rights.append(all(page.lines for page in right))
        return graded_product(X, left, right, kmax)

    monkeypatch.setattr(cache, "_dir", None)
    monkeypatch.setattr(koszul, "_graded_product", product)
    cache.clear()
    for space, weights in TABLE_LOCI + TWISTED_LINE_LOCI + DUALITY_LOCI[-3:]:
        Z = mk(space, weights)
        koszul.read_plan(Z.bundle)
        e1_page(Z, None)
    assert rights and not any(rights)


def test_page_build_never_calls_dual_highest_weight(monkeypatch):
    # Koszul duality maps packed keys by repcalc.dual_kernel; the tuple
    # dual_highest_weight is the tests' oracle in char_helpers, and no engine
    # module names it
    src = pathlib.Path(koszul.__file__).parent
    named = [path.name for path in sorted(src.glob("*.py")) if "dual_highest_weight" in path.read_text()]
    assert named == [], f"{named} name dual_highest_weight"
    assert not hasattr(rc, "dual_highest_weight")
    monkeypatch.setattr(cache, "_dir", None)
    cache.clear()
    # A9/P4: -w_0 of the Levi A3 x A5 swaps nodes 1 and 3, 5 and 9, 6 and 8
    Z = mk("A9/P4", {w(9, i7=1): 1})
    assert len(koszul.read_plan(Z.bundle).pages) == Z.bundle.rank + 1 == 21


@pytest.mark.parametrize("space,weights", TABLE_LOCI)
def test_char_tables_match_newton_girard(space, weights):
    # Lambda^k and S^k, k <= 3, of F^* and of every cotangent piece g_{-l}
    Z = mk(space, weights)
    X = Z.space
    rank = X.rs.rank
    chars = [Z.bundle.dual().char()]
    chars += [graded_module_char(X, ell) for ell in gradation(X).levels]
    for char in chars:
        wedges, syms = (_newton_girard_table(char, 3, rank, ext) for ext in (True, False))
        assert rc.exterior_char_table(char, 3, rank) == wedges
        assert rc.symmetric_char_table(char, 3, rank) == syms


def _convolved_builders(Z):
    """S^2 F^*, F^* (x) Omega and Lambda^2 Omega by Newton-Girard, conv and decompose."""
    X = Z.space
    rank = X.rs.rank
    levi = X.levi
    fchar = Z.bundle.dual().char()
    grad = gradation(X)
    chars = {ell: graded_module_char(X, ell) for ell in grad.levels}
    sym = _newton_girard_table(fchar, 2, rank, False)[2]
    sym = BundleSum.make(X, decompose(levi, sym))
    tens = FilteredBundle.from_decomps(
        [decompose(levi, rc.conv(fchar, chars[ell], rank)) for ell in grad.levels]
    )
    square = []
    for total in range(2 * grad.depth, 1, -1):
        acc = {}
        for i in grad.levels:
            j = total - i
            if j < i or j not in chars:
                continue
            if i == j:
                piece = _newton_girard_table(chars[i], 2, rank, True)[2]
            else:
                piece = rc.conv(chars[i], chars[j], rank)
            for v, m in piece.items():
                acc[v] = acc.get(v, 0) + m
        if acc:
            square.append(decompose(levi, acc))
    return sym, tens, FilteredBundle.from_decomps(square)


@pytest.mark.parametrize("space,weights", TABLE_LOCI)
def test_hodge_builders_match_convolution_oracle(space, weights):
    Z = mk(space, weights)
    got = (symmetric_square_bundle(Z), fstar_tensor_omega(Z), omega_square(Z))
    assert got == _convolved_builders(Z)


def test_char_table_overflow_is_refused():
    # S^2 of a weight with coordinate 20000 leaves the field, Lambda^2 of it does not
    char = rc.char_from_weights({(0, 20000): 1})
    assert rc.exterior_char_table(char, 2, 2)[2] == {}
    with pytest.raises(rc.WeightRangeError):
        rc.symmetric_char_table(char, 2, 2)


# the G2 and F4 loci of both tables, and one E6 locus
ORACLE_LOCI = [(s, ws) for s, ws in TABLE_LOCI if s[0] in "FG"] + [
    ("E6/P1", {w(6, i1=1): 12})
]


@pytest.mark.parametrize("space,weights", ORACLE_LOCI)
def test_brauer_klimyk_page_matches_convolution_oracle(space, weights):
    Z = mk(space, weights)
    X = Z.space
    targets = [
        None,
        Z.bundle.dual(),
        omega_filtration(X).twist(X, 1),
        symmetric_square_bundle(Z),
        fstar_tensor_omega(Z),
        omega_square(Z),
    ]
    for E in targets:
        assert e1_page(Z, E) == _oracle_entries(Z, E)


@pytest.mark.parametrize("space,weights", TABLE_LOCI + TWISTED_LINE_LOCI)
def test_e1_page_matches_per_weight_route(space, weights):
    # summing per Levi irreducible before Borel-Weil-Bott changes no entry
    Z = mk(space, weights)
    X = Z.space
    for E in (None, Z.bundle.dual(), omega_filtration(X).twist(X, 1)):
        assert e1_page(Z, E) == _per_weight_entries(Z, E)


@pytest.mark.parametrize("space,weights", TABLE_LOCI)
def test_e1_page_reads_levi_tensor_rows_other_loci_filled(space, weights):
    # a row of V_L(lambda) (x) V_L(mu0) is read by every locus, twist and page of
    # the space with that Levi part of lambda, whichever of them filled it
    Z = mk(space, weights)
    X = Z.space
    omega = omega_filtration(X)
    cache.clear()
    for other in TABLE_LOCI:
        if other[0] == space and other[1] != weights:
            e1_page(mk(*other), omega.twist(X, 1))
    e1_page(Z, omega.twist(X, -1))
    # a page of lines reads no row: a space whose loci are all lines fills none
    modules = any(not page.lines for other in TABLE_LOCI if other[0] == space
                  for page in koszul.read_plan(mk(*other).bundle).pages)
    assert bool(cache.table("levi_tensor", X.levi)) == modules
    E = omega.twist(X, 1)
    assert e1_page(Z, E) == _per_weight_entries(Z, E)


SWEEP_LOCI = [(s, ws) for s, ws in TABLE_LOCI if s[0] in "FG"]
# one- or two-summand sums: Levi part 0, w_a or w_a + w_b, then a twist
RANDOM_PARTS = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(-4, 4)),
    min_size=1,
    max_size=2,
)


def _random_sum(Z, parts):
    """The bundle sum drawn as ``RANDOM_PARTS``, w_a and w_b the first and last Levi nodes."""
    X = Z.space
    levi = X.levi.levi
    summands = {}
    for a, b, t in parts:
        lam = [0] * X.rs.rank
        lam[levi[0] - 1] += a
        lam[levi[-1] - 1] += b
        lam[X.k - 1] += t
        summands[tuple(lam)] = summands.get(tuple(lam), 0) + 1
    return BundleSum.make(X, summands)


@settings(max_examples=30, deadline=None)
@given(locus=st.sampled_from(SWEEP_LOCI), parts=RANDOM_PARTS)
def test_random_sums_match_convolution_oracle(locus, parts):
    Z = mk(*locus)
    E = _random_sum(Z, parts)
    got, want = restricted_cohomology(Z, E), _oracle_restricted(Z, E)
    assert (got.dims, got.status, got.bounds) == (want.dims, want.status, want.bounds)


@pytest.mark.parametrize("t", [-40000, 33000, -32767])
def test_packed_weight_overflow_is_refused(t):
    # O(-32767) fits a field, but Lambda^1 F^* = O(-3) pushes the sum past it
    Z = mk("G2/P2", {(0, 3): 1})
    with pytest.raises(rc.WeightRangeError):
        restricted_cohomology(Z, BundleSum.make(Z.space, {(0, t): 1}))


def test_largest_packable_twist_is_computed():
    # O(-32765) + rho + (0,-3) = -32767 still fits, on this path and the oracle's
    Z = mk("G2/P2", {(0, 3): 1})
    E = BundleSum.make(Z.space, {(0, -32765): 1})
    assert restricted_cohomology(Z, E).dims == _oracle_restricted(Z, E).dims


@pytest.mark.parametrize(
    "t,want",
    [
        # the carry bound sends x itself to the climb table at t = -32730, not at -32710
        (-32730, {(0, 0, 5): 13080981719586183381979, (1, 0, 5): 26171966304438169910310,
                  (2, 0, 5): 13090986298174827973931}),
        (-32710, {(0, 0, 5): 13041024553244300324796, (1, 0, 5): 26092027521301454640004,
                  (2, 0, 5): 13051004678238205850248}),
        (-32765, "refused"),
    ],
)
def test_e1_page_at_the_bottom_of_the_field(t, want):
    # G2/P1, F = E_{w2}(1), E = E_{20 w2}(t): the answers and refusal of the unkeyed table
    Z = mk("G2/P1", {(1, 1): 1})
    E = BundleSum.make(Z.space, {(t, 20): 1})
    try:
        got = e1_page(Z, E)
    except rc.WeightRangeError:
        got = "refused"
    assert got == want


def test_climb_table_size_does_not_depend_on_the_twists():
    # keyed by the twist-free part, the table fills with one twist; more add nothing
    Z = mk("F4/P4", {(1, 0, 0, 0): 1, (0, 0, 0, 1): 4})
    X = Z.space

    def entries(twists):
        cache.clear()
        for t in twists:
            restricted_cohomology(Z, BundleSum.make(X, {X.twist((0, 0, 1, 0), t): 1}))
        return len(cache.table("climb", X.levi))

    assert entries([0]) == entries([5]) == entries(range(-6, 7))


def test_wedge_overflow_is_refused():
    Z = mk("G2/P2", {(0, 20000): 1, (0, 20001): 1})
    with pytest.raises(rc.WeightRangeError):
        wedge_dual_chars(Z)


def test_restricted_cohomology_refuses_the_wedge_overflow():
    # the line summands are twisted in unpacked, so the refusal comes from
    # the range check of the shifts: Lambda^2 F^* = O(-40001)
    Z = mk("G2/P2", {(0, 20000): 1, (0, 20001): 1})
    with pytest.raises(rc.WeightRangeError):
        restricted_cohomology(Z, None)


def _pages_leave_the_field(Z, mu):
    """Whether a constituent of Lambda^* F^* times V_L(mu0) in O(t) leaves the field, each alone:
    page a of Lambda^a F'^* in the read plan twisted by each term O(T) of the lines, its lo..hi,
    the extremes of V_L(mu0) (of the weight mu0 on a page of lines), its twist, T and t."""
    X, plan = Z.space, koszul.read_plan(Z.bundle)
    t, mu0 = mu[X.k - 1], X.twist(mu, -mu[X.k - 1])
    module = rc.char_extremes(rc.char_irr(X.levi, mu0), X.rs.rank)
    for page in plan.pages:
        lo, hi = (mu0, mu0) if page.lines else module
        for _, T, _ in plan.terms:
            line = X.line(t + page.twist + T)
            try:
                rc.check_packable(list(map(add, map(add, page.lo, lo), line)),
                                  list(map(add, map(add, page.hi, hi), line)))
            except rc.WeightRangeError:
                return True
    return False


@settings(max_examples=40, deadline=None)
@given(locus=st.sampled_from(SWEEP_LOCI), parts=st.tuples(st.integers(0, 1), st.integers(0, 1)),
       t=st.one_of(st.integers(-2**15 - 40, -2**15 + 40), st.integers(2**15 - 40, 2**15 + 40)))
def test_e1_page_at_the_edges_of_the_field_refuses_exactly_past_a_page(locus, parts, t):
    # one range check over the hull of the pages refuses exactly when one page alone would
    Z = mk(*locus)
    E = _random_sum(Z, [(*parts, t)])
    (mu, _), = E.summands
    try:
        got = e1_page(Z, E)
    except rc.WeightRangeError:
        got = "refused"
    want = "refused" if _pages_leave_the_field(Z, mu) else _per_weight_entries(Z, E)
    assert got == want


@pytest.mark.parametrize("space,F,E", [
    ("G2/P2", "w11 + O(1)", "w11(32766)"), ("G2/P2", "w11 + O(1)", "w111(32765)"),
    ("G2/P1", "w2 + O(1)", "w2(32765)"), ("G2/P1", "w2 + O(1)", "w2(32766)"),
])
def test_a_line_constituent_is_read_against_the_weight_mu0(space, F, E):
    # Lambda^1 F^* holds the module F'^* and the line O(-1): the line is read against
    # mu0 alone, which fits where V_L(mu0) would leave the field
    X = parse_homspace(space)
    Z, E = ZeroLocus(X, parse_bundle(X, F)), parse_bundle(X, E)
    (mu, _), = E.summands
    assert not _pages_leave_the_field(Z, mu)
    assert e1_page(Z, E) == _per_weight_entries(Z, E)


@settings(max_examples=40, deadline=None)
@given(a=st.integers(1, 40000),
       gap=st.one_of(st.integers(1, 3), st.integers(65520, 65550)))
def test_wedge_powers_of_two_lines_past_the_edge_are_answered(a, gap):
    # the lines of F are twists of the trivial page, kept out of the fields: Lambda^* of
    # O(-a) + O(-b) is answered however far apart a and b lie
    b = a + gap
    X = parse_homspace("G2/P2")
    Z = mk("G2/P2", {(0, a): 1, (0, b): 1})
    cache.clear()
    got = [koszul.wedge_decomp(Z.bundle, p) for p in range(3)]
    assert got == [{(0, 0): 1}, {(0, -a): 1, (0, -b): 1}, {X.line(-a - b): 1}]


def test_one_range_check_per_module_not_per_page(monkeypatch):
    # e1_page checks each irreducible piece of E at most twice (once for its pages of
    # modules; a page of lines reads no Levi row), and a product step each irreducible
    # of its right factor once
    checks = []
    climb_keys = rc.LeviTensor.climb_keys

    def counted(self, lo, hi):
        checks.append((lo, hi))
        return climb_keys(self, lo, hi)

    assert not hasattr(PackedPage, "times") and not hasattr(rc.LeviTensor, "products")
    monkeypatch.setattr(cache, "_dir", None)
    monkeypatch.setattr(rc.LeviTensor, "climb_keys", counted)
    graded_product = koszul._graded_product
    steps = []

    def product(X, left, right, kmax):
        before, top = len(checks), min(len(left) + len(right) - 2, kmax)
        out = graded_product(X, left, right, kmax)
        irreducibles = sum(len(page.pairs) for page in right[: min(len(right) - 1, top) + 1])
        steps.append((len(checks) - before, irreducibles))
        return out

    monkeypatch.setattr(koszul, "_graded_product", product)
    cache.clear()
    Z = mk("E6/P3", {w(6, i6=1): 4, w(6, i3=1): 1})
    koszul.read_plan(Z.bundle)
    # three steps multiply the four copies of w6; the line O(1) is no step
    assert len(steps) == 3 and all(0 < n <= right for n, right in steps)
    E = omega_filtration(Z.space).twist(Z.space, 1)
    del checks[:]
    e1_page(Z, E)
    count = len(checks)
    assert 0 < count <= 2 * sum(len(g) for g in E.gradeds)
    # more line terms, as many checks
    more = mk("E6/P3", {w(6, i6=1): 4, w(6, i3=1): 1, w(6, i3=2): 1})
    assert len(koszul.read_plan(more.bundle).terms) > len(koszul.read_plan(Z.bundle).terms)
    del checks[:]
    e1_page(more, E)
    assert len(checks) == count


# -- wedge decompositions built from the summands of F ----------------------------

SUM_SPACES = (
    [f"G2/P{k}" for k in (1, 2)]
    + [f"F4/P{k}" for k in range(1, 5)]
    + [f"E6/P{k}" for k in range(1, 7)]
    + [f"{family}{r}/P{k}" for family, ranks in (("A", range(2, 6)), ("B", range(2, 6)),
                                                  ("C", range(3, 6)), ("D", range(4, 6)))
       for r in ranks for k in range(1, r + 1)]
)


@st.composite
def bundle_sums(draw, max_rank=20, max_summand=8):
    """A sum of lines and twisted Levi modules w_i, 2 w_i or w_i + w_j, repeated.

    Among them are modules whose wedges have multiplicities, such as the
    adjoint module of an A2 Levi factor.
    """
    X = parse_homspace(draw(st.sampled_from(SUM_SPACES)))
    room = min(max_rank, dimension(X))
    pool = [X.line(1), X.line(2)]
    for i, j in product(X.levi.levi, repeat=2):
        if i <= j:
            lam = tuple(int(n == i) + int(n == j) for n in range(1, X.rs.rank + 1))
            if rc.weyl_dim(X.levi, lam) <= min(max_summand, room):
                pool += [lam, X.twist(lam, 1)]
    weights = {}
    for lam, m in draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 4)),
                                min_size=1, max_size=3)):
        m = min(m, room // rc.weyl_dim(X.levi, lam))
        if m:
            weights[lam] = weights.get(lam, 0) + m
            room -= m * rc.weyl_dim(X.levi, lam)
    return ZeroLocus(X, BundleSum.make(X, weights))


@settings(max_examples=60, deadline=None)
@given(Z=st.one_of(
    st.sampled_from([mk("E6/P3", {w(6, i6=1): 4}), mk("E6/P3", {w(6, i6=1): 3, w(6, i1=1): 3}),
                     mk("E6/P3", {w(6, i6=1): 4, w(6, i3=1): 1}),
                     # twice the adjoint module of an A2 factor, whose wedges have multiplicities
                     mk("E6/P4", {w(6, i5=1, i6=1): 2, w(6, i4=1): 1})]),
    bundle_sums(),
))
def test_wedge_decomps_from_summands_equal_the_full_table(Z):
    # Lambda(A + B) = Lambda(A) (x) Lambda(B): the running product over the
    # summands equals the decomposition of the whole per-weight product
    full = rc.exterior_char_table(Z.bundle.dual().char(), Z.bundle.rank, Z.space.rs.rank)
    assert wedge_decomps(Z) == [decompose(Z.space.levi, ch) for ch in full]


def test_b9_p8_wedge_decomps_have_binomial_dimensions():
    # rank 48: the per-weight product of the whole F^* runs out of memory
    # before degree 24, the product over its summands does not
    X = parse_homspace("B9/P8")
    Z = ZeroLocus(X, BundleSum.make(X, {w(9, i9=1): 3, X.line(1): 2, w(9, i1=1): 5}))
    decomps = wedge_decomps(Z)
    assert Z.bundle.rank == 48 and len(decomps) == 49
    for p, decomp in enumerate(decomps):
        assert decomp_dim(X.levi, decomp) == comb(48, p)
    assert decomps[48] == {X.line(-Z.bundle.dex): 1}


# -- the two factor orders of the E1 kernel --------------------------------------


def _levi_side(Z, mu, p):
    """Degree p of the engine's E1 page of E_mu: V_L(mu0) times the packed Lambda^p F^*, twisted by t."""
    page = e1_page(Z, BundleSum.make(Z.space, {mu: 1}))
    return {q: n for (d, _, q), n in page.items() if d == p}


def _wedge_side(Z, mu, p):
    """Weights of Lambda^p F^* shifted by mu."""
    X = Z.space
    wedge = wedge_dual_chars(Z)[p]
    page = PackedPage(X, page_form(X, {mu: 1}))
    return tensor_cohomology(X, page, 0, wedge, rc.char_extremes(wedge, X.rs.rank))


@settings(max_examples=40, deadline=None)
@given(locus=st.sampled_from(TABLE_LOCI), data=st.data())
def test_both_factor_orders_give_the_same_dimensions(locus, data):
    # Brauer-Klimyk is symmetric in its factors, whichever one e1_page picks
    Z = mk(*locus)
    X = Z.space
    lam = [0] * X.rs.rank
    for i in data.draw(st.lists(st.sampled_from(X.levi.levi), max_size=2)):
        lam[i - 1] += 1
    lam[X.k - 1] = data.draw(st.integers(-6, 4))
    mu = tuple(lam)
    p = data.draw(st.integers(0, Z.bundle.rank))
    assert _levi_side(Z, mu, p) == _wedge_side(Z, mu, p)


@pytest.mark.parametrize("t", [-40000, 33000, -32767])
def test_levi_side_overflow_is_refused(t):
    # the twist enters the shifts there, and the same range check catches it
    Z = mk("G2/P2", {(0, 3): 1})
    with pytest.raises(rc.WeightRangeError):
        _levi_side(Z, (0, t), 1)


def test_largest_packable_twist_on_the_levi_side():
    Z = mk("G2/P2", {(0, 3): 1})
    for p in (0, 1):
        assert _levi_side(Z, (0, -32765), p) == _wedge_side(Z, (0, -32765), p)


@pytest.mark.parametrize("t", [32766, -32765])
def test_a_line_page_reads_only_the_highest_weight(t, capsys):
    # every page of Z(G2/P2, O(3)) is a line, so E = w1(t) enters as its highest
    # weight alone, and the E1 page is the tuple Bott of E and E(-3); the full
    # character of V_L(w1) would carry w1(32766) past the packed field
    Z = mk("G2/P2", {(0, 3): 1})
    X, E = Z.space, (1, t)
    want = {(p, 0, q): n for p in (0, 1) for q, n in bwb(X, X.twist(E, -3 * p)).dims().items()}
    assert e1_page(Z, BundleSum.make(X, {E: 1})) == want
    if t == 32766:
        assert main(["cohomology", "G2/P2", "O(3)", "--restrict", "w1(32766)"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "H^0(Z, E|_Z) = 5187196876432588864"


# -- invariants of restricted cohomology -----------------------------------------



def _interval(zc, q):
    return (zc.dims[q], zc.dims[q]) if zc.dims[q] is not None else zc.bounds[q]


@settings(max_examples=25, deadline=None)
@given(locus=st.sampled_from(TABLE_LOCI), parts=RANDOM_PARTS)
def test_restricted_serre_duality_and_euler_characteristic(locus, parts):
    # K_Z is trivial on every Table locus, so H^q(Z, E|_Z) = H^{d-q}(Z, E^*|_Z)^*:
    # equal dimensions when both are exact, mirrored intervals otherwise
    Z = mk(*locus)
    E = _random_sum(Z, parts)
    got, dual = restricted_cohomology(Z, E), restricted_cohomology(Z, E.dual())
    d = Z.d
    assert [_interval(got, q) for q in range(d + 1)] == [
        _interval(dual, d - q) for q in range(d + 1)
    ]
    if got.status == "exact":
        chi = sum((-1) ** q * v for q, v in enumerate(got.dims))
        assert chi == sum((-1) ** (q - p) * v for (p, _, q), v in e1_page(Z, E).items())


@pytest.mark.parametrize("E,dual,h0", [
    ("O(1000)", "O(-1000)", 7000014000002),
    ("w3(5000)", "w3(-5003)", 35042019604200340),
])
def test_serre_duality_holds_for_e1_entries_past_any_fixed_rank_cap(E, dual, h0):
    # the E1 entries pass 10^30 here: each differential rank is bounded by the
    # entries at its ends, so both sides of Serre duality answer, mirrored
    X = parse_homspace("F4/P4")
    Z = ZeroLocus(X, parse_bundle(X, "w1 + O(1)^4"))
    E = parse_bundle(X, E)
    assert Z.is_canonical_trivial() and E.dual() == parse_bundle(X, dual)
    assert max(e1_page(Z, E).values()) > 10**30
    got, mirror = restricted_cohomology(Z, E), restricted_cohomology(Z, E.dual())
    assert got.status == mirror.status == "exact"
    assert got.dims == mirror.dims[::-1] == [h0, 0, 0, 0, 0]


# -- the spectral solve against every differential rank its constraints allow ----


def test_spectral_solve_certifies_more_with_an_entry_more():
    # adding E1 entries can make a result more exact: an entry in the illegal
    # degree n = -1 forces its differential, and that pins the rest
    loose = _spectral_solve({(1, 0, 1): 1, (0, 0, 1): 1}, 2)
    assert loose.status == "ambiguous"
    assert loose.dims == [None, None, 0] and loose.bounds == {0: (0, 1), 1: (0, 1)}
    tight = _spectral_solve({(1, 0, 1): 1, (0, 0, 1): 1, (2, 0, 1): 1}, 2)
    assert tight.status == "exact" and tight.dims == [0, 1, 0]


def _may_differ(a, b) -> bool:
    """Some differential may run from entry a to entry b: n rises by one, (p, j) falls."""
    return b[2] - b[0] == a[2] - a[0] + 1 and (b[0], b[1]) < (a[0], a[1])


def _all_survivors(entries, d):
    """Survivor vectors (degrees 0..d) over every integer assignment of the y_n.

    Per connected component of the possible-differential graph, y_n >= 0 is
    the total rank from degree n to n + 1, zero unless some differential may
    run there, with y_{n-1} + y_n = E(n) at illegal degrees and <= E(n) at
    legal ones: the constraints ``_spectral_solve`` propagates intervals over.
    Both force y_n <= min(E(n), E(n + 1)), which bounds the enumeration.
    """
    keys = [k for k, v in entries.items() if v]
    unseen, comps = set(keys), []
    while unseen:
        stack = [unseen.pop()]
        comp = list(stack)
        while stack:
            cur = stack.pop()
            near = {k for k in unseen if _may_differ(cur, k) or _may_differ(k, cur)}
            unseen -= near
            stack.extend(near)
            comp.extend(near)
        comps.append(comp)
    totals = {(0,) * (d + 1)}
    for comp in comps:
        E = {}
        for key in comp:
            n = key[2] - key[0]
            E[n] = E.get(n, 0) + entries[key]
        linked = sorted({a[2] - a[0] for a in comp for b in comp if _may_differ(a, b)})
        options = set()
        for ranks in product(*(range(min(E[n], E[n + 1]) + 1) for n in linked)):
            y = dict(zip(linked, ranks))
            spent = {n: y.get(n - 1, 0) + y.get(n, 0) for n in E}
            if all(
                spent[n] <= e if 0 <= n <= d else spent[n] == e for n, e in E.items()
            ):
                options.add(tuple(E.get(n, 0) - spent.get(n, 0) for n in range(d + 1)))
        totals = {tuple(map(add, t, o)) for t in totals for o in options}
    return totals


# most random pages are refused (an illegal entry cannot cancel); about a
# third get certified values or bounds to check
PAGES = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 4)),
    st.integers(1, 3),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(d=st.integers(1, 4), entries=PAGES)
def test_spectral_solve_against_every_allowed_rank_assignment(d, entries):
    values = _all_survivors(entries, d)
    try:
        got = _spectral_solve(entries, d)
    except AssertionError:
        # refused only when no assignment meets the constraints
        assert not values
        return
    for n in range(d + 1):
        seen = {v[n] for v in values}
        if got.dims[n] is not None:
            assert seen <= {got.dims[n]}
        else:
            lo, hi = got.bounds[n]
            assert all(lo <= v <= hi for v in seen)
