import pytest

from bwbforge import repcalc as rc
from bwbforge.homspace import (
    HomSpace,
    bundle_rank,
    dex,
    dimension,
    fano_index,
    gradation,
    minimal_embedding_dim,
    parse_homspace,
)
from bwbforge.rootdata import RootSystem

from char_helpers import char_dim, decomp_dim
from rational_oracles import dex_closed_form
from second_wedge import graded_module_char

# dimensions, Fano indices and minimal embeddings of the 25 exceptional
# spaces of Picard number one (E6/P5, E6/P6 fold onto E6/P3, E6/P1)
GEOMETRY = {
    "E6/P1": (16, 12, 26),
    "E6/P2": (21, 11, 77),
    "E6/P3": (25, 9, 350),
    "E6/P4": (29, 7, 2924),
    "E7/P1": (33, 17, 132),
    "E7/P2": (42, 14, 911),
    "E7/P3": (47, 11, 8644),
    "E7/P4": (53, 8, 365749),
    "E7/P5": (50, 10, 27663),
    "E7/P6": (42, 13, 1538),
    "E7/P7": (27, 18, 55),
    "E8/P1": (78, 23, 3874),
    "E8/P2": (92, 17, 147249),
    "E8/P3": (98, 13, 6695999),
    "E8/P4": (106, 9, 6899079263),
    "E8/P5": (104, 11, 146325269),
    "E8/P6": (97, 14, 2450239),
    "E8/P7": (83, 19, 30379),
    "E8/P8": (57, 29, 247),
    "F4/P1": (15, 8, 51),
    "F4/P2": (20, 5, 1273),
    "F4/P3": (20, 7, 272),
    "F4/P4": (15, 11, 25),
    "G2/P1": (5, 5, 6),
    "G2/P2": (5, 3, 13),
}


def w(rank, **kw):
    v = [0] * rank
    for key, val in kw.items():
        v[int(key[1:]) - 1] = val
    return tuple(v)


@pytest.mark.parametrize("name", sorted(GEOMETRY))
def test_geometry_oracle(name):
    X = parse_homspace(name)
    d, i, e = GEOMETRY[name]
    assert dimension(X) == d
    assert fano_index(X) == i
    assert minimal_embedding_dim(X) == e


def test_projective_line():
    X = parse_homspace("A1/P1")
    assert dimension(X) == 1 and fano_index(X) == 2
    assert minimal_embedding_dim(X) == 1


def test_dimension_counts_nilradical():
    from bwbforge.rootdata import positive_roots

    for name in ("E6/P2", "F4/P1", "G2/P2"):
        X = parse_homspace(name)
        levi_count = len(rc.context_positive_roots(X.levi))
        assert dimension(X) == len(positive_roots(X.rs)) - levi_count


DEX_TABLES = {
    # lambda -> (rank, dex), straight from the per-space search tables
    "E6/P4": {
        w(6, i1=1): (3, 1), w(6, i2=1): (2, 1), w(6, i3=1): (3, 2),
        w(6, i5=1): (3, 2), w(6, i6=1): (3, 1),
        w(6, i1=1, i2=1): (6, 5), w(6, i2=1, i3=1): (6, 7),
    },
    "E7/P2": {
        w(7, i1=1): (7, 4), w(7, i3=1): (21, 24), w(7, i4=1): (35, 60),
        w(7, i5=1): (35, 45), w(7, i6=1): (21, 18), w(7, i7=1): (7, 3),
        w(7, i1=2): (28, 32), w(7, i7=2): (28, 24),
    },
    "E6/P2": {
        w(6, i1=1): (6, 3), w(6, i3=1): (15, 15),
        w(6, i5=1): (15, 15), w(6, i6=1): (6, 3),
    },
    "E6/P3": {
        w(6, i1=1): (2, 1), w(6, i1=2): (3, 3), w(6, i1=3): (4, 6),
        w(6, i2=1): (5, 3), w(6, i5=1): (10, 8), w(6, i6=1): (5, 2),
    },
}


@pytest.mark.parametrize("name", sorted(DEX_TABLES))
def test_dex_tables(name):
    X = parse_homspace(name)
    for lam, (rank, dx) in DEX_TABLES[name].items():
        assert bundle_rank(X, lam) == rank
        assert dex(X, lam) == dx


def test_dex_extra_anchors():
    assert dex(parse_homspace("E7/P1"), w(7, i7=1)) == 6
    assert dex(parse_homspace("F4/P1"), (0, 0, 0, 1)) == 3
    assert dex(parse_homspace("F4/P4"), (1, 0, 0, 0)) == 7
    assert dex(parse_homspace("F4/P4"), (0, 0, 1, 0)) == 12


def test_line_bundle_dex_is_one():
    for name in ("E6/P1", "E7/P3", "F4/P2", "G2/P1"):
        X = parse_homspace(name)
        assert dex(X, X.line(1)) == 1
        assert bundle_rank(X, X.line(1)) == 1


def test_dex_tensor_ratio_identity():
    # dex(F1 (x) F2)/rk = dex(F1)/rk1 + dex(F2)/rk2 on E6/P4
    from fractions import Fraction

    X = parse_homspace("E6/P4")
    l1, l2 = w(6, i2=1), w(6, i3=1)
    prod = w(6, i2=1, i3=1)
    lhs = Fraction(dex(X, prod), bundle_rank(X, prod))
    rhs = Fraction(dex(X, l1), bundle_rank(X, l1)) + Fraction(
        dex(X, l2), bundle_rank(X, l2)
    )
    assert lhs == rhs


def test_gradation_g2():
    X1 = parse_homspace("G2/P1")
    g = gradation(X1)
    assert g.depth == 3 and g.levels == (3, 2, 1)
    assert [dict(p) for p in g.pieces] == [
        {(-3, 1): 1}, {(-1, 0): 1}, {(-2, 1): 1}
    ]
    X2 = parse_homspace("G2/P2")
    g = gradation(X2)
    assert g.depth == 2
    assert [dict(p) for p in g.pieces] == [{(0, -1): 1}, {(3, -2): 1}]


def test_gradation_projective_plane():
    X = parse_homspace("A2/P1")
    g = gradation(X)
    assert g.depth == 1
    piece = g.as_filtration()[0]
    assert decomp_dim(X.levi, piece) == 2


@pytest.mark.parametrize(
    "name", ["E6/P1", "E6/P3", "E7/P1", "F4/P1", "F4/P4", "G2/P1", "G2/P2"]
)
def test_gradation_dimension_and_index_bookkeeping(name):
    X = parse_homspace(name)
    g = gradation(X)
    total = 0
    dex_sum = 0
    for j, lev in enumerate(g.levels):
        dec = g.as_filtration()[j]
        piece_dim = decomp_dim(X.levi, dec)
        assert piece_dim == char_dim(graded_module_char(X, lev))
        # the graded module really is the sum of those irreducibles
        assert rc.decompose_character(X.levi, graded_module_char(X, lev)) == dec
        total += piece_dim
        dex_sum += sum(m * dex(X, lam) for lam, m in dec.items())
    assert total == dimension(X)
    # the cotangent pieces have total dex -iota
    assert dex_sum == -fano_index(X)


def test_dex_closed_form_examples():
    gr26 = parse_homspace("A5/P2")
    assert dex_closed_form(gr26, (3, 0, 0, 0, 0)) == 6  # det S^3 U* twist
    with pytest.raises(ValueError):
        dex_closed_form(parse_homspace("F4/P1"), (0, 0, 0, 1))


def test_dex_closed_form_agrees_with_weight_sums():
    # exhaustive small sweep over Grassmannian, symplectic and spinor cases
    spaces = []
    for r in range(1, 8):
        spaces += [HomSpace(RootSystem("A", r), k) for k in range(1, r + 1)]
    for r in range(2, 7):
        spaces += [HomSpace(RootSystem("C", r), k) for k in range(1, r + 1)]
    for r in range(3, 8):
        spaces += [HomSpace(RootSystem("D", r), r), HomSpace(RootSystem("D", r), r - 1)]
    checked = 0
    for X in spaces:
        r = X.rs.rank
        lams = [tuple(3 if j == i else 0 for j in range(r)) for i in range(r)]
        lams += [tuple(1 if j in (i, (i + 1) % r) else 0 for j in range(r)) for i in range(r)]
        for lam in lams:
            assert dex_closed_form(X, lam) == dex(X, lam), (X, lam)
            checked += 1
    assert checked > 150
