import ast
import pkgutil
import random
import sys

import pytest

import bwbforge
from bwbforge import bwbcohom
from bwbforge import cache as _cache
from bwbforge import repcalc as rc
from bwbforge.bwbcohom import bundle_cohomology, bwb
from bwbforge.classify import exceptional_spaces, search_spaces
from bwbforge.hodge import h0_row, omega_filtration
from bwbforge.homspace import dimension, gradation, parse_homspace
from bwbforge.koszul import (
    BundleSum,
    FilteredBundle,
    PackedPage,
    ZeroLocus,
    e1_page,
    restricted_cohomology,
)
from bwbforge.rootdata import add, rho, to_dominant_chamber

from char_helpers import page_form, serre_dual_weight, tensor_cohomology

G2P1 = parse_homspace("G2/P1")
G2P2 = parse_homspace("G2/P2")


def omega(X):
    return FilteredBundle.from_decomps(gradation(X).as_filtration())


def on_x(X):
    """X as the zero locus of a rank-0 F: Z = X, and the Koszul page has only p = 0."""
    return ZeroLocus(X, BundleSum.make(X, {}))


def page_degrees(X, bundle):
    """RegInd: the degrees of the nonzero entries of the p = 0 page."""
    return {q for (p, _, q) in e1_page(on_x(X), bundle)}


def bott_index(X, lam):
    (q,) = bwb(X, lam).entries or (None,)
    return q


def test_bwbcohom_is_bwb_on_x_alone():
    # the Koszul route, its pages, restrictable bundles and E1 read, lives in
    # koszul; bwbcohom builds on the representation layers only, with no memo
    with open(bwbcohom.__file__) as f:
        tree = ast.parse(f.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
            imported |= {n.rpartition(".")[2] for n in names}
    modules = {m.name for m in pkgutil.iter_modules(bwbforge.__path__)}
    assert imported & modules == {"repcalc", "homspace", "rootdata"}
    assert PackedPage.__module__ == FilteredBundle.__module__ == "bwbforge.koszul"


def test_bwb_singular_gives_empty_table():
    gr26 = parse_homspace("A5/P2")
    t = bwb(gr26, (3, -6, 0, 0, 0))  # S^3 U(-3)
    assert not t.dims()


def test_bwb_structure_sheaf():
    for name in ("G2/P1", "E6/P2", "F4/P3"):
        X = parse_homspace(name)
        t = bwb(X, (0,) * X.rs.rank)
        assert t.dims() == {0: 1}


def test_bwb_degree_and_weight_anchor():
    t = bwb(G2P2, (0, -6))
    assert t.entries == {5: {(0, 3): 1}}
    assert t.dims() == {5: 273}
    assert bwb(G2P2, (0, -9)).dims() == {5: 3542}
    assert bwb(G2P1, (-10, 0)).dims() == {5: 378}


@pytest.mark.parametrize("name", ["G2/P2", "A5/P2", "F4/P4", "E6/P1"])
def test_bwb_matches_word_climb_beyond_packed_range(name):
    # bwb climbs plain tuples, so twists outside the 16-bit packed field still get answers
    X = parse_homspace(name)
    rng = random.Random(name)
    for t in (-40000, 33000, *(rng.randint(-50000, 50000) for _ in range(8))):
        lam = tuple(t if i == X.k - 1 else rng.randint(0, 3) for i in range(X.rs.rank))
        ref = to_dominant_chamber(X.rs, add(lam, rho(X.rs)))
        want = {} if ref.singular else {ref.length: {tuple(c - 1 for c in ref.dominant): 1}}
        assert bwb(X, lam).entries == want


def test_bwb_rejects_non_p_dominant():
    with pytest.raises(rc.NonDominantError):
        bwb(G2P2, (-1, 2))  # negative Levi coordinate


def test_bundle_cohomology_direct_sums():
    t = bundle_cohomology(parse_homspace("F4/P4"), {(0, 0, 0, -11): 1})
    assert t.dims() == {15: 1}
    # a trivial summand adds dim 1 at degree 0
    t = bundle_cohomology(G2P2, {(0, 0): 1, (0, -6): 1})
    assert t.dims() == {0: 1, 5: 273}
    # G2/P1: E_{w2}(-8) + O(-6) both land in degree 5 with dims {7, 14};
    # Serre duality pins the assignment: H^5(O(-6)) = H^0(O(1))^* = C^7
    t = bundle_cohomology(G2P1, {(-8, 1): 1, (-6, 0): 1})
    assert t.dims() == {5: 21}
    parts = sorted(
        m * rc.weyl_dim(G2P1.group, hw) for hw, m in t.entries[5].items()
    )
    assert parts == [7, 14]
    assert bwb(G2P1, (-6, 0)).dims() == {5: 7}
    assert bwb(G2P1, (-8, 1)).dims() == {5: 14}


def test_euler_characteristic_additive():
    a = bundle_cohomology(G2P2, {(0, -6): 1})
    b = bundle_cohomology(G2P2, {(3, -6): 1})
    c = bundle_cohomology(G2P2, {(0, -6): 1, (3, -6): 1})
    assert (
        c.euler_characteristic()
        == a.euler_characteristic() + b.euler_characteristic()
    )


@pytest.mark.parametrize("name", ["G2/P1", "G2/P2", "F4/P4", "E6/P3"])
def test_tensor_cohomology_with_trivial_module_is_bwb(name):
    # a one-weight page of the untwisted Levi part, twisted by t in the kernel
    X = parse_homspace(name)
    zero = (0,) * X.rs.rank
    trivial = {rc.pack(zero): 1}
    rng = random.Random(name)

    def cohomology(page, t):
        return tensor_cohomology(X, page, t, trivial, (zero, zero))

    for _ in range(12):
        lam = tuple(
            rng.randint(0, 2) if i != X.k - 1 else rng.randint(-12, 3)
            for i in range(X.rs.rank)
        )
        t = lam[X.k - 1]
        page = PackedPage(X, page_form(X, {X.twist(lam, -t): 1}))
        assert page.lines == (lam == X.line(t))
        assert cohomology(page, t) == bwb(X, lam).dims()
        # the same weight with its twist kept on the page
        twisted = PackedPage(X, page_form(X, {X.twist(lam, -t): 1}), t)
        assert twisted.decomp(X) == {lam: 1}
        assert cohomology(twisted, 0) == bwb(X, lam).dims()


def test_tensor_cohomology_refuses_non_characters():
    zero = (0, 0)
    page = PackedPage(G2P2, page_form(G2P2, {zero: 1}))
    with pytest.raises(AssertionError, match="not a character"):
        tensor_cohomology(G2P2, page, 0, {rc.pack(zero): -1}, (zero, zero))
    # P-dominance is checked once, when the page is packed
    with pytest.raises(rc.NonDominantError):
        PackedPage(G2P2, page_form(G2P2, {zero: 1, (-1, 0): 1}))


BOTT_SPACES = search_spaces("all", 11)
BOTT_GROUPS = sorted({X.rs for X in BOTT_SPACES}, key=str)
FIELD = 2**15


def bwb_entry(X, y):
    """(q, dim) of the rho-shifted weight y by ``bwb``, None on a wall."""
    table = bwb(X, tuple(c - r for c, r in zip(y, rho(X.rs))))
    return next(((q, m * rc.weyl_dim(X.group, hw)) for q, row in table.entries.items()
                 for hw, m in row.items()), None)


def climbed(ctx, y):
    """(q, dim) of an arbitrary rho-shifted weight y by climb and weyl_dim."""
    got = rc.climb(ctx, y)
    return None if got is None else (got[0], rc.weyl_dim(ctx, tuple(c - 1 for c in got[1])))


@pytest.mark.parametrize("X", BOTT_SPACES, ids=str)
def test_bott_kernel_matches_bwb(X):
    # rho-shifted L-dominant weights, twists at the edges of the packed field included
    bott, r, k = rc.bott_kernel(X.group), X.rs.rank, X.k - 1
    rng = random.Random(str(X))
    levi = [[rng.randint(1, 6) for _ in range(r)] for _ in range(12)]
    twists = [rng.randint(-40, 40) for _ in range(8)] + [FIELD - 1, 1 - FIELD, -FIELD, 0]
    weights = [tuple(t if i == k else c for i, c in enumerate(cs)) for cs, t in zip(levi, twists)]
    weights.append(tuple(1 - FIELD if i == k else FIELD - 1 for i in range(r)))
    for y in weights:
        assert bott(rc.pack(y)) == bwb_entry(X, y), y


def pairings(ctx, y):
    heights, columns, _ = rc.weyl_kernel(ctx)
    out = [0] * len(heights)
    for i, col in columns:
        out = [p + y[i] * c for p, c in zip(out, col)]
    return out


@pytest.mark.parametrize("rs", BOTT_GROUPS, ids=str)
def test_bott_kernel_zero_field_next_to_negative_fields(rs):
    # a zero pairing in the first and in the last 32-bit field, beside negative
    # ones, borrows across fields in the zero-field test; arbitrary weights too
    ctx = rc.full_context(rs)
    bott, columns = rc.bott_kernel(ctx), rc.weyl_kernel(ctx)[1]
    n = len(columns[0][1])
    rng = random.Random(str(rs))
    found = set()
    for trial in range(900):
        y = [rng.randint(-4, 4) for _ in range(rs.rank)]
        b = (0, n - 1, None)[trial % 3]
        if b is not None:  # <y, beta_b^v> = 0: scale y by k_j, then solve for y_j
            j, k = rng.choice([(i, col[b]) for i, col in columns if col[b]])
            y = [k * c for c in y]
            y[j] = 0
            y[j] = -sum(c * col[b] for c, (_, col) in zip(y, columns)) // k
        y = tuple(y)
        got = bott(rc.pack(y))
        assert got == climbed(ctx, y), y
        p = pairings(ctx, y)
        assert (got is None) == (0 in p)
        if n > 1 and p[0] == 0 and p[1] < 0:
            found.add("first")
        if n > 1 and p[-1] == 0 and p[-2] < 0:
            found.add("last")
    assert found == ({"first", "last"} if n > 1 else set())


@pytest.mark.parametrize("rs", BOTT_GROUPS, ids=str)
def test_bott_kernel_field_bound(rs, monkeypatch):
    # every root system to rank 11 passes the 32-bit field bound, and a
    # kernel whose bound fails refuses to build
    ctx = rc.full_context(rs)
    heights = rc.weyl_kernel(ctx)[0]
    assert FIELD * max(heights) < 2**31
    rc.bott_kernel(ctx)
    monkeypatch.setattr(rc, "weyl_kernel", lambda c: ((2**16,), ((0, (1,)),), 2**16))
    with pytest.raises(AssertionError, match="overflow"):
        rc.bott_kernel.__wrapped__(ctx)


def test_restricted_cohomology_never_climbs_the_full_group(monkeypatch):
    # the E1 page reads Borel-Weil-Bott off coroot pairings: no Weyl climb or
    # Weyl dimension of G on the E6/P3 Omega(1) query, the largest of the
    # benchmark session; with climb and weyl_dim in their place it answers the same
    for name in ("climb", "weyl_dim"):
        original = getattr(rc, name)

        def levi_only(ctx, *args, _original=original, _name=name):
            assert not ctx.is_full, f"{_name} on {ctx}"
            return _original(ctx, *args)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("bwbforge") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, levi_only)
    X = parse_homspace("E6/P3")
    Z = ZeroLocus(X, BundleSum.make(X, {(0, 0, 1, 0, 0, 0): 1, (0, 0, 0, 0, 0, 1): 4}))
    E = omega_filtration(X).twist(X, 1)
    _cache.clear()
    got = restricted_cohomology(Z, E)
    assert any(entry is None for entry in _cache.table("bwb", X).values())
    monkeypatch.undo()
    monkeypatch.setattr(rc, "bott_kernel", lambda ctx: lambda y: climbed(ctx, rc.unpack(y, ctx.rs.rank)))
    _cache.clear()
    assert restricted_cohomology(Z, E) == got
    _cache.clear()


def test_reg_ind_anchors():
    assert page_degrees(G2P2, omega(G2P2)) == {1}
    om1 = omega(G2P1)
    assert page_degrees(G2P1, om1.twist(G2P1, -5)) == {5}
    all_singular = FilteredBundle.from_decomps([{(3, -5): 1}, {(0, -1): 1}])
    assert bott_index(G2P2, (3, -5)) is bott_index(G2P2, (0, -1)) is None
    assert page_degrees(G2P2, all_singular) == set()
    # (-1, 2) is not P2-dominant, so it is no bundle on G2/P2
    # the refusal names the input weight, not its Levi part (-1, 0)
    with pytest.raises(rc.NonDominantError, match=r"\(-1, 2\) is not P2-dominant"):
        page_degrees(G2P2, FilteredBundle.from_decomps([{(3, -5): 1}, {(-1, 2): 1}]))


def test_reg_ind_twist_consistency():
    om = omega(G2P2)
    for t in range(-6, 1):
        twisted = om.twist(G2P2, t)
        direct = {bott_index(G2P2, lam) for g in twisted.gradeds for lam, _ in g} - {None}
        assert page_degrees(G2P2, twisted) == direct


def test_filtered_cohomology_anchors():
    # E(-5) on G2/P1: two-step filtration with both pieces in degree 5
    E = FilteredBundle.from_decomps([{(-8, 1): 1}, {(-6, 0): 1}])
    t = restricted_cohomology(on_x(G2P1), E)
    assert t.status == "exact" and t.dims == [0, 0, 0, 0, 0, 21]
    # Omega(-6) on G2/P2
    om6 = omega(G2P2).twist(G2P2, -6)
    t = restricted_cohomology(on_x(G2P2), om6)
    assert t.status == "exact" and t.dims == [0, 0, 0, 0, 0, 2295]
    parts = sorted(
        m * rc.weyl_dim(G2P2.group, hw)
        for g in om6.gradeds
        for hw, m in bundle_cohomology(G2P2, dict(g)).entries[5].items()
    )
    assert parts == [748, 1547]
    # Omega itself: only H^1 = C survives (RegInd vanishing)
    t = restricted_cohomology(on_x(G2P2), omega(G2P2))
    assert t.status == "exact" and t.dims == [0, 1, 0, 0, 0, 0]


@pytest.mark.parametrize("mult", [-1, 0])
def test_filtered_bundle_refuses_nonpositive_multiplicity(mult):
    # a multiplicity of -1 used to come back as H^0 of dimension -14, marked exact
    with pytest.raises(ValueError, match="positive"):
        FilteredBundle.from_decomps([{(0, 1): mult}])
    with pytest.raises(ValueError, match="positive"):
        FilteredBundle.from_decomps([{(0, 1): 1}, {(1, 0): 2, (0, 2): mult}])


def test_filtered_single_graded_matches_bundle_cohomology():
    dec = {(-8, 1): 1, (-6, 0): 2}
    a = restricted_cohomology(on_x(G2P1), FilteredBundle.from_decomps([dec]))
    b = bundle_cohomology(G2P1, dec)
    assert a.status == "exact" and dict(enumerate(a.dims)) == {q: b.degree_dim(q) for q in range(6)}
    # one shape on a Table locus: a sum reads as the equal one-piece filtered
    # bundle, and None as O
    for space, weights in (("G2/P2", {(0, 3): 1}), ("F4/P4", {(1, 0, 0, 0): 1, (0, 0, 0, 1): 4})):
        X = parse_homspace(space)
        Z = ZeroLocus(X, BundleSum.make(X, weights))
        E = Z.bundle.dual()
        page = e1_page(Z, E)
        assert page and page == e1_page(Z, FilteredBundle.from_decomps([E.as_dict()]))
        assert e1_page(Z, None) == e1_page(Z, BundleSum.make(X, {(0,) * X.rs.rank: 1}))


def test_filtered_exact_dims_add_over_gradeds():
    fb = omega(G2P1).twist(G2P1, -5)
    t = restricted_cohomology(on_x(G2P1), fb)
    assert t.status == "exact"
    per_graded = {}
    for g in fb.gradeds:
        for q, v in bundle_cohomology(G2P1, dict(g)).dims().items():
            per_graded[q] = per_graded.get(q, 0) + v
    assert per_graded == {q: v for q, v in enumerate(t.dims) if v}


def test_filtered_uncertified_reports_bounds():
    # stack two regular pieces one degree apart so the connecting map cannot
    # be excluded: sub in degree 2, quotient in 1
    lam_deg1, lam_deg2 = (-2, 1), (-5, 2)
    assert bott_index(G2P1, lam_deg1) == 1
    assert bott_index(G2P1, lam_deg2) == 2
    fb = FilteredBundle.from_decomps([{lam_deg2: 1}, {lam_deg1: 1}])
    t = restricted_cohomology(on_x(G2P1), fb)
    assert t.status == "ambiguous"
    assert t.bounds == {1: (0, 1), 2: (0, 1)}


def les_walk(X, bundle):
    """The long-exact-sequence walk from the deep end: (certified, per-degree sums).

    Exact when, at every step and degree q, the fresh graded has H^q = 0 or
    the accumulated bundle has H^{q+1} = 0, so no connecting map can be nonzero.
    """
    acc, certified = {}, True
    for graded in bundle.gradeds:
        piece = bundle_cohomology(X, dict(graded)).dims()
        certified = certified and all(acc.get(q + 1, 0) == 0 for q in piece)
        for q, v in piece.items():
            acc[q] = acc.get(q, 0) + v
    return certified, acc


@pytest.mark.parametrize(
    "name", ["G2/P1", "G2/P2", "A3/P2", "F4/P4", "B3/P1", "C3/P2", "A4/P2"]
)
def test_rank_zero_route_against_les_walk(name):
    X = parse_homspace(name)
    rng = random.Random(name)
    seen = set()
    for _ in range(300):
        fb = FilteredBundle.from_decomps([
            {
                tuple(
                    rng.randint(-10, 1) if i == X.k - 1 else rng.randint(0, 4)
                    for i in range(X.rs.rank)
                ): rng.randint(1, 2)
                for _ in range(rng.randint(1, 2))
            }
            for _ in range(rng.randint(1, 3))
        ])
        got = restricted_cohomology(on_x(X), fb)
        certified, sums = les_walk(X, fb)
        seen.add(certified)
        assert (got.status == "exact") == certified
        for q, v in enumerate(got.dims):
            # no degree of X is illegal, so nothing is forced to cancel
            assert (v if v is not None else got.bounds[q][1]) == sums.get(q, 0)
    assert seen == {True, False}


@pytest.mark.parametrize("X", exceptional_spaces(), ids=str)
def test_structure_cohomology_of_x_itself(X):
    assert h0_row(on_x(X)).dims == [1] + [0] * dimension(X)


@pytest.mark.parametrize("name", ["G2/P1", "G2/P2", "A3/P1", "F4/P4", "A5/P2"])
def test_serre_duality_mirror(name):
    X = parse_homspace(name)
    N = dimension(X)
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(12):
        lam = tuple(
            rng.randint(0, 3) if i != X.k - 1 else rng.randint(-8, 3)
            for i in range(X.rs.rank)
        )
        a = bwb(X, lam).dims()
        b = bwb(X, serre_dual_weight(X, lam)).dims()
        assert a == {N - q: v for q, v in b.items()}
