import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwbforge import cache
from bwbforge import repcalc as rc
from bwbforge.classify import exceptional_spaces
from bwbforge.rootdata import (
    RootSystem,
    add,
    parse_root_system,
    positive_roots,
    reflect,
    rho,
    root_to_weight,
    simple_root_weight,
    sub,
    to_dominant_chamber,
)

from rational_oracles import (
    inner_product,
    sum_of_weights_bruteforce,
    weight_to_root_coords,
)
from rational_oracles import weyl_dim as rational_weyl_dim


E6 = RootSystem("E", 6)
E7 = RootSystem("E", 7)
F4 = RootSystem("F", 4)
G2 = RootSystem("G", 2)


def w(rank, **kw):
    v = [0] * rank
    for key, val in kw.items():
        v[int(key[1:]) - 1] = val
    return tuple(v)


def test_weyl_dim_anchors():
    assert rc.weyl_dim(rc.full_context(G2), (0, 3)) == 273
    assert rc.weyl_dim(rc.full_context(G2), (0, 0)) == 1
    assert rc.weyl_dim(rc.full_context(E6), w(6, i1=1)) == 27
    assert rc.weyl_dim(rc.full_context(G2), (0, 1)) == 14
    assert rc.weyl_dim(rc.full_context(G2), (5, 0)) == 378
    assert rc.weyl_dim(rc.full_context(E7), w(7, i7=1)) == 56
    assert rc.weyl_dim(rc.full_context(RootSystem("E", 8)), w(8, i8=1)) == 248
    # minimal nontrivial modules that drive the E7/P7 and E8/P8 prunes
    assert rc.weyl_dim(rc.levi_context(E7, 7), w(7, i1=1)) == 27
    assert rc.weyl_dim(rc.levi_context(RootSystem("E", 8), 8), w(8, i7=1)) == 56


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(rc.NonDominantError):
        rc.weyl_dim(rc.full_context(G2), (-1, 0))


def test_rank_one_levi_string():
    ctx = rc.levi_context(G2, 2)  # A1 Levi on node 1
    mults = rc.weight_multiplicities(ctx, (1, 0))
    assert len(mults) == 2 and set(mults.values()) == {1}


def test_adjoint_multiplicities_brute_force():
    ctx = rc.full_context(G2)
    mults = rc.weight_multiplicities(ctx, (0, 1))
    # oracle: the adjoint character is the 12 roots plus rank many zeros
    expected = {}
    for beta in positive_roots(G2):
        for sign in (1, -1):
            wt = tuple(sign * c for c in root_to_weight(G2, beta))
            expected[wt] = expected.get(wt, 0) + 1
    expected[(0, 0)] = 2
    assert mults == expected
    assert mults[(0, 0)] == 2


def test_spin7_levi_standard_module():
    ctx = rc.levi_context(F4, 4)
    mults = rc.weight_multiplicities(ctx, (1, 0, 0, 0))
    assert len(mults) == 7 and sum(mults.values()) == 7


def test_freudenthal_total_dimension_sweep():
    cases = [
        (rc.full_context(F4), (0, 0, 0, 1)),
        (rc.full_context(G2), (1, 1)),
        (rc.levi_context(E6, 3), w(6, i6=1)),
        (rc.levi_context(E7, 1), w(7, i7=1)),
        (rc.levi_context(E6, 1), w(6, i6=1)),
        (rc.full_context(RootSystem("A", 3)), (1, 1, 1)),
    ]
    for ctx, lam in cases:
        mults = rc.weight_multiplicities(ctx, lam)
        assert sum(mults.values()) == rc.weyl_dim(ctx, lam)


def _freudenthal_fraction(ctx, lam):
    """Freudenthal's formula over the rationals: the oracle for the integer one.

    The weights are every mu <= lam whose dominant representative stays <= lam,
    tested through rational simple-root coordinates; each multiplicity is
    2 sum_beta sum_k m(mu + k beta) (mu + k beta, beta) / (|lam + rho|^2 - |mu + rho|^2).
    """
    rs = ctx.rs
    simple_w = [simple_root_weight(rs, i) for i in ctx.levi]

    def le_lam(mu):
        coords = weight_to_root_coords(rs, sub(lam, mu))
        return all(c.denominator == 1 and c >= 0 for c in coords)

    seen, frontier = {lam}, [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for a in simple_w:
                cand = sub(mu, a)
                if cand not in seen and le_lam(rc.dominant_rep(ctx, cand)):
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    depth = {mu: sum(weight_to_root_coords(rs, sub(lam, mu))) for mu in seen}
    pos_w = [root_to_weight(rs, b) for b in rc.context_positive_roots(ctx)]
    rr = rho(rs)
    lam_norm = inner_product(rs, add(lam, rr), add(lam, rr))
    mults = {lam: 1}
    for mu in sorted(seen, key=lambda mu: (depth[mu], mu)):
        if mu == lam:
            continue
        acc = Fraction(0)
        for beta_w in pos_w:
            nu = add(mu, beta_w)
            while nu in mults:
                acc += mults[nu] * inner_product(rs, nu, beta_w)
                nu = add(nu, beta_w)
        val = 2 * acc / (lam_norm - inner_product(rs, add(mu, rr), add(mu, rr)))
        assert val.denominator == 1 and val >= 0
        if val:
            mults[mu] = int(val)
    return mults


def _oracle_cases():
    """Two random weights per context, kept below 120 dimensions for the oracle's sake."""
    rng = random.Random(11)
    cases = []
    for family, rank in (("A", 4), ("B", 4), ("C", 3), ("D", 5), ("E", 6), ("F", 4), ("G", 2)):
        rs = RootSystem(family, rank)
        for ctx in [rc.full_context(rs)] + [rc.levi_context(rs, k) for k in range(1, rank + 1)]:
            found = 0
            while found < 2:
                lam = [0 if i + 1 in ctx.levi else rng.randint(-3, 3) for i in range(rank)]
                for i in rng.sample(ctx.levi, min(2, len(ctx.levi))):
                    lam[i - 1] = rng.randint(0, 2)
                if rc.weyl_dim(ctx, tuple(lam)) < 120:
                    cases.append((ctx, tuple(lam)))
                    found += 1
    return cases


def test_integer_freudenthal_matches_rational_oracle():
    # every type, the full group and each maximal Levi: the B, C, F and G
    # forms have denominators, which the integral Gram matrix clears
    for ctx, lam in _oracle_cases():
        assert rc._freudenthal(ctx, lam) == _freudenthal_fraction(ctx, lam), (str(ctx), lam)


def test_weight_multiset_levi_invariance():
    ctx = rc.levi_context(F4, 4)
    mults = rc.weight_multiplicities(ctx, (0, 0, 1, 0))
    for i in ctx.levi:
        reflected = {}
        for wt, m in mults.items():
            reflected[reflect(F4, wt, i)] = reflected.get(reflect(F4, wt, i), 0) + m
        assert reflected == mults


def test_dual_highest_weight_anchors():
    assert rc.dual_highest_weight(rc.levi_context(F4, 4), (1, 0, 0, 0)) == (1, 0, 0, -2)
    assert rc.dual_highest_weight(rc.full_context(E6), (0,) * 6) == (0,) * 6
    assert rc.dual_highest_weight(rc.full_context(E6), w(6, i1=1)) == w(6, i6=1)


def test_dual_involution_and_dimension():
    rng = random.Random(5)
    ctx = rc.levi_context(E6, 2)
    for _ in range(10):
        lam = tuple(
            rng.randint(0, 2) if i != 1 else rng.randint(-2, 2) for i in range(6)
        )
        dual = rc.dual_highest_weight(ctx, lam)
        assert rc.dual_highest_weight(ctx, dual) == lam
        assert rc.weyl_dim(ctx, dual) == rc.weyl_dim(ctx, lam)


def test_tensor_with_trivial_and_clebsch_gordan():
    a1 = rc.full_context(RootSystem("A", 1))
    assert rc.tensor_decompose(a1, {(3,): 2}, {(0,): 1}) == {(3,): 2}
    assert rc.tensor_decompose(a1, {(1,): 1}, {(1,): 1}) == {(2,): 1, (0,): 1}


def test_tensor_against_convolution_oracle():
    # G2/P2 Levi: all module pairs with dim <= 20
    ctx = rc.levi_context(G2, 2)
    small = []
    for a in range(0, 6):
        for t in range(-2, 3):
            lam = (a, t)
            if rc.weyl_dim(ctx, lam) <= 20:
                small.append(lam)
    for la in small[:12]:
        for lb in small[:12]:
            dec = rc.tensor_decompose(ctx, {la: 1}, {lb: 1})
            lhs = rc.char_of_decomp(ctx, dec)
            rhs = rc.conv(rc.char_irr(ctx, la), rc.char_irr(ctx, lb), 2)
            assert lhs == rhs


def test_exterior_identities_f4p4():
    ctx = rc.levi_context(F4, 4)
    e1 = {(1, 0, 0, 0): 1}
    assert rc.exterior_power(ctx, e1, 0) == {(0, 0, 0, 0): 1}
    assert rc.exterior_power(ctx, e1, 2) == {(0, 1, 0, 0): 1}
    assert rc.exterior_power(ctx, e1, 3) == {(0, 0, 2, 0): 1}
    assert rc.exterior_power(ctx, e1, 4) == {(0, 0, 2, 1): 1}
    assert rc.exterior_power(ctx, e1, 5) == {(0, 1, 0, 3): 1}
    assert rc.exterior_power(ctx, e1, 6) == {(1, 0, 0, 5): 1}
    assert rc.exterior_power(ctx, e1, 7) == {(0, 0, 0, 7): 1}
    with pytest.raises(ValueError):
        rc.exterior_power(ctx, e1, 8)


def test_lambda_ring_consistency():
    ctx = rc.levi_context(E6, 3)
    rep = {w(6, i1=1): 1, w(6, i6=1): 1}  # rank 7
    char = rc.char_of_decomp(ctx, rep)
    assert rc.exterior_power(ctx, rep, 1) == rep
    assert rc.symmetric_power(ctx, rep, 1) == rep
    # L^2 + S^2 re-expands to the full square of the character
    sq = rc.conv(char, char, 6)
    both = rc.char_of_decomp(ctx, rc.exterior_power(ctx, rep, 2))
    for v, m in rc.char_of_decomp(ctx, rc.symmetric_power(ctx, rep, 2)).items():
        both[v] = both.get(v, 0) + m
    assert both == sq
    # sum of wedge ranks is 2^rank
    total = sum(
        rc.decomp_dim(ctx, rc.exterior_power(ctx, rep, k)) for k in range(0, 8)
    )
    assert total == 2 ** 7


def test_wedge_rank_binomial_convolution():
    ctx = rc.levi_context(E6, 2)
    rep = {w(6, i1=1): 1, w(6, i2=1): 2}  # ranks 6 + 1 + 1
    from math import comb

    for k in range(0, 9):
        expect = sum(
            comb(6, a) * comb(2, k - a) for a in range(0, min(6, k) + 1) if k - a >= 0
        )
        assert rc.decomp_dim(ctx, rc.exterior_power(ctx, rep, k)) == expect


def test_top_wedge_is_determinant():
    ctx = rc.levi_context(F4, 1)
    lam = (0, 0, 0, 1)
    rank = rc.weyl_dim(ctx, lam)
    top = rc.exterior_power(ctx, {lam: 1}, rank)
    assert len(top) == 1
    det_weight, mult = next(iter(top.items()))
    assert mult == 1
    assert det_weight == rc.sum_of_weights(ctx, lam)


def test_sum_of_weights_anchors():
    assert rc.sum_of_weights(rc.levi_context(F4, 1), (0, 0, 0, 1)) == (3, 0, 0, 0)
    assert rc.sum_of_weights(rc.levi_context(F4, 1), (0,) * 4) == (0,) * 4
    assert rc.sum_of_weights(rc.levi_context(E7, 1), w(7, i7=1)) == w(7, i1=6)


def test_sum_of_weights_requires_single_omitted_node():
    ctx = rc.Context(F4, (2, 3))
    with pytest.raises(ValueError):
        rc.sum_of_weights(ctx, (0, 1, 0, 0))


def test_sum_of_weights_matches_freudenthal_oracle():
    cases = [
        (rc.levi_context(F4, 4), (1, 0, 0, 0)),
        (rc.levi_context(F4, 4), (0, 0, 1, 0)),
        (rc.levi_context(E6, 3), w(6, i5=1)),
        (rc.levi_context(G2, 1), (0, 1)),
        (rc.levi_context(RootSystem("A", 5), 2), (3, 0, 0, 0, 0)),
        # one negatively twisted case per exceptional type
        (rc.levi_context(E6, 1), w(6, i1=-3, i6=1)),
        (rc.levi_context(E7, 2), w(7, i2=-1, i7=1)),
        (rc.levi_context(RootSystem("E", 8), 1), w(8, i1=-2, i8=1)),
        (rc.levi_context(F4, 1), (-1, 0, 0, 1)),
        (rc.levi_context(G2, 2), (2, -3)),
    ]
    # and one case for each of the 25 exceptional G/P_k: the smallest
    # fundamental Levi module next to node k, twisted down by 2
    for X in exceptional_spaces():
        ctx = X.levi
        nbrs = [b if a == X.k else a for a, b in X.rs.edges() if X.k in (a, b)]
        j = min(nbrs, key=lambda j: (rc.weyl_dim(ctx, X.fundamental(j)), j))
        cases.append((ctx, X.twist(X.fundamental(j), -2)))
    for ctx, lam in cases:
        got = rc.sum_of_weights(ctx, lam)
        assert got == sum_of_weights_bruteforce(ctx, lam), (str(ctx), lam)


_WEYL_CONTEXTS = [
    ctx
    for rs in map(parse_root_system, ("E6", "E7", "E8", "F4", "G2", "B4", "C4", "D5"))
    for ctx in [rc.full_context(rs)] + [rc.levi_context(rs, k) for k in range(1, rs.rank + 1)]
]


@given(st.sampled_from(_WEYL_CONTEXTS), st.data())
@settings(max_examples=150, deadline=None)
def test_weyl_dim_matches_rational_weyl_product(ctx, data):
    lam = tuple(
        data.draw(st.integers(0, 4) if i + 1 in ctx.levi else st.integers(-3, 3))
        for i in range(ctx.rs.rank)
    )
    cache.clear()  # so the integer kernel runs, not the dimension memo
    assert rc.weyl_dim(ctx, lam) == rational_weyl_dim(ctx, lam)


def test_decompose_character_flags_non_characters():
    ctx = rc.full_context(RootSystem("A", 1))
    bad = {rc.pack((-2,)): 1}  # lone negative weight: no module has this character
    with pytest.raises(AssertionError):
        rc.decompose_character(ctx, bad)


def test_decompose_character_roundtrip():
    ctx = rc.levi_context(E6, 2)
    dec = {w(6, i1=1): 2, w(6, i3=1): 1, w(6, i2=3): 1}
    assert rc.decompose_character(ctx, rc.char_of_decomp(ctx, dec)) == dec


_coords = st.tuples(*[st.integers(-20, 20)] * 4)


@given(_coords)
@settings(max_examples=80, deadline=None)
def test_pack_unpack_roundtrip(wt):
    assert rc.unpack(rc.pack(wt), 4) == wt


@given(
    st.dictionaries(_coords, st.integers(1, 4), min_size=1, max_size=5),
    st.dictionaries(_coords, st.integers(1, 4), min_size=1, max_size=5),
    st.dictionaries(_coords, st.integers(1, 4), min_size=1, max_size=5),
)
@settings(max_examples=40, deadline=None)
def test_convolution_is_associative_and_counts_dims(a, b, c):
    pa, pb, pc = (rc.char_from_weights(x) for x in (a, b, c))
    left = rc.conv(rc.conv(pa, pb, 4), pc, 4)
    right = rc.conv(pa, rc.conv(pb, pc, 4), 4)
    assert left == right
    assert rc.char_dim(left) == rc.char_dim(pa) * rc.char_dim(pb) * rc.char_dim(pc)


@pytest.mark.parametrize("a,fits", [(32763, True), (32764, False)])
def test_decompose_character_refuses_wrapping_rho_shift(a, fits):
    # V_L((a, 1)) on the G2/P1 Levi holds the weight (a + 3, -1); adding rho
    # puts a + 4 into the first field, which must fit -32768..32767
    ctx = rc.levi_context(G2, 1)
    ch = rc.char_irr(ctx, (a, 1))
    if fits:
        assert rc.decompose_character(ctx, ch) == {(a, 1): 1}
    else:
        with pytest.raises(rc.WeightRangeError):
            rc.decompose_character(ctx, ch)


def test_brauer_klimyk_shift_is_range_checked():
    ctx = rc.levi_context(G2, 1)
    ch = rc.char_irr(ctx, (0, 1))
    assert rc.decompose_character(ctx, ch, (32763, 0)) == {(32763, 1): 1}
    with pytest.raises(rc.WeightRangeError):
        rc.decompose_character(ctx, ch, (32764, 0))
    with pytest.raises(rc.NonDominantError):
        rc.decompose_character(ctx, ch, (0, -1))


def test_tensor_char_matches_convolution_oracle():
    # E6/P3 Levi: w1 + w6 against the character of w1(-1) + w6
    ctx = rc.levi_context(E6, 3)
    rep = {w(6, i1=1): 1, w(6, i6=1): 2}
    other = {w(6, i1=1, i3=-1): 1, w(6, i6=1): 1}
    char = rc.char_of_decomp(ctx, other)
    got = rc.tensor_char(ctx, rep, char)
    want = rc.decompose_character(ctx, rc.conv(rc.char_of_decomp(ctx, rep), char, 6))
    assert got == want
    assert got == rc.tensor_decompose(ctx, rep, other)


_CLIMB_CONTEXTS = [
    ctx
    for rs in (E6, E7, F4, G2)
    for ctx in [rc.full_context(rs)] + [rc.levi_context(rs, k) for k in range(1, rs.rank + 1)]
]


@st.composite
def _context_and_weight(draw):
    ctx = draw(st.sampled_from(_CLIMB_CONTEXTS))
    return ctx, draw(st.tuples(*[st.integers(-6, 6)] * ctx.rs.rank))


@given(_context_and_weight())
@settings(max_examples=300, deadline=None)
def test_climb_agrees_with_to_dominant_chamber(case):
    # the hot-path climb must give the verdict, length and chamber of the reference
    ctx, wt = case
    ref = to_dominant_chamber(ctx.rs, wt, ctx.levi)
    got = rc.climb(ctx, wt)
    signed = rc.signed_climb(ctx, rc.pack(wt))
    if ref.singular:
        assert got is None and signed is None
    else:
        assert got == (len(ref.word), ref.dominant)
        # the packed form: pack(dominant), negated for an odd length
        y = rc.pack(ref.dominant)
        assert signed == (-y if len(ref.word) % 2 else y)


@given(_context_and_weight())
@settings(max_examples=300, deadline=None)
def test_dominant_rep_agrees_with_to_dominant_chamber(case):
    # walls allowed: 100 wt + rho is off every wall, and its climbing word
    # takes wt to the closure of the dominant chamber
    ctx, wt = case
    got = rc.dominant_rep(ctx, wt)
    plain = to_dominant_chamber(ctx.rs, wt, ctx.levi)
    if not plain.singular:
        assert got == plain.dominant
    scaled = tuple(100 * c + r for c, r in zip(wt, rho(ctx.rs)))
    want = wt
    for i in to_dominant_chamber(ctx.rs, scaled, ctx.levi).word:
        want = reflect(ctx.rs, want, i)
    assert got == want
