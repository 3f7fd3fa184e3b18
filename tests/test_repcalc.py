import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwbforge import cache
from bwbforge import repcalc as rc
from bwbforge.classify import exceptional_spaces, search_spaces
from bwbforge.homspace import parse_homspace
from bwbforge.koszul import PackedPage
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

from char_helpers import (
    char_dim,
    char_of_decomp,
    decomp_dim,
    decompose,
    dominant_rep,
    dual_highest_weight,
    exterior_power,
    freudenthal,
    symmetric_power,
    tensor_char,
    tensor_decompose,
    weight_multiplicities,
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
    mults = weight_multiplicities(ctx, (1, 0))
    assert len(mults) == 2 and set(mults.values()) == {1}


def test_adjoint_multiplicities_brute_force():
    ctx = rc.full_context(G2)
    mults = weight_multiplicities(ctx, (0, 1))
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
    mults = weight_multiplicities(ctx, (1, 0, 0, 0))
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
        mults = weight_multiplicities(ctx, lam)
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
                if cand not in seen and le_lam(dominant_rep(ctx, cand)):
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


def test_char_irr_matches_the_freudenthal_oracle_on_every_search_context():
    # each Levi and full context of classify --family all to rank 6, at the
    # fundamental weights of its nodes and their doubles up to 300 dimensions
    cases = [(rc.full_context(RootSystem("A", 2)), (1, 1)), (rc.full_context(E6), w(6, i2=1))]
    for X in search_spaces("all", 6):
        for ctx in (X.levi, rc.full_context(X.rs)):
            for i in ctx.levi:
                for c in (1, 2):
                    lam = w(X.rs.rank, **{f"i{i}": c})
                    if rc.weyl_dim(ctx, lam) <= 300:
                        cases.append((ctx, lam))
    repeated = 0
    for ctx, lam in dict.fromkeys(cases):
        want = freudenthal(ctx, lam)
        assert weight_multiplicities(ctx, lam) == want, (str(ctx), lam)
        repeated += any(m > 1 for m in want.values())
    # the adjoints of A2 and E6 have a zero weight of multiplicity 2 and 6
    assert weight_multiplicities(*cases[0])[(0, 0)] == 2
    assert weight_multiplicities(*cases[1])[(0,) * 6] == 6
    assert repeated > 200  # Freudenthal's sum runs, not only the multiplicity-free shortcut


def test_freudenthal_on_a_large_a2_module():
    # V(n, n) of A2 has n + 1 at the zero weight; the string sums make each step
    # constant, where walking every root string took about n steps per weight
    ctx, n = rc.full_context(RootSystem("A", 2)), 40
    mults = rc._freudenthal(ctx, (n, n))
    assert mults[(0, 0)] == n + 1
    assert sum(mults.values()) == rc.weyl_dim(ctx, (n, n))


def test_long_multiplicity_free_string():
    # the A1 Levi of G2/P1 at (0, n): one root string of n + 1 weights
    mults = weight_multiplicities(rc.levi_context(G2, 1), (0, 1000))
    assert len(mults) == 1001 and set(mults.values()) == {1}


def test_weight_multiset_levi_invariance():
    ctx = rc.levi_context(F4, 4)
    mults = weight_multiplicities(ctx, (0, 0, 1, 0))
    for i in ctx.levi:
        reflected = {}
        for wt, m in mults.items():
            reflected[reflect(F4, wt, i)] = reflected.get(reflect(F4, wt, i), 0) + m
        assert reflected == mults


def test_dual_highest_weight_anchors():
    assert dual_highest_weight(rc.levi_context(F4, 4), (1, 0, 0, 0)) == (1, 0, 0, -2)
    assert dual_highest_weight(rc.full_context(E6), (0,) * 6) == (0,) * 6
    assert dual_highest_weight(rc.full_context(E6), w(6, i1=1)) == w(6, i6=1)


def test_dual_involution_and_dimension():
    rng = random.Random(5)
    ctx = rc.levi_context(E6, 2)
    for _ in range(10):
        lam = tuple(
            rng.randint(0, 2) if i != 1 else rng.randint(-2, 2) for i in range(6)
        )
        dual = dual_highest_weight(ctx, lam)
        assert dual_highest_weight(ctx, dual) == lam
        assert rc.weyl_dim(ctx, dual) == rc.weyl_dim(ctx, lam)


def test_tensor_with_trivial_and_clebsch_gordan():
    a1 = rc.full_context(RootSystem("A", 1))
    assert tensor_decompose(a1, {(3,): 2}, {(0,): 1}) == {(3,): 2}
    assert tensor_decompose(a1, {(1,): 1}, {(1,): 1}) == {(2,): 1, (0,): 1}


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
            dec = tensor_decompose(ctx, {la: 1}, {lb: 1})
            lhs = char_of_decomp(ctx, dec)
            rhs = rc.conv(rc.char_irr(ctx, la), rc.char_irr(ctx, lb), 2)
            assert lhs == rhs


def test_exterior_identities_f4p4():
    ctx = rc.levi_context(F4, 4)
    e1 = {(1, 0, 0, 0): 1}
    assert exterior_power(ctx, e1, 0) == {(0, 0, 0, 0): 1}
    assert exterior_power(ctx, e1, 2) == {(0, 1, 0, 0): 1}
    assert exterior_power(ctx, e1, 3) == {(0, 0, 2, 0): 1}
    assert exterior_power(ctx, e1, 4) == {(0, 0, 2, 1): 1}
    assert exterior_power(ctx, e1, 5) == {(0, 1, 0, 3): 1}
    assert exterior_power(ctx, e1, 6) == {(1, 0, 0, 5): 1}
    assert exterior_power(ctx, e1, 7) == {(0, 0, 0, 7): 1}
    with pytest.raises(ValueError):
        exterior_power(ctx, e1, 8)


def test_lambda_ring_consistency():
    ctx = rc.levi_context(E6, 3)
    rep = {w(6, i1=1): 1, w(6, i6=1): 1}  # rank 7
    char = char_of_decomp(ctx, rep)
    assert exterior_power(ctx, rep, 1) == rep
    assert symmetric_power(ctx, rep, 1) == rep
    # L^2 + S^2 re-expands to the full square of the character
    sq = rc.conv(char, char, 6)
    both = char_of_decomp(ctx, exterior_power(ctx, rep, 2))
    for v, m in char_of_decomp(ctx, symmetric_power(ctx, rep, 2)).items():
        both[v] = both.get(v, 0) + m
    assert both == sq
    # sum of wedge ranks is 2^rank
    total = sum(
        decomp_dim(ctx, exterior_power(ctx, rep, k)) for k in range(0, 8)
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
        assert decomp_dim(ctx, exterior_power(ctx, rep, k)) == expect


def test_top_wedge_is_determinant():
    ctx = rc.levi_context(F4, 1)
    lam = (0, 0, 0, 1)
    rank = rc.weyl_dim(ctx, lam)
    top = exterior_power(ctx, {lam: 1}, rank)
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
        decompose(ctx, bad)


def test_decompose_character_roundtrip():
    ctx = rc.levi_context(E6, 2)
    dec = {w(6, i1=1): 2, w(6, i3=1): 1, w(6, i2=3): 1}
    assert decompose(ctx, char_of_decomp(ctx, dec)) == dec


_coords = st.tuples(*[st.integers(-20, 20)] * 4)


@given(_coords)
@settings(max_examples=80, deadline=None)
def test_pack_unpack_roundtrip(wt):
    assert rc.unpack(rc.pack(wt), 4) == wt


@given(st.lists(st.tuples(*[st.integers(-32768, 32767)] * 4), min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_char_extremes_are_the_coordinate_extremes(weights):
    # the edges of the 16-bit field included
    lo, hi = rc.char_extremes({rc.pack(w): 1 for w in weights}, 4)
    assert lo == tuple(map(min, zip(*weights))) and hi == tuple(map(max, zip(*weights)))


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
    assert char_dim(left) == char_dim(pa) * char_dim(pb) * char_dim(pc)


@pytest.mark.parametrize("a,fits", [(32763, True), (32764, False)])
def test_decompose_character_refuses_wrapping_rho_shift(a, fits):
    # V_L((a, 1)) on the G2/P1 Levi holds the weight (a + 3, -1); adding rho
    # puts a + 4 into the first field, which must fit -32768..32767
    ctx = rc.levi_context(G2, 1)
    ch = rc.char_irr(ctx, (a, 1))
    if fits:
        assert decompose(ctx, ch) == {(a, 1): 1}
    else:
        with pytest.raises(rc.WeightRangeError):
            decompose(ctx, ch)


def test_brauer_klimyk_shift_is_range_checked():
    ctx = rc.levi_context(G2, 1)
    ch = rc.char_irr(ctx, (0, 1))
    assert decompose(ctx, ch, (32763, 0)) == {(32763, 1): 1}
    with pytest.raises(rc.WeightRangeError):
        decompose(ctx, ch, (32764, 0))
    with pytest.raises(rc.NonDominantError):
        decompose(ctx, ch, (0, -1))


def test_tensor_char_matches_convolution_oracle():
    # E6/P3 Levi: w1 + w6 against the character of w1(-1) + w6
    ctx = rc.levi_context(E6, 3)
    rep = {w(6, i1=1): 1, w(6, i6=1): 2}
    other = {w(6, i1=1, i3=-1): 1, w(6, i6=1): 1}
    char = char_of_decomp(ctx, other)
    got = tensor_char(ctx, rep, char)
    want = decompose(ctx, rc.conv(char_of_decomp(ctx, rep), char, 6))
    assert got == want
    assert got == tensor_decompose(ctx, rep, other)


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
    signed = rc.signed_climb(ctx, rc.pack(wt), rc._climb_rows(ctx))
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
    got = dominant_rep(ctx, wt)
    plain = to_dominant_chamber(ctx.rs, wt, ctx.levi)
    if not plain.singular:
        assert got == plain.dominant
    scaled = tuple(100 * c + r for c, r in zip(wt, rho(ctx.rs)))
    want = wt
    for i in to_dominant_chamber(ctx.rs, scaled, ctx.levi).word:
        want = reflect(ctx.rs, want, i)
    assert got == want


# -- the twist-free key of the climb table -----------------------------------------

_EXCEPTIONAL_LEVIS = [X.levi for X in exceptional_spaces()]


def _line(ctx, t):
    """t times the omitted fundamental weight of a maximal Levi context."""
    (k,) = ctx.omitted()
    return tuple(t if i == k - 1 else 0 for i in range(ctx.rs.rank))


@st.composite
def _levi_weight_and_twist(draw):
    ctx = draw(st.sampled_from(_EXCEPTIONAL_LEVIS))
    x = draw(st.tuples(*[st.integers(-6, 6)] * ctx.rs.rank))
    return ctx, x, draw(st.integers(-30000, 30000))


@given(_levi_weight_and_twist())
@settings(max_examples=300, deadline=None)
def test_levi_climb_commutes_with_twists(case):
    # W_L fixes w_k: same parity, same walls, the chamber moved by t w_k
    ctx, x, t = case
    twisted = add(x, _line(ctx, t))
    got, plain = rc.climb(ctx, twisted), rc.climb(ctx, x)
    assert got == (None if plain is None else (plain[0], add(plain[1], _line(ctx, t))))
    rows = rc._climb_rows(ctx)
    signed = rc.signed_climb(ctx, rc.pack(twisted), rows)
    base = rc.signed_climb(ctx, rc.pack(x), rows)
    if base is None:
        assert signed is None
    else:
        shift = rc.packed_offset(_line(ctx, t))
        assert signed == (base + shift if base > 0 else base - shift)


def _unkeyed_tally(ctx, char, pairs, lo, hi):
    """Brauer-Klimyk with every x climbed on its own, no table: the oracle of the key."""
    rc.check_packable(lo, hi)
    tally = {}
    for shift, n in pairs:
        for v, m in char.items():
            y = rc.signed_climb(ctx, v + shift, rc._climb_rows(ctx))
            if y is not None:
                tally[abs(y)] = tally.get(abs(y), 0) + (n * m if y > 0 else -n * m)
    return {y: m for y, m in tally.items() if m}


def _engine_tally(ctx, char, pairs, lo, hi):
    """Brauer-Klimyk summed over the shifts, each filled through the engine's carry bound."""
    climbs, mask, zero = rc.LeviTensor(ctx).climb_keys(lo, hi)
    tally = {}
    for shift, n in pairs:
        terms = iter(rc.climb_tally(ctx, char, shift, climbs, mask, zero, rc._climb_rows(ctx)))
        for dy, m in zip(terms, terms):
            tally[shift + dy] = tally.get(shift + dy, 0) + n * m
    return {y: m for y, m in tally.items() if m}


def _levi_part(ctx, x):
    """Packed offset of the Levi coordinates of x, the omitted ones zero: the row key."""
    return rc.packed_offset(tuple(c if i + 1 in ctx.levi else 0 for i, c in enumerate(x)))


def _table_tally(ctx, key, char, shifts, lo, hi):
    """The same sum read off the ``levi_tensor`` table under ``key``; shifts are rho-shifted."""
    pairs = [(rc.packed_offset(s), n, _levi_part(ctx, s)) for s, n in shifts]
    rows, fill = rc.LeviTensor(ctx).reader(key, char, lo, hi)
    tally = {}
    for shift, n, s0 in pairs:
        terms = iter(rows.get(s0) or fill(shift, s0))
        for dy, m in zip(terms, terms):
            tally[shift + dy] = tally.get(shift + dy, 0) + n * m
    return {y: m for y, m in tally.items() if m}


def _tally_or_refusal(tally, *args):
    try:
        return tally(*args)
    except rc.WeightRangeError:
        return "refused"


@st.composite
def _tally_case(draw):
    # E8 left out: its Levi modules make each example slow
    ctx = draw(st.sampled_from([c for c in _EXCEPTIONAL_LEVIS if c.rs.rank < 8]))
    rank, (k,) = ctx.rs.rank, ctx.omitted()
    mu = [0] * rank
    mu[draw(st.sampled_from(ctx.levi)) - 1] = draw(st.integers(0, 1))
    shifts = []
    for _ in range(draw(st.integers(1, 3))):
        lam = [0] * rank
        for i in draw(st.lists(st.sampled_from(ctx.levi), max_size=2)):
            lam[i - 1] += 1
        # twists at the edges too, where the carry bound sends x itself to the table
        lam[k - 1] = draw(st.one_of(
            st.integers(-20, 20), st.integers(-32768, -32700), st.integers(32700, 32767)
        ))
        shifts.append((tuple(lam), draw(st.integers(1, 3))))
    return ctx, tuple(mu), shifts, draw(st.integers(-20, 20).filter(bool))


@given(_tally_case())
@settings(max_examples=150, deadline=None)
def test_climb_tally_with_the_twist_free_key_equals_the_unkeyed_tally(case):
    ctx, mu, shifts, other_twist = case
    rank, rr = ctx.rs.rank, rho(ctx.rs)
    char = rc.char_irr(ctx, mu)
    clo, chi = rc.char_extremes(char, rank)

    def bounds(lifted):
        return ([min(s[i] for s, _ in lifted) + clo[i] for i in range(rank)],
                [max(s[i] for s, _ in lifted) + chi[i] for i in range(rank)])

    lifted = [(add(s, rr), n) for s, n in shifts]
    lo, hi = bounds(lifted)
    pairs = [(rc.packed_offset(s), n) for s, n in lifted]
    want = _tally_or_refusal(_unkeyed_tally, ctx, char, pairs, lo, hi)
    cache.clear()
    # a fresh table, then the filled one
    for _ in range(2):
        assert _tally_or_refusal(_engine_tally, ctx, char, pairs, lo, hi) == want
    # levi_tensor rows: fresh, then filled by another twist and another page
    key, line = rc.pack(mu), _line(ctx, other_twist)
    for fill in ([], [(add(s, line), n + 1) for s, n in lifted] + [(add(rr, line), 1)]):
        cache.clear()
        if fill:
            _tally_or_refusal(_table_tally, ctx, key, char, fill, *bounds(fill))
        assert _tally_or_refusal(_table_tally, ctx, key, char, lifted, lo, hi) == want


@pytest.mark.parametrize(
    "x,want",
    [
        # x0 = (0, -11000) climbs to (-33000, 11000), outside the field: the
        # carry bound sends x itself to the table, and x is answered as before
        ((32000, -11000), {(-1000, 11000): 1}),
        ((20000, -11000), {(-13000, 11000): 1}),
        ((1000, -11000), {(-32000, 11000): 1}),
        # the chamber of x itself leaves the field: refused, as before
        ((-1000, -11000), "refused"),
    ],
)
def test_twist_free_key_at_the_edge_of_the_field(x, want):
    # G2/P1: the Levi reflection s_2 lowers coordinate 1 by 3 x_2
    ctx = rc.levi_context(G2, 1)
    cache.clear()
    trivial = {rc.pack((0, 0)): 1}
    got = _tally_or_refusal(_engine_tally, ctx, trivial, [(rc.packed_offset(x), -1)], x, x)
    if got != "refused":
        got = {rc.unpack(y, 2): m for y, m in got.items()}
    assert got == want
    assert cache.table("climb", ctx) == {}


# -- the lane tests of climb_tally -------------------------------------------------

_LANE_LEVIS = _EXCEPTIONAL_LEVIS + [
    rc.levi_context(rs, k)
    for rs in [RootSystem(f, r) for f, low in zip("ABCD", (1, 2, 2, 3)) for r in range(low, 5)]
    for k in range(1, rs.rank + 1)
]


@st.composite
def _lane_case(draw):
    # Levi coordinates near 0, where walls and signs change, and near the ends of the field;
    # the omitted ones anywhere in it, as x itself carries them on the carry-bound path
    ctx = draw(st.sampled_from(_LANE_LEVIS))
    near = st.one_of(st.integers(-3, 3), st.integers(-32768, -32760), st.integers(32760, 32767))
    coordinate = [near if i in ctx.levi else st.integers(-32768, 32767)
                  for i in range(1, ctx.rs.rank + 1)]
    xs = draw(st.lists(st.tuples(*coordinate), min_size=1, max_size=6, unique=True))
    shift = draw(st.tuples(*[st.integers(-3, 3)] * ctx.rs.rank))
    return ctx, [(x, draw(st.integers(1, 3))) for x in xs], shift


def _tuple_climb_tally(ctx, weights):
    """{dominant: sum of (-1)^n m} over the tuple ``repcalc.climb`` of each weight, or "refused"
    when a dominant representative leaves the packed field."""
    tally = {}
    for x, m in weights:
        got = rc.climb(ctx, x)
        if got is not None:
            n, dominant = got
            if any(not -32768 <= c < 32768 for c in dominant):
                return "refused"
            tally[dominant] = tally.get(dominant, 0) + (-m if n % 2 else m)
    return {y: m for y, m in tally.items() if m}


@given(_lane_case())
@settings(max_examples=400, deadline=None)
def test_climb_tally_lane_tests_equal_the_tuple_climb(case):
    # walls and dominant weights are sorted by their lanes and never reach the climb table;
    # every other weight climbs, on the keyed path and on the carry-bound one alike
    ctx, weights, shift = case
    rank, offset = ctx.rs.rank, rc.packed_offset(shift)
    char = {rc.pack(x) - offset: m for x, m in weights}
    lo, hi = (tuple(map(f, zip(*[x for x, _ in weights]))) for f in (min, max))
    want = _tuple_climb_tally(ctx, weights)
    cache.clear()
    keyed = rc.LeviTensor(ctx).climb_keys(lo, hi)
    for climbs, mask, zero in ({}, -1, 0), keyed:
        try:
            entry = rc.climb_tally(ctx, char, offset, climbs, mask, zero, rc._climb_rows(ctx))
        except rc.WeightRangeError:
            assert want == "refused"
            continue
        assert {rc.unpack(offset + dy, rank): m for dy, m in zip(entry[::2], entry[1::2])} == want
        for x0 in climbs:
            levi = [c for i, c in enumerate(rc.unpack(x0, rank)) if i + 1 in ctx.levi]
            assert min(levi) < 0 and 0 not in levi


# -- the dual highest weight -------------------------------------------------------


def test_dual_highest_weight_matches_the_climbing_oracle_on_every_search_space():
    # -w_0 w_i on each node of each space classify --family all searches to rank 11
    pairs = 0
    for X in search_spaces("all", 11):
        for i in range(1, X.rs.rank + 1):
            lam = tuple(int(j == i) for j in range(1, X.rs.rank + 1))
            assert dual_highest_weight(X.levi, lam) == dominant_rep(
                X.levi, tuple(-c for c in lam)
            ), (str(X), i)
            pairs += 1
    assert pairs == 2174


@given(st.sampled_from(_EXCEPTIONAL_LEVIS + [rc.full_context(rs) for rs in (E6, E7, F4, G2)]),
       st.data())
@settings(max_examples=100, deadline=None)
def test_dual_highest_weight_is_the_dominant_representative_of_minus_lam(ctx, data):
    lam = tuple(
        data.draw(st.integers(0, 5) if i in ctx.levi else st.integers(-9, 9))
        for i in range(1, ctx.rs.rank + 1)
    )
    assert dual_highest_weight(ctx, lam) == dominant_rep(ctx, tuple(-c for c in lam))


# -- the packed dual ---------------------------------------------------------------


def test_dual_kernel_is_the_dual_highest_weight_on_every_search_space():
    # -w_0^L permutes the Levi fields and sends w_k to -w_k, which the range
    # check of a dual page rests on, and every entry D_ki of its k row is at
    # most 6; the kernel maps pack(w_i + rho) to pack(-w_0^L w_i + rho), twice
    # back to itself
    spaces = pairs = 0
    for X in search_spaces("all", 11):
        rank, k, rr, dual = X.rs.rank, X.k - 1, rho(X.rs), rc.dual_kernel(X.levi)
        columns = []
        for i in range(rank):
            lam = tuple(int(j == i) for j in range(rank))
            columns.append(dual_highest_weight(X.levi, lam))
            y = rc.pack(add(lam, rr))
            assert dual(y) == rc.pack(add(columns[i], rr)) and dual(dual(y)) == y, (str(X), i)
            pairs += 1
        levi = sorted([(j, c) for j, c in enumerate(col) if j != k and c]
                      for i, col in enumerate(columns) if i != k)
        assert levi == [[(j, 1)] for j in range(rank) if j != k], str(X)
        assert columns[k] == tuple(-int(j == k) for j in range(rank)), str(X)
        assert max(abs(col[k]) for col in columns) <= 6, str(X)
        spaces += 1
    assert (spaces, pairs) == (284, 2174)


@given(st.sampled_from(_EXCEPTIONAL_LEVIS + [rc.full_context(rs) for rs in (E6, E7, F4, G2)]),
       st.data())
@settings(max_examples=100, deadline=None)
def test_dual_kernel_is_the_dual_highest_weight_on_dominant_weights(ctx, data):
    lam = tuple(
        data.draw(st.integers(0, 5) if i in ctx.levi else st.integers(-9, 9))
        for i in range(1, ctx.rs.rank + 1)
    )
    rr, dual = rho(ctx.rs), rc.dual_kernel(ctx)
    y = rc.pack(add(lam, rr))
    assert dual(y) == rc.pack(add(dual_highest_weight(ctx, lam), rr))
    assert dual(dual(y)) == y


def test_a_dual_page_past_the_field_is_refused():
    # A2/P1: the k field of -w_0^L (y - rho) + rho is 3 - y_1 - y_2, the last
    # value of the field, -2^15, at y = (2771, 30000), and one past it at
    # (2772, 30000); y = rho = (1, 1) keeps the box of each page wide
    X, twist, dex = parse_homspace("A2/P1"), 2, 1
    edge = PackedPage(X, {rc.pack((2771, 30000)): 1, rc.pack((1, 1)): 1}, twist)
    lams = [X.twist(sub(y, rho(X.rs)), twist) for y in ((2771, 30000), (1, 1))]
    want = {X.twist(dual_highest_weight(X.levi, lam), -dex): 1 for lam in lams}
    assert edge.dual(X, dex).decomp(X) == want
    past = PackedPage(X, {rc.pack((2772, 30000)): 1, rc.pack((1, 1)): 1}, twist)
    with pytest.raises(rc.WeightRangeError) as refusal:
        past.dual(X, dex)
    # the bounds carry the new twist -2 - 1; the bare kernel would alias
    assert refusal.value.bounds == ((-32772, 1), (-2, 30000))
    assert rc.unpack(rc.dual_kernel(X.levi)(rc.pack((2772, 30000))), 2) != (-32769, 30000)
