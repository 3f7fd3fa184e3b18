import os
import random
import subprocess
import sys
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwbforge import repcalc as rc
from bwbforge import rootdata
from bwbforge.classify import search_spaces
from bwbforge.rootdata import (
    ChamberResult,
    RootDataError,
    RootSystem,
    cartan_matrix,
    coroot_vector,
    integral_weight_gram,
    parse_root_system,
    positive_roots,
    reflect,
    rho,
    root_to_weight,
    simple_root_weight,
    to_dominant_chamber,
)

import rational_oracles as rat
from rational_oracles import inner_product, inner_product_roots

SMALL_SYSTEMS = [
    RootSystem("A", 3),
    RootSystem("B", 3),
    RootSystem("C", 3),
    RootSystem("D", 4),
    RootSystem("F", 4),
    RootSystem("G", 2),
]


def pair_coroot(rs, w, beta):
    """<w, beta^v> as an exact integer."""
    return sum(k * x for k, x in zip(coroot_vector(rs, beta), w))


def test_family_rank_validation():
    RootSystem("E", 6)
    with pytest.raises(RootDataError):
        RootSystem("E", 5)
    with pytest.raises(RootDataError):
        RootSystem("G", 3)
    with pytest.raises(RootDataError):
        RootSystem("D", 2)
    with pytest.raises(RootDataError):
        RootSystem("Z", 2)
    assert parse_root_system("e7") == RootSystem("E", 7)


def test_cartan_matrix_rank_one():
    assert cartan_matrix(RootSystem("A", 1)) == ((2,),)


@pytest.mark.parametrize("rs", SMALL_SYSTEMS + [RootSystem("E", 6)])
def test_cartan_matrix_against_generated_roots(rs):
    # oracle: C[i][j] must equal the pairing of the generated simple roots,
    # <alpha_j, alpha_i^v>, with alpha_j realised inside the root system
    C = cartan_matrix(rs)
    r = rs.rank
    simple = [tuple(1 if m == j else 0 for m in range(r)) for j in range(r)]
    assert all(s in positive_roots(rs) for s in simple)
    for i in range(r):
        for j in range(r):
            lhs = C[i][j]
            rhs = pair_coroot(rs, root_to_weight(rs, simple[j]), simple[i])
            assert lhs == rhs


def test_g2_cartan_convention_matches_worked_reflections():
    # the F4/G2 reflection diagrams fix alpha1 = 2w1 - w2 (short) and
    # alpha2 = -3w1 + 2w2 (long); the triple edge points at the long root
    g2 = RootSystem("G", 2)
    assert simple_root_weight(g2, 1) == (2, -1)
    assert simple_root_weight(g2, 2) == (-3, 2)
    assert inner_product_roots(g2, (0, 1), (0, 1)) == 2  # alpha2 long


def test_f4_cartan_has_single_minus2_on_double_edge():
    C = cartan_matrix(RootSystem("F", 4))
    flat = [C[i][j] for i in range(4) for j in range(4)]
    assert flat.count(-2) == 1
    # the -2 sits on the 2-3 double edge: alpha2 = -w1 + 2w2 - 2w3
    assert simple_root_weight(RootSystem("F", 4), 2) == (-1, 2, -2, 0)


def test_f4_reflection_chain_from_worked_diagrams():
    f4 = RootSystem("F", 4)
    w = (0, 0, 0, 1)
    chain = []
    for i in (4, 3, 2, 3, 4):
        w = reflect(f4, w, i)
        chain.append(w)
    assert chain == [
        (0, 0, 1, -1),
        (0, 1, -1, 0),
        (1, -1, 1, 0),
        (1, 0, -1, 1),
        (1, 0, 0, -1),
    ]


def test_positive_root_counts():
    assert len(positive_roots(RootSystem("A", 1))) == 1
    assert len(positive_roots(RootSystem("G", 2))) == 6
    assert len(positive_roots(RootSystem("F", 4))) == 24
    assert len(positive_roots(RootSystem("E", 6))) == 36
    assert len(positive_roots(RootSystem("E", 7))) == 63
    # |Phi+| = (dim g - rank)/2 with dim e8 = 248
    assert len(positive_roots(RootSystem("E", 8))) == (248 - 8) // 2


def test_g2_positive_roots_contain_highest():
    roots = positive_roots(RootSystem("G", 2))
    assert (3, 2) in roots  # 3 alpha1 + 2 alpha2
    assert roots == tuple(sorted(roots, key=lambda v: (sum(v), v)))
    assert positive_roots(RootSystem("G", 2)) == roots  # idempotent regeneration


def root_string_closure(rs):
    """Positive roots by the root-string closure, each pairing summed from its Cartan row.

    The oracle of ``positive_roots``, which carries the pairings instead.
    """
    r = rs.rank
    A = cartan_matrix(rs)
    simple = [tuple(1 if m == i else 0 for m in range(r)) for i in range(r)]
    roots = set(simple)
    layer = list(simple)
    while layer:
        nxt = []
        for beta in layer:
            for i in range(r):
                pairing = sum(beta[m] * A[i][m] for m in range(r))
                # depth of the alpha_i string below beta
                p = 0
                probe = list(beta)
                while True:
                    probe[i] -= 1
                    if probe[i] < 0 or tuple(probe) not in roots:
                        break
                    p += 1
                if p - pairing > 0:
                    up = list(beta)
                    up[i] += 1
                    cand = tuple(up)
                    if cand not in roots:
                        roots.add(cand)
                        nxt.append(cand)
        layer = nxt
    return tuple(sorted(roots, key=lambda v: (sum(v), v)))


CLOSURE_TYPES = [("A", n) for n in range(1, 12)] + [
    (f, n) for f, lo in (("B", 2), ("C", 2), ("D", 3)) for n in range(lo, 12)
] + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]


@pytest.mark.parametrize("family,rank", CLOSURE_TYPES)
def test_positive_roots_equal_the_root_string_closure(family, rank):
    rs = RootSystem(family, rank)
    assert positive_roots(rs) == root_string_closure(rs)


def test_context_roots_are_the_roots_zero_off_the_levi():
    # every Levi of the rank-8 search, and each whole group
    contexts = {X.levi for X in search_spaces("all", 8)}
    contexts |= {rc.Context(c.rs, tuple(range(1, c.rs.rank + 1))) for c in contexts}
    for ctx in contexts:
        levi = set(ctx.levi)
        want = tuple(b for b in positive_roots(ctx.rs)
                     if all(c == 0 or (i + 1) in levi for i, c in enumerate(b)))
        assert rc.context_positive_roots(ctx) == want, ctx


def test_dominant_chamber_examples():
    a5 = RootSystem("A", 5)
    assert to_dominant_chamber(a5, (4, -5, 1, 1, 1)).singular  # Beauville-Donagi
    g2 = RootSystem("G", 2)
    res = to_dominant_chamber(g2, rho(g2))
    assert res == ChamberResult(False, (1, 1), ())
    f4 = RootSystem("F", 4)
    assert to_dominant_chamber(f4, (1, 1, 3, -6)).singular


def test_dominant_chamber_reduced_word_is_minimal():
    g2 = RootSystem("G", 2)
    res = to_dominant_chamber(g2, (1, -5))
    assert not res.singular and res.length == 5
    # replaying the word recovers the input
    w = res.dominant
    for i in reversed(res.word):
        w = reflect(g2, w, i)
    assert w == (1, -5)


def _brute_force_singular(rs, w):
    cur = w
    # climb ignoring walls, then test orthogonality against every coroot
    while True:
        neg = next((i for i in range(1, rs.rank + 1) if cur[i - 1] < 0), 0)
        if neg == 0:
            break
        cur = reflect(rs, cur, neg)
    return any(pair_coroot(rs, cur, beta) == 0 for beta in positive_roots(rs))


@pytest.mark.parametrize("rs", SMALL_SYSTEMS)
def test_singular_iff_orthogonal_to_some_root(rs):
    rng = random.Random(20260810)
    for _ in range(120):
        w = tuple(rng.randint(-4, 4) for _ in range(rs.rank))
        assert to_dominant_chamber(rs, w).singular == _brute_force_singular(rs, w)


@given(st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=60, deadline=None)
def test_reflection_preserves_verdict_and_changes_length_by_one(a, b):
    g2 = RootSystem("G", 2)
    w = (a, b)
    base = to_dominant_chamber(g2, w)
    for i in (1, 2):
        if w[i - 1] == 0:
            continue  # wall of s_i
        other = to_dominant_chamber(g2, reflect(g2, w, i))
        assert other.singular == base.singular
        if not base.singular:
            assert other.dominant == base.dominant
            assert abs(other.length - base.length) == 1


def test_inner_product_normalisation():
    g2 = RootSystem("G", 2)
    from fractions import Fraction

    assert inner_product_roots(g2, (1, 0), (1, 0)) == Fraction(2, 3)
    assert inner_product_roots(g2, (0, 1), (0, 1)) == 2
    f4 = RootSystem("F", 4)
    assert inner_product_roots(f4, (1, 0, 0, 0), (1, 0, 0, 0)) == 2  # long
    assert inner_product_roots(f4, (0, 0, 0, 1), (0, 0, 0, 1)) == 1  # short
    # (alpha_i, alpha_i)/2 is the d_i the integral halves scale
    for rs in SMALL_SYSTEMS:
        for i, d in enumerate(rat.root_length_halves(rs)):
            simple = tuple(int(m == i) for m in range(rs.rank))
            assert rat.root_norm_half(rs, simple) == d


@pytest.mark.parametrize("rs", SMALL_SYSTEMS)
def test_fundamental_coroot_duality(rs):
    r = rs.rank
    for i in range(1, r + 1):
        fw = tuple(1 if m == i - 1 else 0 for m in range(r))
        for j in range(1, r + 1):
            beta = tuple(1 if m == j - 1 else 0 for m in range(r))
            assert pair_coroot(rs, fw, beta) == (1 if i == j else 0)


@pytest.mark.parametrize("rs", SMALL_SYSTEMS)
def test_inner_product_weyl_invariance(rs):
    rng = random.Random(7)
    for _ in range(20):
        a = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
        b = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
        i = rng.randint(1, rs.rank)
        assert inner_product(rs, a, b) == inner_product(
            rs, reflect(rs, a, i), reflect(rs, b, i)
        )


# every type to rank 11; SMALL_SYSTEMS first keeps their ids rs0..rs5
GRAM_SYSTEMS = SMALL_SYSTEMS + [
    rs
    for rs in (
        [RootSystem("A", r) for r in range(1, 12)]
        + [RootSystem("B", r) for r in range(2, 12)]
        + [RootSystem("C", r) for r in range(2, 12)]
        + [RootSystem("D", r) for r in range(3, 12)]
        + [RootSystem("E", r) for r in (6, 7, 8)]
        + [RootSystem("F", 4), RootSystem("G", 2)]
    )
    if rs not in SMALL_SYSTEMS
]


@pytest.mark.parametrize("rs", GRAM_SYSTEMS)
def test_integral_weight_gram_is_the_scaled_form(rs):
    # D is the least integer clearing the rational form on the fundamental
    # weights; the engine sums its Gram matrix from the coroots instead
    r = rs.rank
    basis = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    form = [[inner_product(rs, a, b) for b in basis] for a in basis]
    D = lcm(*(x.denominator for row in form for x in row))
    gram = integral_weight_gram(rs)
    assert gram == tuple(tuple(D * x for x in row) for row in form)
    rng = random.Random(5)
    for _ in range(20):
        a = tuple(rng.randint(-3, 3) for _ in range(r))
        b = tuple(rng.randint(-3, 3) for _ in range(r))
        scaled = sum(a[i] * gram[i][j] * b[j] for i in range(r) for j in range(r))
        assert scaled == D * inner_product(rs, a, b)
    # the least such D: the form itself has a denominator D
    assert gcd(D, *(x for row in gram for x in row)) == 1


ALL_SYSTEMS = (
    [RootSystem("A", r) for r in range(1, 9)]
    + [RootSystem("B", r) for r in range(2, 9)]
    + [RootSystem("C", r) for r in range(2, 9)]
    + [RootSystem("D", r) for r in range(3, 9)]
    + [RootSystem("E", r) for r in (6, 7, 8)]
    + [RootSystem("F", 4), RootSystem("G", 2)]
)


@pytest.mark.parametrize("rs", ALL_SYSTEMS, ids=str)
def test_integer_coroots_match_rational_oracle(rs):
    # B, C, F and G have two root lengths: the integral halves must scale
    # (beta, beta) and beta_i d_i alike for every root, short or long
    for beta in positive_roots(rs):
        assert coroot_vector(rs, beta) == rat.coroot_vector(rs, beta), beta


def test_engine_loads_no_rational_arithmetic():
    # no module of the engine forms a Fraction: importing the whole of it
    # leaves fractions, and decimal which it loads, unimported
    code = "import sys, bwbforge.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rootdata.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
