"""Rational root-data routines, kept as oracles for the integer engine.

The engine reads root data, Weyl dimensions and weight sums in integers
only.  These are the textbook rational forms of the same quantities: the
root lengths with long roots normalised to (alpha, alpha) = 2, the inverse
of the Cartan matrix, the invariant form as a double sum over simple-root
coordinates, coroots as 2 beta / (beta, beta), Weyl's product of rational
quotients, the weight sum of a Levi module from Freudenthal's
multiplicities, and the closed ``dex`` formulas for Grassmannians,
symplectic Grassmannians and spinor varieties.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Tuple

from bwbforge import repcalc as rc
from bwbforge.homspace import HomSpace, bundle_rank
from bwbforge.rootdata import (
    Root,
    RootSystem,
    Weight,
    add,
    cartan_matrix,
    rho,
    root_to_weight,
)

from char_helpers import weight_multiplicities


def root_length_halves(rs: RootSystem) -> Tuple[Fraction, ...]:
    """d_i = (alpha_i, alpha_i)/2 with long roots normalised to d = 1."""
    r = rs.rank
    if rs.family in ("A", "D", "E"):
        return tuple([Fraction(1)] * r)
    if rs.family == "B":
        return tuple([Fraction(1)] * (r - 1) + [Fraction(1, 2)])
    if rs.family == "C":
        return tuple([Fraction(1, 2)] * (r - 1) + [Fraction(1)])
    if rs.family == "F":
        return (Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 2))
    return (Fraction(1, 3), Fraction(1))  # G2


@lru_cache(maxsize=None)
def weight_to_root_matrix(rs: RootSystem) -> Tuple[Tuple[Fraction, ...], ...]:
    """Inverse of the Cartan matrix, by Gauss-Jordan: weight coords -> simple-root coords."""
    r = rs.rank
    A = [[Fraction(x) for x in row] for row in cartan_matrix(rs)]
    inv = [[Fraction(1) if i == j else Fraction(0) for j in range(r)] for i in range(r)]
    for col in range(r):
        piv = next(row for row in range(col, r) if A[row][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        pv = A[col][col]
        A[col] = [x / pv for x in A[col]]
        inv[col] = [x / pv for x in inv[col]]
        for row in range(r):
            if row != col and A[row][col] != 0:
                f = A[row][col]
                A[row] = [x - f * y for x, y in zip(A[row], A[col])]
                inv[row] = [x - f * y for x, y in zip(inv[row], inv[col])]
    return tuple(tuple(row) for row in inv)


@lru_cache(maxsize=None)
def root_gram(rs: RootSystem) -> Tuple[Tuple[Fraction, ...], ...]:
    """B[i][j] = (alpha_i, alpha_j)."""
    r = rs.rank
    d = root_length_halves(rs)
    B = [[Fraction(0)] * r for _ in range(r)]
    for i in range(r):
        B[i][i] = 2 * d[i]
    for a, b in rs.edges():
        i, j = a - 1, b - 1
        B[i][j] = B[j][i] = -max(d[i], d[j])
    return tuple(tuple(row) for row in B)


def inner_product_roots(rs: RootSystem, x: Root, y: Root) -> Fraction:
    B = root_gram(rs)
    r = rs.rank
    return sum(Fraction(x[i]) * B[i][j] * y[j] for i in range(r) for j in range(r))


def root_norm_half(rs: RootSystem, beta: Root) -> Fraction:
    """(beta, beta)/2 for a root in simple-root coordinates."""
    return inner_product_roots(rs, beta, beta) / 2


@lru_cache(maxsize=None)
def weight_to_root_coords(rs: RootSystem, w: Weight) -> Tuple[Fraction, ...]:
    inv = weight_to_root_matrix(rs)
    r = rs.rank
    return tuple(sum(inv[i][j] * w[j] for j in range(r)) for i in range(r))


def inner_product(rs: RootSystem, a: Weight, b: Weight) -> Fraction:
    """W-invariant form on weights, long roots of squared length 2."""
    ra = weight_to_root_coords(rs, a)
    rb = weight_to_root_coords(rs, b)
    B = root_gram(rs)
    r = rs.rank
    return sum(ra[i] * B[i][j] * rb[j] for i in range(r) for j in range(r))


def coroot_vector(rs: RootSystem, beta: Root) -> Tuple[Fraction, ...]:
    """(<w_i, beta^v>)_i with beta^v = 2 beta / (beta, beta), by the weight form."""
    bw = root_to_weight(rs, beta)
    norm = inner_product(rs, bw, bw)
    basis = [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
    return tuple(2 * inner_product(rs, w, bw) / norm for w in basis)


def weyl_dim(ctx: rc.Context, lam: Weight) -> Fraction:
    """prod_beta (lam + rho, beta)/(rho, beta) over the positive roots of ctx."""
    rs = ctx.rs
    shifted = add(lam, rho(rs))
    out = Fraction(1)
    for beta in rc.context_positive_roots(ctx):
        bw = root_to_weight(rs, beta)
        out *= inner_product(rs, shifted, bw) / inner_product(rs, rho(rs), bw)
    return out


def sum_of_weights_bruteforce(ctx: rc.Context, lam: Weight) -> Weight:
    """Multiplicity-weighted weight sum via Freudenthal."""
    rank = ctx.rs.rank
    total = [0] * rank
    for w, m in weight_multiplicities(ctx, lam).items():
        for i in range(rank):
            total[i] += m * w[i]
    return tuple(total)


def dex_closed_form(X: HomSpace, lam: Weight) -> int:
    """Closed forms for Grassmannians, symplectic Grassmannians and spinor
    varieties; raises for spaces where no closed form is on record."""
    if not rc.is_context_dominant(X.levi, lam):
        raise rc.NonDominantError(f"{lam} not P{X.k}-dominant")
    r = X.rs.rank
    k = X.k
    fam = X.rs.family
    rank_e = Fraction(bundle_rank(X, lam))

    def tail(j):  # sum_{i=j}^{r} lam_i with 1-based j
        return sum(lam[i - 1] for i in range(j, r + 1))

    if fam == "A":
        val = (
            Fraction(sum(tail(j) for j in range(1, k + 1)), k)
            - Fraction(sum(tail(j) for j in range(k + 1, r + 1)), r + 1 - k)
        ) * rank_e
    elif fam == "C":
        val = Fraction(sum(tail(j) for j in range(1, k + 1)), k) * rank_e
    elif fam == "D" and k in (r - 1, r):
        mu = list(lam)
        if k == r - 1:  # the two spinor half-spaces swap under the flip
            mu[r - 2], mu[r - 1] = mu[r - 1], mu[r - 2]
        # epsilon-coordinate sum: a_m = sum_{j>=m, j<=r-2} mu_j + (mu_{r-1}+mu_r)/2
        # for m <= r-2, a_{r-1} = (mu_{r-1}+mu_r)/2, a_r = (mu_r - mu_{r-1})/2.
        # (The half-spin term enters r-1 times plus the signed tail, not r
        # times: the two readings agree exactly when mu_{r-1} = 0.)
        body = (
            sum(sum(mu[i - 1] for i in range(j, r - 1)) for j in range(1, r - 1))
            + (r - 1) * Fraction(mu[r - 2] + mu[r - 1], 2)
            + Fraction(mu[r - 1] - mu[r - 2], 2)
        )
        val = 2 * Fraction(body, r) * rank_e
    else:
        raise ValueError(f"no closed dex formula for {X}")
    assert val.denominator == 1
    return int(val)
