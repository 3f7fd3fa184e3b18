"""Character helpers over formal sums of irreducibles, for the tests.

The engine works on packed characters and reads tensor products off
``repcalc.decompose_character`` with a shift (Brauer-Klimyk); these
convenience forms (its tuple view ``decompose``, weight multisets,
characters and dimensions of formal sums, tensor products, wedge and
symmetric powers decomposed again, the packed page form of a
decomposition) serve the tests and the oracles built on them.  ``freudenthal`` and
``dominant_rep`` are oracles of engine routines; ``serre_dual_weight``
names the Serre-duality partner of an irreducible bundle.
"""

from __future__ import annotations

from typing import Dict

from bwbforge import repcalc as rc
from bwbforge.homspace import HomSpace, fano_index
from bwbforge.rootdata import Weight, add, integral_weight_gram, rho, simple_root_weight, sub


def char_to_weights(char: rc.PackedChar, rank: int) -> Dict[Weight, int]:
    return {rc.unpack(v, rank): m for v, m in char.items()}


def page_form(X: HomSpace, decomp: rc.IrrDecomp) -> rc.PackedChar:
    """{pack(lambda + rho): n}, the form ``bwbcohom.PackedPage`` reads, of {lambda: n}."""
    return {rc.pack(add(lam, rho(X.rs))): n for lam, n in decomp.items()}


def char_dim(char: rc.PackedChar) -> int:
    return sum(char.values())


def weight_multiplicities(ctx: rc.Context, lam: Weight) -> Dict[Weight, int]:
    """Weight multiset of V_ctx(lam), in the ambient weight basis."""
    return char_to_weights(rc.char_irr(ctx, lam), ctx.rs.rank)


def decompose(ctx: rc.Context, char: rc.PackedChar, shift=None) -> rc.IrrDecomp:
    """``repcalc.decompose_character`` as {lambda: m}, unpacked."""
    rr = rho(ctx.rs)
    packed = rc.decompose_character(ctx, char, shift)
    return {sub(rc.unpack(y, ctx.rs.rank), rr): m for y, m in packed.items()}


def char_of_decomp(ctx: rc.Context, decomp: rc.IrrDecomp) -> rc.PackedChar:
    out: rc.PackedChar = {}
    for lam, m in decomp.items():
        for v, mult in rc.char_irr(ctx, lam).items():
            out[v] = out.get(v, 0) + m * mult
    return out


def decomp_dim(ctx: rc.Context, decomp: rc.IrrDecomp) -> int:
    return sum(m * rc.weyl_dim(ctx, lam) for lam, m in decomp.items())


def tensor_char(ctx: rc.Context, rep: rc.IrrDecomp, char: rc.PackedChar) -> rc.IrrDecomp:
    """Decompose rep (x) M for a formal sum ``rep`` and the character of M."""
    out: rc.IrrDecomp = {}
    for lam, m in rep.items():
        for mu, c in decompose(ctx, char, lam).items():
            out[mu] = out.get(mu, 0) + m * c
    return out


def tensor_decompose(ctx: rc.Context, a: rc.IrrDecomp, b: rc.IrrDecomp) -> rc.IrrDecomp:
    """Decompose the tensor product of two formal sums of irreducibles."""
    return tensor_char(ctx, a, char_of_decomp(ctx, b))


def exterior_power(ctx: rc.Context, rep: rc.IrrDecomp, k: int) -> rc.IrrDecomp:
    """Lambda^k of a formal sum of irreducibles, decomposed again."""
    total = decomp_dim(ctx, rep)
    if k < 0 or k > total:
        raise ValueError(f"wedge degree {k} out of range 0..{total}")
    table = rc.exterior_char_table(char_of_decomp(ctx, rep), k, ctx.rs.rank)
    return decompose(ctx, table[k])


def symmetric_power(ctx: rc.Context, rep: rc.IrrDecomp, k: int) -> rc.IrrDecomp:
    if k < 0:
        raise ValueError("symmetric degree must be nonnegative")
    table = rc.symmetric_char_table(char_of_decomp(ctx, rep), k, ctx.rs.rank)
    return decompose(ctx, table[k])


def dominant_rep(ctx: rc.Context, w: Weight) -> Weight:
    """Dominant W_L-representative of a weight, walls allowed: the dual-weight oracle.

    Reflects at the first negative coordinate of the context until none is left.
    """
    simple = [(i - 1, simple_root_weight(ctx.rs, i)) for i in ctx.levi]
    cur = list(w)
    while True:
        for i, alpha in simple:
            c = cur[i]
            if c < 0:
                cur = [x - c * a for x, a in zip(cur, alpha)]
                break
        else:
            return tuple(cur)


def freudenthal(ctx: rc.Context, lam: Weight) -> Dict[Weight, int]:
    """Weight multiplicities of V_ctx(lam) by Freudenthal's formula: the oracle of ``char_irr``.

    This is the engine's recursion as it was before the alpha_i-string depths
    were tabulated: each depth walks the string above mu, and Freudenthal's
    sum runs for every weight, even when all multiplicities are 1.

    The weights are found level by level below lam.  The alpha_i-string
    through a weight mu is unbroken and runs from mu + q alpha_i down to
    mu - (q + mu_i) alpha_i, so mu - alpha_i is a weight exactly when q + mu_i
    is positive; q is read off the weights above mu, whose levels are
    complete by then.  Freudenthal's recursion only reads higher levels.
    The invariant form enters as its integer multiple B, whose scale cancels
    in the quotient, so no rational number is formed: every multiplicity is
    an exact positive quotient of integers, which is asserted.
    """
    rank = ctx.rs.rank
    rr = rho(ctx.rs)
    simple = [(i - 1, simple_root_weight(ctx.rs, i)) for i in ctx.levi]
    levels = [lam]
    seen = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for i, a in simple:
                cand = tuple([x - y for x, y in zip(mu, a)])
                if cand in seen:
                    continue
                depth = mu[i]  # q + mu_i, q counted below
                above = tuple([x + y for x, y in zip(mu, a)])
                while above in seen:
                    depth += 1
                    above = tuple([x + y for x, y in zip(above, a)])
                if depth > 0:
                    seen.add(cand)
                    nxt.append(cand)
        levels += nxt
        frontier = nxt

    roots = rc._freudenthal_roots(ctx)
    gram = integral_weight_gram(ctx.rs)

    def norm(w: Weight) -> int:
        # B(w, w)
        return sum(w[i] * w[j] * gram[i][j] for i in range(rank) for j in range(rank))

    lam_norm = norm(add(lam, rr))
    mults: Dict[Weight, int] = {lam: 1}
    for mu in levels[1:]:
        acc = 0
        for beta_w, form, bb in roots:
            nu = tuple([x + y for x, y in zip(mu, beta_w)])
            if nu not in mults:
                continue
            # B(mu + k beta, beta) = B(mu, beta) + k B(beta, beta)
            pair = sum([x * y for x, y in zip(form, mu)])
            k = 1
            while nu in mults:
                acc += mults[nu] * (pair + k * bb)
                k += 1
                nu = tuple([x + y for x, y in zip(nu, beta_w)])
        denom = lam_norm - norm(add(mu, rr))
        val, rem = divmod(2 * acc, denom)
        assert rem == 0 and val > 0, "inexact Freudenthal step"
        mults[mu] = val
    return mults


def serre_dual_weight(X: HomSpace, lam: Weight) -> Weight:
    """Highest weight of K_X (x) E_lambda^*, the Serre-duality partner."""
    return X.twist(rc.dual_highest_weight(X.levi, lam), -fano_index(X))
