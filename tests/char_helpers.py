"""Character helpers over formal sums of irreducibles, for the tests.

The engine works on packed characters and reads tensor products off
``repcalc.LeviTensor`` (Brauer-Klimyk); these convenience forms (the
tuple view ``decompose`` of ``repcalc.decompose_character``, with the
optional Brauer-Klimyk shift of the tests, weight multisets,
characters and dimensions of formal sums, tensor products, wedge and
symmetric powers decomposed again, the packed page form of a
decomposition, the tuple views ``wedge_decomps`` of the wedge powers of
the bundle of a locus) serve the tests and the oracles built on them.  ``freudenthal``,
``dominant_rep``, ``dual_highest_weight``, ``koszul_dual_pages_oracle``,
``running_product_pages_oracle`` and ``e1_page_per_term`` are oracles of
engine routines;
``serre_dual_weight`` names the Serre-duality partner of an irreducible
bundle.
"""

from __future__ import annotations

from math import comb
from typing import Dict, List

from bwbforge import cache, koszul
from bwbforge import repcalc as rc
from bwbforge.homspace import HomSpace, fano_index
from bwbforge.koszul import BundleSum, PackedPage, ZeroLocus
from bwbforge.rootdata import Weight, add, integral_weight_gram, rho, simple_root_weight, sub


def char_to_weights(char: rc.PackedChar, rank: int) -> Dict[Weight, int]:
    return {rc.unpack(v, rank): m for v, m in char.items()}


def page_form(X: HomSpace, decomp: rc.IrrDecomp) -> rc.PackedChar:
    """{pack(lambda + rho): n}, the form ``koszul.PackedPage`` reads, of {lambda: n}."""
    return {rc.pack(add(lam, rho(X.rs))): n for lam, n in decomp.items()}


def dual_highest_weight(ctx: rc.Context, lam: Weight) -> Weight:
    """Highest weight -w_0 lam of the dual module, the one-point box of ``repcalc.dual_extremes``."""
    return rc.dual_extremes(ctx, lam, lam)[0]


def wedge_decomps(Z: ZeroLocus) -> List[rc.IrrDecomp]:
    """{lambda: m} of Lambda^p F^*, p = 0..rank(F), by ``koszul.wedge_decomp``."""
    return [koszul.wedge_decomp(Z.bundle, p) for p in range(Z.bundle.rank + 1)]


def koszul_dual_pages_oracle(F: BundleSum) -> List[PackedPage]:
    """Pages of Lambda^a F'^*, a > f' // 2, F' the module summands of F, by Koszul duality on
    tuples: the oracle of the top half of ``koszul.read_plan(F).pages``.

    Degree f' - a is (Lambda^a F'^*)^* (x) det F'^*, det F'^* = O(-dex F'), each highest weight
    unpacked, dualised by ``dual_highest_weight`` and packed again:
    dual(lam + T w_k) = dual(lam) - T w_k, so a page twist T turns into -T - dex.
    """
    X, pages, rr = F.X, koszul.read_plan(F).pages, rho(F.X.rs)
    modules = BundleSum(X, tuple(s for s in F.summands if rc.weyl_dim(X.levi, s[0]) > 1))
    f, dex = modules.rank, modules.dex
    return [
        PackedPage(X, {rc.pack(add(X.twist(dual_highest_weight(X.levi, lam), g.twist), rr)): n
                       for lam, n in g.decomp(X).items()}, -g.twist - dex)
        for g in (pages[f - p] for p in range(f // 2 + 1, f + 1))
    ]


def running_product_pages_oracle(Z: ZeroLocus) -> List[PackedPage]:
    """Pages of Lambda^p F^*, p = 0..f, with the lines as factors: ``koszul.wedge_decomp``'s oracle.

    Every summand of F^*, largest first, multiplies its pages into a running product by
    ``koszul._graded_product`` up to f // 2: a module's m copies one at a time, the m copies of a
    line O(t) as one factor of pages C(m, c) O(c t).  Degree f - p is the dual of degree p
    twisted by det F^* = O(-dex F), ``PackedPage.dual``.
    """
    X, levi, k, rr = Z.space, Z.space.levi, Z.space.k - 1, rho(Z.space.rs)
    f, half, dex = Z.bundle.rank, Z.bundle.rank // 2, Z.bundle.dex
    graded = [PackedPage(X, {rc.pack(rr): 1})]
    for lam, m in sorted(Z.bundle.dual().summands, key=lambda s: -rc.weyl_dim(levi, s[0])):
        if rc.weyl_dim(levi, lam) == 1:
            factors = [[PackedPage(X, {rc.pack(rr): comb(m, c)}, c * lam[k])
                        for c in range(min(m, half) + 1)]]
        else:
            factors = [koszul._exterior_pages(X, lam, half)] * m
        for powers in factors:
            graded = powers if len(graded) == 1 else koszul._graded_product(X, graded, powers, half)
    return graded + [graded[f - p].dual(X, dex) for p in range(half + 1, f + 1)]


def tensor_cohomology(X: HomSpace, page, t: int, char: rc.PackedChar, extremes) -> Dict[int, int]:
    """Dimensions of H^q(X, E(t) (x) M), E the ``koszul.PackedPage`` ``page``, M the L-module of
    ``char`` with its weights in ``extremes``: the oracle of the E1 read of ``koszul.e1_page``.

    The page alone is range-checked, then Brauer-Klimyk by ``repcalc.climb_tally`` per highest
    weight, every x climbed on its own (no key, no table; m < 0 raises), then Bott's theorem per
    irreducible y straight from ``repcalc.bott_kernel``, with no ``table("bwb", X)``.
    """
    line = X.line(t + page.twist)
    lo, hi = ([a + b + c for a, b, c in zip(end, e, line)]
              for end, e in zip((page.lo, page.hi), extremes))
    rc.check_packable(lo, hi)
    off, rows = rc.packed_offset(line), rc._climb_rows(X.levi)
    bott, out = rc.bott_kernel(X.group), {}
    for s, n, _ in page.pairs:
        s += off
        entry = rc.climb_tally(X.levi, char, s, {}, -1, 0, rows)
        if any(m < 0 for m in entry[1::2]):
            raise AssertionError("negative multiplicity: input was not a character")
        for dy, m in zip(entry[::2], entry[1::2]):
            got = bott(s + dy)
            if got is not None:
                q, dim = got
                out[q] = out.get(q, 0) + n * m * dim
    return out


def e1_page_per_term(Z: ZeroLocus, E) -> Dict[tuple, int]:
    """``koszul.e1_page`` read once per irreducible E_mu, page a and term (c, T, C) of the lines,
    each product sent to Bott's theorem on its own: the oracle of the merged read.

    The same range checks, ``levi_tensor`` rows and ``table("bwb", X)`` as the engine; the read
    of E_mu, page a and term (c, T, C) is shifted by (page twist + T + t) w_k and added C times
    at p = a + c.
    """
    X = Z.space
    k, rank, levi = X.k - 1, X.rs.rank, X.levi
    if E is None:
        E = BundleSum.make(X, {(0,) * rank: 1})
    plan = koszul.read_plan(Z.bundle)
    tensor, bwbs, bott = rc.LeviTensor(levi), cache.table("bwb", X), rc.bott_kernel(X.group)
    unit, flat = rc.packed_offset(X.line(1)), rc.pack(rho(X.rs)) & rc.levi_mask(levi)
    entries: Dict[tuple, int] = {}
    for j, graded in enumerate(E.gradeds):
        for mu, mult in graded:
            t, mu0 = mu[k], X.twist(mu, -mu[k])
            key, reads = rc.pack(mu0), {}
            for lines, hull in plan.hulls.items():
                if lines:
                    rc.check_packable(*koszul._box(X, hull, (mu0, mu0), t))
                    reads[lines] = {flat: (key, 1)}, None
                else:
                    char = rc.char_irr(levi, mu0)
                    box = koszul._box(X, hull, rc.char_extremes(char, rank), t)
                    reads[lines] = tensor.reader(key, char, *box)
            for a, page in enumerate(plan.pages):
                rows, fill = reads[page.lines]
                for c, T, C in plan.terms:
                    shift, row = (page.twist + T + t) * unit, {}
                    for s, n, s0 in page.pairs:
                        s += shift
                        terms = iter(rows.get(s0) or fill(s, s0))
                        for dy, m in zip(terms, terms):
                            y = s + dy
                            got = bwbs.get(y, False)
                            if got is False:
                                got = bwbs[y] = bott(y)
                            if got is not None:
                                q, dim = got
                                row[q] = row.get(q, 0) + n * m * dim
                    for q, n in row.items():
                        entries[(a + c, j, q)] = entries.get((a + c, j, q), 0) + mult * C * n
    return dict(sorted((key, v) for key, v in entries.items() if v))


def char_dim(char: rc.PackedChar) -> int:
    return sum(char.values())


def weight_multiplicities(ctx: rc.Context, lam: Weight) -> Dict[Weight, int]:
    """Weight multiset of V_ctx(lam), in the ambient weight basis."""
    return char_to_weights(rc.char_irr(ctx, lam), ctx.rs.rank)


def decompose(ctx: rc.Context, char: rc.PackedChar, shift=None) -> rc.IrrDecomp:
    """``repcalc.decompose_character`` as {lambda: m}, unpacked.

    With a dominant ``shift`` lambda, every weight is moved by lambda first,
    which decomposes V(lambda) (x) M for M the module of ``char``
    (Brauer-Klimyk), on the engine's ``LeviTensor`` with the same range check.
    """
    rr = rho(ctx.rs)
    if shift is None:
        packed = rc.decompose_character(ctx, char)
    elif not rc.is_context_dominant(ctx, shift):
        raise rc.NonDominantError(f"{shift} is not dominant for {ctx}")
    elif not char:
        packed = {}
    else:
        lift, (lo, hi) = add(shift, rr), rc.char_extremes(char, ctx.rs.rank)
        s, lo, hi = rc.packed_offset(lift), add(lo, lift), add(hi, lift)
        entry = rc.LeviTensor(ctx).reader(None, char, lo, hi)[1](s, s)
        packed = {s + dy: m for dy, m in zip(entry[::2], entry[1::2])}
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
    return X.twist(dual_highest_weight(X.levi, lam), -fano_index(X))
