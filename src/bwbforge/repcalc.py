"""Character arithmetic for irreducible modules of a reductive context.

A *context* is either the full group G or the reductive part L of a maximal
parabolic, described by the subset of simple-root indices that survive.
Weights always live in the AMBIENT fundamental-weight basis, so a Levi
character remembers its twist along the omitted node(s).

Characters are dicts mapping a packed weight (see ``pack``/``unpack``) to a
positive integer multiplicity; formal sums of irreducibles (IrrDecomp) are
dicts mapping highest-weight tuples to multiplicities.  Everything is exact
big-integer arithmetic, the Freudenthal recursion included: it reads the
invariant form as D times itself (``rootdata.integral_weight_gram``) and
asserts that every multiplicity is an exact quotient; ``char_irr`` checks
the total against the Weyl dimension.

Decomposition of an arbitrary character into irreducibles uses the
rho-shifted reflection trick: each weight mu contributes sgn(w) at the
dominant representative of mu+rho (nothing on walls), which telescopes to
the multiset of highest weights.  This is linear in the support size.
Shifting every weight by a dominant lambda first gives V(lambda) (x) M by
Brauer-Klimyk, which is the one route for tensor products.  The rule is
symmetric in its two factors (Klimyk 1968; Humphreys, Introduction to Lie
Algebras, 24 ex. 9), so either factor may supply the weights: the Koszul
E1 page shifts the weights of a Levi irreducible V_L(mu) by the Levi
highest weights of each wedge power.

Wedge and symmetric powers have one routine as well: the per-weight
product of (1 + t x^nu), resp. 1/(1 - t x^nu), over the weights nu of the
character, truncated at the largest degree asked for.

Weights are packed 16 bits per coordinate; ``pack`` refuses a coordinate
outside the field, and code adding packed weights first checks the
per-coordinate extremes of the sum with ``check_packable``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from operator import lshift
from typing import Dict, List, Optional, Sequence, Tuple

from . import cache as _cache
from .rootdata import (
    RootSystem,
    Weight,
    add,
    coroot_vector,
    integral_weight_gram,
    positive_roots,
    rho,
    root_to_weight,
    simple_root_weight,
    sub,
)

PackedChar = Dict[int, int]
IrrDecomp = Dict[Weight, int]

_BITS = 16
_OFFSET = 1 << (_BITS - 1)
_MASK = (1 << _BITS) - 1


class NonDominantError(ValueError):
    """Raised when an operation requires a context-dominant highest weight."""


class WeightRangeError(ValueError):
    """A weight coordinate does not fit the packed field width."""


@dataclass(frozen=True)
class Context:
    """Reductive context: the ambient group restricted to ``levi`` nodes.

    ``levi`` is a sorted tuple of 1-based simple-root indices; the full set
    is the group G itself, all-but-k is the Levi of the maximal parabolic
    P_k.
    """

    rs: RootSystem
    levi: Tuple[int, ...]

    def __post_init__(self):
        if any(i < 1 or i > self.rs.rank for i in self.levi):
            raise ValueError("levi indices out of range")
        if tuple(sorted(set(self.levi))) != self.levi:
            raise ValueError("levi indices must be sorted and unique")

    @property
    def is_full(self) -> bool:
        return len(self.levi) == self.rs.rank

    def omitted(self) -> Tuple[int, ...]:
        return tuple(i for i in range(1, self.rs.rank + 1) if i not in self.levi)

    def __str__(self):
        if self.is_full:
            return str(self.rs)
        return f"{self.rs}|L{{{','.join(map(str, self.levi))}}}"


@lru_cache(maxsize=None)
def full_context(rs: RootSystem) -> Context:
    return Context(rs, tuple(range(1, rs.rank + 1)))


@lru_cache(maxsize=None)
def levi_context(rs: RootSystem, k: int) -> Context:
    """Levi of the k-th maximal parabolic (omit node k)."""
    return Context(rs, tuple(i for i in range(1, rs.rank + 1) if i != k))


def is_context_dominant(ctx: Context, lam: Weight) -> bool:
    return all(lam[i - 1] >= 0 for i in ctx.levi)


def _require_dominant(ctx: Context, lam: Weight):
    if not is_context_dominant(ctx, lam):
        raise NonDominantError(f"{lam} is not dominant for {ctx}")


# -- packed weight helpers --------------------------------------------------


def pack(w: Weight) -> int:
    v = 0
    for i, c in enumerate(w):
        if not -_OFFSET <= c < _OFFSET:
            raise WeightRangeError(f"weight {w} does not fit {_BITS}-bit packed coordinates")
        v |= (c + _OFFSET) << (_BITS * i)
    return v


@lru_cache(maxsize=None)
def _fields(rank: int) -> struct.Struct:
    """Little-endian unsigned fields of ``_BITS`` = 16 bits, one per coordinate."""
    return struct.Struct(f"<{rank}H")


def unpack(v: int, rank: int) -> Weight:
    raw = _fields(rank).unpack(v.to_bytes(2 * rank, "little"))
    return tuple([c - _OFFSET for c in raw])


@lru_cache(maxsize=None)
def _pack_zero(rank: int) -> int:
    return pack((0,) * rank)


def packed_offset(w: Weight) -> int:
    """pack(v + w) - pack(v), for every v with both sides in the field.

    ``w`` itself need not fit a field: only the sums are range-checked.
    """
    return sum(map(lshift, w, range(0, _BITS * len(w), _BITS)))


def check_packable(lo: Sequence[int], hi: Sequence[int]) -> None:
    """Refuse sums whose per-coordinate bounds ``lo``..``hi`` overflow a field.

    Packed weights add as plain integers, so a coordinate outside the field
    would carry into its neighbour and alias another weight; callers check
    the extremes of a sum once, before adding any packed values.
    """
    if any(c < -_OFFSET for c in lo) or any(c >= _OFFSET for c in hi):
        raise WeightRangeError(
            f"weights up to {tuple(lo)}..{tuple(hi)} do not fit "
            f"{_BITS}-bit packed coordinates"
        )


def char_extremes(char: PackedChar, rank: int) -> Tuple[Weight, Weight]:
    """Per-coordinate least and greatest coordinate over the weights of a character."""
    lo, hi = [], []
    for i in range(rank):
        fields = [(v >> (_BITS * i)) & _MASK for v in char]
        lo.append(min(fields) - _OFFSET)
        hi.append(max(fields) - _OFFSET)
    return tuple(lo), tuple(hi)


def char_from_weights(weights: Dict[Weight, int]) -> PackedChar:
    out: PackedChar = {}
    for w, m in weights.items():
        out[pack(w)] = out.get(pack(w), 0) + m
    return out


def conv(a: PackedChar, b: PackedChar, rank: int) -> PackedChar:
    """Pointwise convolution (character of a tensor product).

    No engine route uses it: tensor products go through Brauer-Klimyk in
    ``decompose_character`` with a shift.  The tests keep it as their
    convolution oracle.
    """
    if not a or not b:
        return {}
    (lo_a, hi_a), (lo_b, hi_b) = char_extremes(a, rank), char_extremes(b, rank)
    check_packable([x + y for x, y in zip(lo_a, lo_b)], [x + y for x, y in zip(hi_a, hi_b)])
    z = _pack_zero(rank)
    out: PackedChar = {}
    if len(a) < len(b):
        a, b = b, a
    get = out.get
    for vb, mb in b.items():
        shift = vb - z
        for va, ma in a.items():
            key = va + shift
            out[key] = get(key, 0) + ma * mb
    return {k: m for k, m in out.items() if m}


# -- context data ------------------------------------------------------------


@lru_cache(maxsize=None)
def context_positive_roots(ctx: Context) -> Tuple[Tuple[int, ...], ...]:
    """Positive roots of the context, in ambient simple-root coordinates."""
    levi = set(ctx.levi)
    out = []
    for beta in positive_roots(ctx.rs):
        if all(c == 0 or (i + 1) in levi for i, c in enumerate(beta)):
            out.append(beta)
    return tuple(out)


@lru_cache(maxsize=None)
def weyl_kernel(
    ctx: Context,
) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, Tuple[int, ...]], ...], int]:
    """Per-context data of the Weyl dimension formula, over the positive roots beta.

    The heights <rho, beta^v>; for each coordinate i on which some coroot is
    nonzero, the column (i, (<w_i, beta^v>)_beta); and the denominator, the
    product of the heights.
    """
    vecs = [coroot_vector(ctx.rs, beta) for beta in context_positive_roots(ctx)]
    heights = tuple(sum(k) for k in vecs)
    columns = tuple((i, col) for i, col in enumerate(zip(*vecs)) if any(col))
    return heights, columns, prod(heights)


def weyl_dim(ctx: Context, lam: Weight) -> int:
    """Dimension of the irreducible ctx-module with highest weight ``lam``.

    Weyl's formula prod_beta <lam + rho, beta^v> / <rho, beta^v> over the
    positive roots of the context, in integers: the factors are the heights
    plus lam_i times the coroot column of each nonzero coordinate i, and the
    constant denominator comes with the context (``weyl_kernel``).  The
    quotient is asserted exact; results are memoised per context.
    """
    memo = _cache.table("dim", ctx)
    got = memo.get(lam)
    if got is not None:
        return got
    _require_dominant(ctx, lam)
    heights, columns, den = weyl_kernel(ctx)
    factors = heights
    for i, col in columns:
        c = lam[i]
        if c:
            factors = [f + c * x for f, x in zip(factors, col)]
    num = prod(factors)
    assert num % den == 0
    memo[lam] = num // den
    return num // den


def dominant_rep(ctx: Context, w: Weight) -> Weight:
    """Dominant W_L-representative of a weight (zeros allowed, no word)."""
    rows = _climb_rows(ctx)
    cur = list(w)
    while True:
        for i, alpha in rows:
            c = cur[i]
            if c < 0:
                break
        else:
            return tuple(cur)
        for j, a in alpha:
            cur[j] -= c * a


@lru_cache(maxsize=None)
def _climb_rows(ctx: Context) -> Tuple[Tuple[int, Tuple[Tuple[int, int], ...]], ...]:
    """(i, nonzero (j, alpha[j])) per simple root alpha of ctx: at most 4 Cartan entries."""
    return tuple(
        (i - 1, tuple((j, a) for j, a in enumerate(simple_root_weight(ctx.rs, i)) if a))
        for i in ctx.levi
    )


def _climb_in_place(rows, cur: List[int]) -> Optional[int]:
    """Climb the list ``cur`` in place; the number of reflections, or None on a wall."""
    for i, _ in rows:
        if cur[i] == 0:
            return None
    n = 0
    while True:
        for i, alpha in rows:
            c = cur[i]
            if c <= 0:
                break
        else:
            return n
        if c == 0:
            return None
        for j, a in alpha:
            cur[j] -= c * a
        n += 1


def climb(ctx: Context, w: Weight) -> Optional[Tuple[int, Weight]]:
    """Push a rho-shifted weight into the dominant chamber of the context's Weyl group.

    Returns None if the weight lies on a wall, otherwise (number of simple
    reflections applied, dominant representative).  Reflecting at the
    smallest negative index gives a reduced word, so the count is the length
    of the climbing element, as in ``to_dominant_chamber`` restricted to the
    context's indices.  Walls are Weyl-invariant, so a zero coordinate is
    looked for in ``w`` and then only up to the index of each reflection:
    a weight on a wall reaches one before it could end dominant.  A
    reflection updates one list in place, on the nonzero entries of its root.
    """
    cur = list(w)
    n = _climb_in_place(_climb_rows(ctx), cur)
    return None if n is None else (n, tuple(cur))


def signed_climb(ctx: Context, x: int) -> Optional[int]:
    """Packed ``climb``: None on a wall, else pack(dominant), negated for an odd length."""
    rank = ctx.rs.rank
    cur = [c - _OFFSET for c in _fields(rank).unpack(x.to_bytes(2 * rank, "little"))]
    n = _climb_in_place(_climb_rows(ctx), cur)
    if n is None:
        return None
    return -pack(cur) if n & 1 else pack(cur)


_MISSING = object()


def climb_tally(
    ctx: Context, char: PackedChar, shifts: Sequence[Tuple[int, int]]
) -> Dict[int, int]:
    """Brauer-Klimyk: {y: m} for sum_s n_s x^s (x) M, y packed rho-shifted highest weights.

    ``shifts`` holds range-checked pairs (packed offset of s + rho, n_s).  Each
    x = s + nu + rho is climbed once per context (``table("climb", ctx)``); a
    negative sum per y means ``char`` was not a character, and raises.
    """
    memo = _cache.table("climb", ctx)
    tally: Dict[Optional[int], int] = {}
    for shift, n in shifts:
        for v, m in char.items():
            x = v + shift
            y = memo.get(x, _MISSING)
            if y is _MISSING:
                y = memo[x] = signed_climb(ctx, x)
            tally[y] = tally.get(y, 0) + n * m
    tally.pop(None, None)
    out: Dict[int, int] = {}
    for y, m in tally.items():
        if y < 0:
            y, m = -y, -m
        out[y] = out.get(y, 0) + m
    if any(m < 0 for m in out.values()):
        raise AssertionError("negative multiplicity: input was not a character")
    return {y: m for y, m in out.items() if m}


def decompose_character(
    ctx: Context, char: PackedChar, shift: Optional[Weight] = None
) -> IrrDecomp:
    """Decompose a genuine (virtual-free) character into irreducibles.

    With a dominant ``shift`` lambda, every weight is moved by lambda first,
    which decomposes V(lambda) (x) M for M the module of ``char``
    (Brauer-Klimyk).  The extremes of the rho-shifted weights are checked
    once, so a weight that would leave the packed field raises.
    """
    if not char:
        return {}
    rank = ctx.rs.rank
    if shift is None:
        lift = rho(ctx.rs)
    else:
        _require_dominant(ctx, shift)
        lift = add(shift, rho(ctx.rs))
    lo, hi = char_extremes(char, rank)
    check_packable(add(lo, lift), add(hi, lift))
    tally = climb_tally(ctx, char, [(packed_offset(lift), 1)])
    return {sub(unpack(y, rank), rho(ctx.rs)): m for y, m in tally.items()}


# -- irreducible characters (Freudenthal) ------------------------------------


@lru_cache(maxsize=None)
def _freudenthal_roots(ctx: Context) -> Tuple[Tuple[Weight, Tuple[int, ...], int], ...]:
    """Per positive root beta of ctx: beta in the weight basis, D (beta, -) and D (beta, beta).

    D (beta, -) is a row of D times the invariant form (``integral_weight_gram``),
    so it pairs with a weight by a dot product.
    """
    rs = ctx.rs
    _, gram = integral_weight_gram(rs)
    out = []
    for b in context_positive_roots(ctx):
        beta_w = root_to_weight(rs, b)
        form = tuple(sum(x * row[j] for x, row in zip(beta_w, gram)) for j in range(rs.rank))
        out.append((beta_w, form, sum(x * y for x, y in zip(form, beta_w))))
    return tuple(out)


def _freudenthal(ctx: Context, lam: Weight) -> Dict[Weight, int]:
    """Weight multiplicities of V_ctx(lam) by Freudenthal's formula, in integers.

    The weights are found level by level below lam.  The alpha_i-string
    through a weight mu is unbroken and runs from mu + q alpha_i down to
    mu - (q + mu_i) alpha_i, so mu - alpha_i is a weight exactly when q + mu_i
    is positive; q is read off the weights above mu, whose levels are
    complete by then.  Freudenthal's recursion only reads higher levels.
    The invariant form enters as D times itself, so no rational number is
    formed: every multiplicity is an exact positive quotient of integers,
    which is asserted.
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

    roots = _freudenthal_roots(ctx)
    _, gram = integral_weight_gram(ctx.rs)

    def norm(w: Weight) -> int:
        # D (w, w)
        return sum(w[i] * w[j] * gram[i][j] for i in range(rank) for j in range(rank))

    lam_norm = norm(add(lam, rr))
    mults: Dict[Weight, int] = {lam: 1}
    for mu in levels[1:]:
        acc = 0
        for beta_w, form, bb in roots:
            nu = tuple([x + y for x, y in zip(mu, beta_w)])
            if nu not in mults:
                continue
            # D (mu + k beta, beta) = D (mu, beta) + k D (beta, beta)
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


def char_irr(ctx: Context, lam: Weight) -> PackedChar:
    """Character of the irreducible ctx-module with highest weight lam.

    On a Levi context the part of lam at the omitted nodes is a character
    of L, so Freudenthal runs once on lam with those coordinates zeroed
    (one ``char`` entry per module) and the weights are shifted by the rest.
    """
    _require_dominant(ctx, lam)
    base = tuple(c if i + 1 in ctx.levi else 0 for i, c in enumerate(lam))
    if base != lam:
        twist, char = sub(lam, base), char_irr(ctx, base)
        check_packable(*(add(e, twist) for e in char_extremes(char, ctx.rs.rank)))
        offset = packed_offset(twist)
        return {v + offset: m for v, m in char.items()}

    def compute():
        mults = _freudenthal(ctx, lam)
        total = sum(mults.values())
        expected = weyl_dim(ctx, lam)
        assert total == expected, f"Freudenthal total {total} != Weyl dim {expected}"
        return char_from_weights(mults)

    return _cache.memo("char", (str(ctx), lam), compute)


# -- duals and plethysms -----------------------------------------------------


def dual_highest_weight(ctx: Context, lam: Weight) -> Weight:
    """Highest weight of the dual module: dominant representative of -lam."""
    _require_dominant(ctx, lam)
    return dominant_rep(ctx, tuple(-c for c in lam))


def power_extremes(
    char: PackedChar, kmax: int, rank: int, exterior: bool = True
) -> Tuple[Weight, Weight]:
    """Per-coordinate extremes over the weights of degrees 0..kmax.

    A weight of Lambda^p is a sum of p weights of ``char`` taken without
    repetition, one of S^p with repetition; the least (greatest) coordinate
    sums the negative (positive) ones among the kmax smallest (largest), and
    both are attained.
    """
    lo, hi = [], []
    for i in range(rank):
        coords = sorted(
            c
            for v, m in char.items()
            for c in [((v >> (_BITS * i)) & _MASK) - _OFFSET] * (m if exterior else kmax)
        )
        lo.append(sum(c for c in coords[:kmax] if c < 0))
        hi.append(sum(c for c in coords[::-1][:kmax] if c > 0))
    return tuple(lo), tuple(hi)


def _power_table(
    char: PackedChar, kmax: int, rank: int, exterior: bool
) -> List[PackedChar]:
    """Degrees 0..kmax of prod (1 + t x^nu) or prod 1/(1 - t x^nu) over wt(char)."""
    check_packable(*power_extremes(char, kmax, rank, exterior))
    z = _pack_zero(rank)
    table: List[PackedChar] = [{z: 1}] + [{} for _ in range(kmax)]
    # descending p reads degree p-1 before this factor touches it (one copy
    # of x^nu); ascending p reads it after, which sums every power of x^nu
    degrees = range(kmax, 0, -1) if exterior else range(1, kmax + 1)
    for v, m in sorted(char.items()):
        shift = v - z
        for _ in range(m):
            for p in degrees:
                target = table[p]
                get = target.get
                for key, c in table[p - 1].items():
                    key += shift
                    target[key] = get(key, 0) + c
    return table


def exterior_char_table(char: PackedChar, kmax: int, rank: int) -> List[PackedChar]:
    """Characters of Lambda^0..Lambda^kmax: the per-weight product of (1 + t x^nu)."""
    return _power_table(char, kmax, rank, exterior=True)


def symmetric_char_table(char: PackedChar, kmax: int, rank: int) -> List[PackedChar]:
    """Characters of S^0..S^kmax: the per-weight product of 1/(1 - t x^nu).

    No engine route uses it; the tests build S^2 F^* with it for their
    h^{2,2} oracle.
    """
    return _power_table(char, kmax, rank, exterior=False)


@lru_cache(maxsize=None)
def invariant_form(rs: RootSystem, k: int) -> Tuple[Tuple[int, ...], int]:
    """Column k of ``integral_weight_gram`` and its diagonal entry.

    lam -> (lam, w_k)/(w_k, w_k) is the dot product with the column over the
    entry: the scale D of the Gram matrix cancels.
    """
    _, gram = integral_weight_gram(rs)
    return tuple(row[k - 1] for row in gram), gram[k - 1][k - 1]


def sum_of_weights(ctx: Context, lam: Weight) -> Weight:
    """Sum over the weight multiset of V_ctx(lam); Levi coordinates vanish.

    Only defined for a Levi context with exactly one omitted node k: the
    surviving coordinate at k is the determinant twist.

    The weights are W_L-stable, so their sum is W_L-invariant, hence a
    multiple of w_k, the only fundamental weight orthogonal to every Levi
    root.  Pairing with w_k gives dim V_L(lam) * (lam, w_k)/(w_k, w_k) * w_k,
    read off the integral Gram matrix with the quotient asserted exact.  The
    multiplicity-weighted sum from Freudenthal agrees (property-tested).
    """
    if len(ctx.omitted()) != 1:
        raise ValueError("sum_of_weights needs a Levi context omitting one node")
    k = ctx.omitted()[0]
    column, norm = invariant_form(ctx.rs, k)
    total, rem = divmod(weyl_dim(ctx, lam) * sum(c * x for c, x in zip(column, lam)), norm)
    assert rem == 0
    return tuple(total if i == k - 1 else 0 for i in range(ctx.rs.rank))
