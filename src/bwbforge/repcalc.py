"""Character arithmetic for irreducible modules of a reductive context.

A *context* is either the full group G or the reductive part L of a maximal
parabolic, described by the subset of simple-root indices that survive.
Weights always live in the AMBIENT fundamental-weight basis, so a Levi
character remembers its twist along the omitted node(s).

Characters are dicts mapping a packed weight (see ``pack``/``unpack``) to a
positive integer multiplicity; formal sums of irreducibles (IrrDecomp) are
dicts mapping highest-weight tuples to multiplicities.  Everything is exact
big-integer arithmetic, the Freudenthal recursion included: it reads the
invariant form through its integer Gram matrix B on the fundamental weights
(``rootdata.integral_weight_gram``, a positive multiple of the form), and
asserts that every multiplicity is an exact quotient; ``char_irr`` checks
the total against the Weyl dimension.

Decomposition of an arbitrary character into irreducibles uses the
rho-shifted reflection trick: each weight mu contributes sgn(w) at the
dominant representative of mu+rho (nothing on walls), which telescopes to
the multiset of highest weights, which ``decompose_character`` returns
packed, as {pack(lambda + rho): m}.  This is linear in the support size.
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
from operator import lshift, mul
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
def pack_zero(rank: int) -> int:
    return pack((0,) * rank)


def levi_mask(ctx: Context) -> int:
    """The packed fields of the coordinates in ``ctx.levi``: x & mask zeroes the others."""
    return sum(_MASK << (_BITS * (i - 1)) for i in ctx.levi)


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
    raw, size = _fields(rank), 2 * rank
    columns = list(zip(*[raw.unpack(v.to_bytes(size, "little")) for v in char]))
    return tuple(min(c) - _OFFSET for c in columns), tuple(max(c) - _OFFSET for c in columns)


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
    z = pack_zero(rank)
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


@lru_cache(maxsize=None)
def bott_kernel(ctx: Context) -> Callable[[int], Optional[Tuple[int, int]]]:
    """Borel-Weil-Bott in closed form on a packed rho-shifted weight y (Bott 1957; Kostant 1961).

    y is on a wall iff some <y, beta^v> is 0; else its climb has length q, the
    number of negative <y, beta^v>, and ends at w(y) of dimension
    prod |<y, beta^v>| / prod <rho, beta^v>.  Every pairing comes from one
    integer with a 32-bit field per positive root beta_b: C_i = sum_b <w_i,
    beta_b^v> << 32b, and P = base + sum_i u_i C_i, u_i the raw 16-bit fields
    of y, holds <y, beta_b^v> + 2^31 in field b, ``base`` folding both offsets;
    P ^ 2^31 per field reads as the signed pairings.  |<y, beta^v>| <= 2^15
    <rho, beta^v> < 2^31 keeps the fields apart.
    """
    heights, columns, den = weyl_kernel(ctx)
    n, rank, half = len(heights), ctx.rs.rank, 1 << 31
    assert _OFFSET * max(heights) < half, f"coroot pairings of {ctx} overflow 32-bit fields"
    cols = [0] * rank
    for i, col in columns:
        cols[i] = sum(map(lshift, col, range(0, 32 * n, 32)))
    low = sum(1 << 32 * b for b in range(n))
    top = low * half
    base = top - _OFFSET * sum(cols)
    raw, pairings = _fields(rank), struct.Struct(f"<{n}i")

    def bott(y: int) -> Optional[Tuple[int, int]]:
        """(q, dim V_G) for y, None on a wall."""
        p = sum(map(mul, raw.unpack(y.to_bytes(2 * rank, "little")), cols), base)
        t = p ^ top
        if (t - low) & ~t & top:  # some field of t is 0: a pairing is 0
            return None
        dim, rem = divmod(abs(prod(pairings.unpack(t.to_bytes(4 * n, "little")))), den)
        assert not rem
        return n - (p & top).bit_count(), dim

    return bott


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


def signed_climb(ctx: Context, x: int, rows) -> Optional[int]:
    """Packed ``climb`` along ``rows``: None on a wall, else pack(dominant), negated if odd."""
    rank = ctx.rs.rank
    cur = [c - _OFFSET for c in _fields(rank).unpack(x.to_bytes(2 * rank, "little"))]
    n = _climb_in_place(rows, cur)
    if n is None:
        return None
    return -pack(cur) if n & 1 else pack(cur)


@lru_cache(maxsize=None)
def _twist_free(ctx: Context) -> Tuple[int, int, Tuple[int, ...], Tuple[Tuple[int, int], ...], int]:
    """Levi-field mask, packed zero and indices of the omitted fields, (i, K_i) for
    2 rho_L^v = sum_i K_i alpha_i^v, and max |<alpha_i, alpha_j^v>| over Levi i, omitted j."""
    omitted = tuple(j - 1 for j in ctx.omitted())
    mask = levi_mask(ctx)
    zero = sum(_OFFSET << (_BITS * j) for j in omitted)
    worst = max([-simple_root_weight(ctx.rs, i)[j] for i in ctx.levi for j in omitted], default=0)
    return mask, zero, omitted, tuple((i, sum(col)) for i, col in weyl_kernel(ctx)[1]), worst


_MISSING = object()


def climb_tally(ctx: Context, char: PackedChar, shift: int, climbs, mask, zero,
                rows) -> Tuple[int, ...]:
    """Brauer-Klimyk for one shift: V(lambda) (x) M = sum m V(shift + dy - rho), flat (dy, m, ...).

    ``shift`` packs lambda + rho as an offset.  Each x = shift + nu climbs along ``rows``
    through ``climbs``, keyed by x0 = (x & mask) | zero: climb(x) = climb(x0) + (x - x0),
    so dy = climb(x0) + nu - x0 depends on the Levi part of lambda only.
    """
    tally: Dict[int, int] = {}
    for v, m in char.items():
        x0 = ((v + shift) & mask) | zero
        y = climbs.get(x0, _MISSING)
        if y is _MISSING:
            y = climbs[x0] = signed_climb(ctx, x0, rows)
        if y is not None:  # negated for an odd climb
            dy = v - x0 + abs(y)
            tally[dy] = tally.get(dy, 0) + (m if y > 0 else -m)
    return tuple(x for term in tally.items() if term[1] for x in term)


class LeviTensor:
    """V_L(lambda) (x) V_L(mu) by Brauer-Klimyk, memoised in ``table("levi_tensor", ctx)``:
    pack(mu), then the Levi fields s0 of pack(lambda + rho), maps to the
    ``climb_tally`` entry (dy, m, ...).  W_L fixes the omitted w_j (Humphreys 10.3), so
    each shift s with that Levi part yields y = s + dy.  Tables and climb rows are fetched once."""

    def __init__(self, ctx: Context):
        self.ctx, self.twist_free, self.climb_rows = ctx, _twist_free(ctx), _climb_rows(ctx)
        self.climbs, self.rows = _cache.table("climb", ctx), _cache.table("levi_tensor", ctx)

    def climb_keys(self, lo: Weight, hi: Weight) -> Tuple[dict, int, int]:
        """Range-check lo..hi, the bounds of every x; the climb table, mask and zero of its key.

        The climb adds sum_i n_i alpha_i, n_i >= 0, lowering an omitted coordinate by
        at most A sum_i n_i <= A sum_i K_i max(0, -lo_i), A = max |<alpha_i, alpha_j^v>|.
        Where that could take x or x0 below the field, x is the key, in a table of its own.
        """
        check_packable(lo, hi)
        mask, zero, omitted, coefficients, worst = self.twist_free
        drop = worst * sum(c * -lo[i] for i, c in coefficients if lo[i] < 0)
        if any(min(lo[j], 0) - drop < -_OFFSET for j in omitted):
            return {}, -1, 0
        return self.climbs, mask, zero

    def products(self, key, char: PackedChar, pairs, twist: int, lo: Weight, hi: Weight):
        """(s, n, (dy, m, ...)) per (s - twist, n, s0) of ``pairs``, lo..hi bounding each s + nu.

        ``key`` packs the highest weight of the module of ``char``; with None, or past
        the carry bound, the entries stay in this call.  m < 0 raises."""
        climbs, mask, zero = self.climb_keys(lo, hi)
        rows = {} if key is None or mask == -1 else self.rows.setdefault(key, {})
        for s, n, s0 in pairs:
            s += twist
            s0 = s if mask == -1 else s0
            entry = rows.get(s0)
            if entry is None:
                entry = climb_tally(self.ctx, char, s, climbs, mask, zero, self.climb_rows)
                if any(m < 0 for m in entry[1::2]):
                    raise AssertionError("negative multiplicity: input was not a character")
                rows[s0] = entry
            yield s, n, entry


def decompose_character(
    ctx: Context, char: PackedChar, shift: Optional[Weight] = None
) -> PackedChar:
    """Decompose a genuine (virtual-free) character into irreducibles, {pack(lambda + rho): m}.

    With a dominant ``shift`` lambda, every weight is moved by lambda first,
    which decomposes V(lambda) (x) M for M the module of ``char``
    (Brauer-Klimyk).  The extremes of the rho-shifted weights are checked
    once, so a weight that would leave the packed field raises.
    """
    if not char:
        return {}
    if shift is not None:
        _require_dominant(ctx, shift)
    lift = rho(ctx.rs) if shift is None else add(shift, rho(ctx.rs))
    lo, hi = char_extremes(char, ctx.rs.rank)
    s, lo, hi = packed_offset(lift), add(lo, lift), add(hi, lift)
    ((_, _, entry),) = LeviTensor(ctx).products(None, char, [(s, 1, s)], 0, lo, hi)
    return {s + dy: m for dy, m in zip(entry[::2], entry[1::2])}


# -- irreducible characters (Freudenthal) ------------------------------------


@lru_cache(maxsize=None)
def _freudenthal_roots(ctx: Context) -> Tuple[Tuple[Weight, Tuple[int, ...], int], ...]:
    """Per positive root beta of ctx: beta in the weight basis, B(beta, -) and B(beta, beta).

    B is the integer multiple of the invariant form given by
    ``integral_weight_gram``; B(beta, -) is a row of it, so it pairs with a
    weight by a dot product.
    """
    rs = ctx.rs
    gram = integral_weight_gram(rs)
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
    is positive; q is that of mu + alpha_i plus one, or 0 if that is no weight.
    As many weights as the Weyl dimension means every multiplicity is 1.
    Freudenthal's recursion reads higher levels through T_beta(mu) = sum_{k >= 1}
    m(mu + k beta) B(mu + k beta, beta) = T_beta(mu + beta) + m(mu + beta)
    B(mu + beta, beta), kept as many levels as a root is high.  The invariant form
    enters as its integer multiple B, whose scale cancels in the quotient, so
    no rational number is formed: every multiplicity is an exact positive
    quotient of integers, which is asserted.
    """
    rank = ctx.rs.rank
    rr = rho(ctx.rs)
    simple = list(enumerate((i - 1, simple_root_weight(ctx.rs, i)) for i in ctx.levi))
    tiers = [[lam]]
    # each weight of a level with its q per simple root, filled in as it is walked
    frontier: Dict[Weight, List[int]] = {lam: []}
    above: Dict[Weight, List[int]] = {}
    while frontier:
        nxt: Dict[Weight, List[int]] = {}
        for mu, qs in frontier.items():
            for j, (i, a) in simple:
                up = above.get(tuple([x + y for x, y in zip(mu, a)]))
                qs.append(0 if up is None else up[j] + 1)
                if qs[j] + mu[i] > 0:
                    nxt.setdefault(tuple([x - y for x, y in zip(mu, a)]), [])
        tiers.append(list(nxt))
        frontier, above = nxt, frontier
    if sum(map(len, tiers)) == weyl_dim(ctx, lam):
        return {mu: 1 for tier in tiers for mu in tier}

    roots = [(beta_w, form) for beta_w, form, _ in _freudenthal_roots(ctx)]
    reach = max(map(sum, context_positive_roots(ctx)))
    gram = integral_weight_gram(ctx.rs)

    def norm(w: Weight) -> int:
        # B(w, w)
        return sum(w[i] * w[j] * gram[i][j] for i in range(rank) for j in range(rank))

    lam_norm = norm(add(lam, rr))
    mults: Dict[Weight, int] = {lam: 1}
    strings: Dict[Weight, List[int]] = {lam: [0] * len(roots)}
    for level, tier in enumerate(tiers[1:], 1):
        for mu in tier:
            sums = []
            for b, (beta_w, form) in enumerate(roots):
                nu = tuple([x + y for x, y in zip(mu, beta_w)])
                m = mults.get(nu)
                sums.append(0 if m is None else strings[nu][b] + m * sum(map(mul, form, nu)))
            val, rem = divmod(2 * sum(sums), lam_norm - norm(add(mu, rr)))
            assert rem == 0 and val > 0, "inexact Freudenthal step"
            mults[mu], strings[mu] = val, sums
        for mu in tiers[level - reach] if level >= reach else ():
            del strings[mu]
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


@lru_cache(maxsize=None)
def _dual_columns(ctx: Context) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Nonzero (row, entry) of each column i of lam -> -w_0 lam: -w_i - rho and -rho
    are regular antidominant, so ``climb`` applies w_0 to both; column i is the difference."""
    base = tuple(-c for c in rho(ctx.rs))
    top = climb(ctx, base)[1]
    ends = (climb(ctx, base[:i] + (-2,) + base[i + 1 :])[1] for i in range(ctx.rs.rank))
    return tuple(tuple((j, a - b) for j, (a, b) in enumerate(zip(w, top)) if a != b) for w in ends)


def dual_highest_weight(ctx: Context, lam: Weight) -> Weight:
    """Highest weight -w_0 lam of the dual module, one sparse integer matrix-vector product."""
    _require_dominant(ctx, lam)
    out = [0] * len(lam)
    for c, column in zip(lam, _dual_columns(ctx)):
        if c:
            for j, a in column:
                out[j] += a * c
    return tuple(out)


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
    z = pack_zero(rank)
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
    entry: the scale of the Gram matrix cancels.
    """
    gram = integral_weight_gram(rs)
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
