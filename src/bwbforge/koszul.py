"""Zero loci of general sections: Koszul resolutions and restricted cohomology.

For Z the zero locus of a general section of a completely reducible bundle F
of rank f on X, the Koszul complex resolves O_Z by the wedge powers of F^*.
Tensoring with any bundle E and taking hypercohomology computes H^*(Z, E|_Z)
purely from Borel-Weil-Bott data.

The wedge powers are packed pages, {pack(lambda + rho): m} and a twist out
of the fields, per degree.  F = F' + lines, F' the module summands:
Lambda(A + B) = Lambda(A) (x) Lambda(B), so ``read_plan`` multiplies the
exterior powers of each module summand of F'^* into a running product by
Brauer-Klimyk, up to half the rank f' of F', keeping every weight packed;
Koszul duality, Lambda^{f'-a} F'^* = (Lambda^a F'^*)^* (x) det F'^*, gives
the rest, once per F, by one packed affine map per weight
(``repcalc.dual_kernel``).  The lines enter no product: Lambda^c of
O(t_1)^{m_1} + ... is the polynomial of twists prod_i sum_c C(m_i, c)
O(-c t_i), so Lambda^p F^* is the sum over a + c = p of its terms times
Lambda^a F'^*.  No character of a whole Lambda^p F^* is built, and the E_1
route unpacks no page but the right factor of each product step.
``e1_page`` reads each E_1 entry off by Brauer-Klimyk on the Levi side, per
irreducible piece E_mu of E and page a, on those same pages, merged per page
and graded piece, then Bott's theorem once per weight of that and term of the
lines, a twist of the read: no tensor product is ever expanded.  A module read, there or in
a product step, is range-checked once over the hull of its pages; a page of
lines needs only the weight mu0, and no climb.  ``wedge_decomp`` sums the
tuple views of those pages, ``PackedPage.decomp``, twisted by the terms, into
Lambda^p F^* itself, for ``ext``.

F must be generated by its sections, or the Koszul complex does not
resolve O_Z: ``ZeroLocus`` refuses a summand whose weight is not
G-dominant, since such a summand has no sections at all.
A rank-0 F gives Z = X and a page with only p = 0, and that is how the
cohomology of a filtered bundle on X itself is computed.

Degeneration of the spectral sequence is never assumed: ``_spectral_solve``
cancels entries only where the abutment forces it (total degrees outside
0..dim Z must die), and certifies a dimension only where every rank the
integer interval kernel ``narrow`` allows gives it; ``hodge`` chases the
conormal sequence on the same kernel.  Anything else is reported as bounds.
"""

from __future__ import annotations

from math import comb
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from . import cache as _cache
from . import repcalc as rc
from .bwbcohom import check_p_dominant
from .bwbcohom import bundle_cohomology  # noqa: F401  (bench/test_bench.py wraps this binding)
from .homspace import HomSpace, dex, dimension, fano_index
from .rootdata import Weight, add, rho, sub, validated_make


def w_digits_ambiguous(digits: str, rank: int) -> bool:
    """Whether two adjacent digits of ``w<digits>`` also name a node 10..rank."""
    return any(10 <= int(digits[i : i + 2]) <= rank for i in range(len(digits) - 1))


class BundleSum(NamedTuple):
    """Completely reducible equivariant bundle: multiset of P-dominant weights.

    Twists are absorbed into the weights: E_lambda(t) is stored as
    lambda + t*w_k.
    """

    X: HomSpace
    summands: Tuple[Tuple[Weight, int], ...]

    @staticmethod
    def make(X: HomSpace, weights: Dict[Weight, int]) -> "BundleSum":
        for lam, mult in weights.items():
            if mult <= 0:
                raise ValueError("summand multiplicities must be positive")
            check_p_dominant(X, lam)
        return BundleSum(X, tuple(sorted(weights.items())))

    def as_dict(self) -> rc.IrrDecomp:
        return dict(self.summands)

    @property
    def gradeds(self) -> Tuple[Tuple[Tuple[Weight, int], ...], ...]:
        """One graded piece, the whole sum: the shape of ``FilteredBundle.gradeds``."""
        return (self.summands,)

    @property
    def rank(self) -> int:
        return sum(m * rc.weyl_dim(self.X.levi, lam) for lam, m in self.summands)

    @property
    def dex(self) -> int:
        return sum(m * dex(self.X, lam) for lam, m in self.summands)

    def dual(self) -> "BundleSum":
        """The dual summands, each by ``PackedPage.dual``, its twist kept out of the fields."""
        X, rr, out = self.X, rho(self.X.rs), {}
        for lam, m in self.summands:
            t = lam[X.k - 1]
            page = PackedPage(X, {rc.pack(add(X.twist(lam, -t), rr)): m}, t)
            out.update(page.dual(X, 0).decomp(X))
        return BundleSum.make(X, out)

    def char(self) -> rc.PackedChar:
        out: rc.PackedChar = {}
        for lam, m in self.summands:
            for v, mult in rc.char_irr(self.X.levi, lam).items():
                out[v] = out.get(v, 0) + m * mult
        return out

    def __str__(self):
        """Round-trippable rendering in the w/O bundle grammar of the CLI.

        ``w<indices>`` reads one digit per node, so a summand whose digits could
        also name a node >= 10, as a node >= 10 itself does, is written ``[c1,...,cr]``.
        """
        parts = []
        for lam, m in self.summands:
            t = lam[self.X.k - 1]
            levi = [(i + 1, c) for i, c in enumerate(lam) if c and i != self.X.k - 1]
            digits = "".join(str(i) * c for i, c in levi)
            if w_digits_ambiguous(digits, self.X.rs.rank):
                s = "[" + ",".join(map(str, lam)) + "]"
            elif not levi:
                s = f"O({t})"
            else:
                s = "w" + digits
                if t:
                    s += f"({t})"
            parts.append(s + (f"^{m}" if m > 1 else ""))
        return " + ".join(parts)


class FilteredBundle(NamedTuple):
    """Equivariant bundle given by its graded pieces, subbundle end first.

    The cohomology of such a bundle E on X is the Koszul route with F = 0:
    ``restricted_cohomology(ZeroLocus(X, BundleSum.make(X, {})), E)``.
    """

    gradeds: Tuple[Tuple[Tuple[Weight, int], ...], ...]

    @staticmethod
    def from_decomps(decomps: Sequence[rc.IrrDecomp]) -> "FilteredBundle":
        if not decomps:
            raise ValueError("a filtered bundle needs at least one graded piece")
        if any(m <= 0 for d in decomps for m in d.values()):
            raise ValueError("graded multiplicities must be positive")
        return FilteredBundle(tuple(tuple(sorted(d.items())) for d in decomps))

    def twist(self, X: HomSpace, t: int) -> "FilteredBundle":
        return FilteredBundle.from_decomps(
            [{X.twist(lam, t): m for lam, m in g} for g in self.gradeds]
        )


RestrictableBundle = Union[BundleSum, FilteredBundle, None]


class PackedPage:
    """Highest weights lambda + twist w_k, P-dominant, as ``{pack(lambda + rho): n}`` and ``twist``,
    kept out of the fields: ``pairs`` of (offset of lambda + rho, n, its Levi fields), the extremes
    ``lo``, ``hi`` of lambda + rho, and ``lines``, whether every lambda is a line."""

    __slots__ = ("pairs", "lo", "hi", "lines", "twist")

    def __init__(self, X: HomSpace, shifts: rc.PackedChar, twist: int = 0):
        rank, levi = X.rs.rank, X.levi
        zero, mask = rc.pack_zero(rank), rc.levi_mask(levi)
        self.pairs = tuple((y - zero, n, y & mask) for y, n in shifts.items())
        self.lo, self.hi, self.twist = *rc.char_extremes(shifts, rank), twist
        if any(self.lo[i - 1] < 1 for i in levi.levi):  # all are P-dominant iff the least is
            for lam in self.decomp(X):
                check_p_dominant(X, lam)
        self.lines = all(self.hi[i - 1] == 1 for i in levi.levi)

    def decomp(self, X: HomSpace) -> rc.IrrDecomp:
        """The highest weights {lambda + twist w_k: n}, unpacked."""
        rank, rr, zero, t = X.rs.rank, rho(X.rs), rc.pack_zero(X.rs.rank), self.twist
        return {X.twist(sub(rc.unpack(s + zero, rank), rr), t): n for s, n, _ in self.pairs}

    def dual(self, X: HomSpace, dex: int) -> "PackedPage":
        """The page of the duals twisted by O(-dex): dual(lambda + T w_k) = dual(lambda) - T w_k, so
        ``rc.dual_kernel`` maps each key and the twist T turns into -T - dex.  An image that would
        leave the field, where a carry would alias another weight, is refused with its bounds."""
        rr, twist, zero = rho(X.rs), -self.twist - dex, rc.pack_zero(X.rs.rank)
        lo, hi = (add(b, rr) for b in rc.dual_extremes(X.levi, sub(self.lo, rr), sub(self.hi, rr)))
        try:
            rc.check_packable(lo, hi)
        except rc.WeightRangeError:
            raise rc.WeightRangeError.of_sum(X.twist(lo, twist), X.twist(hi, twist)) from None
        dual = rc.dual_kernel(X.levi)
        return PackedPage(X, {dual(s + zero): n for s, n, _ in self.pairs}, twist)


class _ZeroLocus(NamedTuple):
    space: HomSpace
    bundle: BundleSum


class ZeroLocus(_ZeroLocus):
    """Zero locus of a general global section of ``bundle`` inside ``space``."""

    __slots__ = ()
    _make = classmethod(validated_make)

    def __new__(cls, space: HomSpace, bundle: BundleSum):
        if bundle.X != space:
            raise ValueError("bundle lives on a different space")
        for lam, _ in bundle.summands:
            if not rc.is_context_dominant(space.group, lam):
                raise ValueError(
                    f"summand {lam} is not {space.rs}-dominant: it has no "
                    "sections, so its zero locus has no Koszul resolution"
                )
        self = super().__new__(cls, space, bundle)
        if self.d < 0:
            raise ValueError("bundle rank exceeds the ambient dimension")
        return self

    @property
    def d(self) -> int:
        return dimension(self.space) - self.bundle.rank

    def is_canonical_trivial(self) -> bool:
        return self.bundle.dex == fano_index(self.space)


def wedge_dual_chars(Z: ZeroLocus) -> List[rc.PackedChar]:
    """Characters of Lambda^p F^* for p = 0..rank(F).

    No engine route calls it: the E1 page reads only the ``read_plan``,
    built from the summands of F.  The benchmark warms its ``restrict-mix``
    loci through this name, and the tests keep it as their per-weight oracle.

    Degrees up to f // 2 come from the per-weight product, the rest by Koszul
    duality, Lambda^{f-p} F^* = (Lambda^p F^*)^* (x) det F^*: the weights of
    degree f - p are det - nu for the weights nu of degree p.  det F^*, the
    sum of the weights of F^*, is checked against the closed-form O(-dex F).
    """

    def compute():
        X = Z.space
        rank, f = X.rs.rank, Z.bundle.rank
        char = Z.bundle.dual().char()
        rc.check_packable(*rc.power_extremes(char, f, rank))
        zero = rc.pack((0,) * rank)
        det = zero + sum(m * (v - zero) for v, m in char.items())
        assert det == rc.pack(X.line(-Z.bundle.dex)), "det F^* is not O(-dex F)"
        chars = rc.exterior_char_table(char, f // 2, rank)
        c = det + zero
        upper = range(f // 2 + 1, f + 1)
        return chars + [{c - v: m for v, m in chars[f - p].items()} for p in upper]

    return _cache.memo("wedge_chars", (str(Z.space), Z.bundle.summands), compute)


def _exterior_pages(X: HomSpace, lam: Weight, kmax: int) -> List[PackedPage]:
    """Pages of Lambda^c V_L(lam), c <= kmax: for lam = lam0 + t w_k, the exterior powers of the
    weights of V_L(lam0), decomposed, twisted by c t.  Only modules come here: a line is a term."""
    levi, t, lam0 = X.levi, lam[X.k - 1], X.twist(lam, -lam[X.k - 1])
    char = rc.char_irr(levi, lam0)
    table = rc.exterior_char_table(char, min(rc.weyl_dim(levi, lam0), kmax), X.rs.rank)
    return [PackedPage(X, rc.decompose_character(levi, ch), c * t) for c, ch in enumerate(table)]


def _hull(X: HomSpace, steps) -> Tuple[Weight, Weight]:
    """The box lo..hi of lambda + rho + T w_k over the pages of ``steps``, (page, T, _): per
    coordinate the least lo and the greatest hi.  It leaves the field iff the box of a page does."""
    los, his = zip(*[(X.twist(page.lo, t), X.twist(page.hi, t)) for page, t, _ in steps])
    return tuple(map(min, zip(*los))), tuple(map(max, zip(*his)))


def _box(X: HomSpace, hull, extremes, t: int) -> List[Weight]:
    """The box of lambda + rho + nu + t w_k, lambda + rho over ``hull`` and nu over ``extremes``."""
    line = X.line(t)
    return [tuple(map(sum, zip(end, e, line))) for end, e in zip(hull, extremes)]


def _middle_twists(left: Sequence[int], right: Sequence[int], kmax: int) -> List[int]:
    """The twist of each degree 0..kmax of a graded product of pages twisted ``left`` and
    ``right``: the middle of the twists of the pairs of pages that reach it."""
    out = []
    for d in range(min(len(left) + len(right) - 2, kmax) + 1):
        reach = [left[a] + right[d - a]
                 for a in range(max(0, d + 1 - len(right)), min(d, len(left) - 1) + 1)]
        out.append((min(reach) + max(reach)) // 2)
    return out


def _graded_product(
    X: HomSpace, left: List[PackedPage], right: List[PackedPage], kmax: int
) -> List[PackedPage]:
    """Degrees 0..kmax of the graded tensor product of two sequences of pages.

    Brauer-Klimyk per irreducible nu = nu0 + t w_k of ``right`` and page of
    ``left``: each packed highest weight of that page reads its product with
    V_L(nu0) off the ``levi_tensor`` rows, twisted by t, and adds it packed,
    relative to the twist of its degree (``_middle_twists``), range-checked
    once per nu over the hull of ``left``.  Degrees above both tops together
    are empty, and are dropped.  A sum that leaves the field is refused with
    the bounds of that hull, each page's twist put back.
    """
    levi, tensor, k, rank = X.levi, rc.LeviTensor(X.levi), X.k - 1, X.rs.rank
    twists = _middle_twists([page.twist for page in left], [page.twist for page in right], kmax)
    unit = rc.packed_offset(X.line(1))
    sums: List[rc.PackedChar] = [{} for _ in twists]
    for c in range(min(len(right), len(twists))):
        # left[a] lands in degree c + a, packed relative to the twist of that degree
        steps = [(page, page.twist - t, t) for page, t in zip(left, twists[c:])]
        hull = _hull(X, steps)
        for nu, n in right[c].decomp(X).items():
            nu0 = X.twist(nu, -nu[k])
            char = rc.char_irr(levi, nu0)
            extremes = rc.char_extremes(char, rank)
            try:
                rows, fill = tensor.reader(rc.pack(nu0), char, *_box(X, hull, extremes, nu[k]))
            except rc.WeightRangeError:
                absolute = _hull(X, [(page, T + back, 0) for page, T, back in steps])
                raise rc.WeightRangeError.of_sum(*_box(X, absolute, extremes, nu[k])) from None
            for target, (page, t, _) in zip(sums[c:], steps):
                shift = (nu[k] + t) * unit
                for s, ns, s0 in page.pairs:
                    s += shift
                    terms = iter(rows.get(s0) or fill(s, s0))
                    for dy, m in zip(terms, terms):
                        y = s + dy
                        target[y] = target.get(y, 0) + n * ns * m
    return [PackedPage(X, shifts, twist) for shifts, twist in zip(sums, twists)]


def _line_terms(X: HomSpace, lines) -> Tuple[Tuple[int, int, int], ...]:
    """(c, T, C) of the lines O(t_i)^{m_i} of F: Lambda^c of their duals holds O(T) C times, the
    polynomial prod_i sum_c C(m_i, c) O(-c t_i), terms of one (c, T) merged."""
    terms = {(0, 0): 1}
    for lam, m in lines:
        t, out = lam[X.k - 1], {}
        for (c, T), n in terms.items():
            for i in range(m + 1):
                out[c + i, T - i * t] = out.get((c + i, T - i * t), 0) + n * comb(m, i)
        terms = out
    return tuple((c, T, n) for (c, T), n in terms.items())


class ReadPlan(NamedTuple):
    """How ``e1_page`` reads Lambda^* F^*, F = F' + lines, its ``wedge_decomps`` memo.

    ``pages`` are those of Lambda^a F'^*, a = 0..rank F', of the module summands alone; ``terms``
    the (c, T, C) of the lines, ``_line_terms``, so Lambda^p F^* is the sum over a + c = p of C
    copies of page a twisted by O(T); ``hulls`` maps ``page.lines`` to the box of
    lambda + rho + (page.twist + T) w_k over every (page, T) of that group.
    """

    pages: Tuple[PackedPage, ...]
    terms: Tuple[Tuple[int, int, int], ...]
    hulls: Dict[bool, Tuple[Weight, Weight]]


def read_plan(F: BundleSum) -> ReadPlan:
    """The ``ReadPlan`` of F, memoised per bundle in ``wedge_decomps``.

    Lambda(A + B) = Lambda(A) (x) Lambda(B) as graded modules, so degrees up
    to f' // 2, f' = rank F', are a running product over the module summands
    of F^*: each contributes its ``_exterior_pages``, multiplied in by
    ``_graded_product``, and no character of the whole Lambda^a F'^* is
    built.  det F'^*, the sum of the weights of the summands, is checked
    against the closed-form O(-dex F').  Degree f' - a is the dual of degree
    a twisted by det F'^*, ``PackedPage.dual``, packed key to packed key.
    The lines enter no product: they are the twists of ``terms``.
    """

    def compute():
        X, levi, k = F.X, F.X.levi, F.X.k - 1
        rank, rr = X.rs.rank, rho(X.rs)
        lines = [(lam, m) for lam, m in F.summands if rc.weyl_dim(levi, lam) == 1]
        modules = BundleSum(X, tuple(s for s in F.summands if s not in lines))
        f, half, dex = modules.rank, modules.rank // 2, modules.dex
        det, graded = (0,) * rank, [PackedPage(X, {rc.pack(rr): 1})]
        # a product step climbs dim V_L(nu) weights per running highest
        # weight, 2^dim V per Lambda V: the largest V goes first
        for lam, m in sorted(modules.dual().summands, key=lambda s: -rc.weyl_dim(levi, s[0])):
            for v, mult in rc.char_irr(levi, X.twist(lam, -lam[k])).items():
                det = add(det, tuple(m * mult * c for c in rc.unpack(v, rank)))
            det = X.twist(det, m * rc.weyl_dim(levi, lam) * lam[k])
            powers = _exterior_pages(X, lam, half)
            for _ in range(m):
                # times the trivial module, the factor itself: no character
                # of its Levi modules, which can be large, is built
                graded = powers if len(graded) == 1 else _graded_product(X, graded, powers, half)
        assert det == X.line(-dex), "det F'^* is not O(-dex F')"
        pages = graded + [graded[f - a].dual(X, dex) for a in range(half + 1, f + 1)]
        terms = _line_terms(X, lines)
        steps: Dict[bool, list] = {}
        for page in pages:
            steps.setdefault(page.lines, []).extend((page, page.twist + T, 0) for _, T, _ in terms)
        return ReadPlan(tuple(pages), terms, {group: _hull(X, s) for group, s in steps.items()})

    return _cache.memo("wedge_decomps", (str(F.X), F.summands), compute)


def wedge_decomp(F: BundleSum, p: int) -> rc.IrrDecomp:
    """{lambda: m} of Lambda^p F^*, for ``ext`` and the tests: the sum over the terms (c, T, C)
    of the lines of C times page p - c of the ``read_plan``, unpacked and twisted by O(T)."""
    X, plan, out = F.X, read_plan(F), {}
    for c, T, C in plan.terms:
        if 0 <= p - c < len(plan.pages):
            for lam, n in plan.pages[p - c].decomp(X).items():
                lam = X.twist(lam, T)
                out[lam] = out.get(lam, 0) + C * n
    return out


# -- hypercohomology bookkeeping ---------------------------------------------


class ZCohomology(NamedTuple):
    """H^q(Z, E|_Z) for q = 0..d as one interval (lo, hi) per degree.

    ``cells[q]`` is a point (v, v) where the spectral solve certified the
    dimension, else the bounds it proved.  ``chi`` is the Euler
    characteristic, exact whatever the differentials are.  ``dims`` (None
    for an open degree), ``bounds`` and ``status`` are views of ``cells``.
    """

    cells: Tuple[Tuple[int, int], ...]
    chi: int

    @property
    def dims(self) -> List[Optional[int]]:
        return [lo if lo == hi else None for lo, hi in self.cells]

    @property
    def bounds(self) -> Dict[int, Tuple[int, int]]:
        return {q: c for q, c in enumerate(self.cells) if c[0] != c[1]}

    @property
    def status(self) -> str:
        return "ambiguous" if self.bounds else "exact"


Row = Tuple[Sequence[int], Sequence[int], int]


def narrow(lo: List[int], hi: List[int], rows: Sequence[Row]) -> None:
    """Narrow the integer intervals lo[i]..hi[i] in place to a fixpoint of ``rows``.

    A row (plus, minus, total) says that the values of ``plus`` less those of
    ``minus`` sum to ``total``.  With ``up`` the total less the least that sum
    can be and ``down`` the greatest less the total, a value of ``plus`` lies
    within ``up`` of its lower end and ``down`` of its upper one, a value of
    ``minus`` the other way round.  Every integer filling of the rows stays
    inside; a row with ``up`` or ``down`` negative has none: AssertionError.
    """
    order, changed = list(rows), True
    while changed:
        changed = False
        for plus, minus, total in order:
            up, down = total, -total
            for i in plus:
                up -= lo[i]
                down += hi[i]
            for i in minus:
                up += hi[i]
                down -= lo[i]
            if up < 0 or down < 0:
                raise AssertionError("no filling meets the rows")
            for side, rise, fall in ((plus, up, down), (minus, down, up)):
                for i in side:
                    low, high = lo[i], hi[i]
                    if high > low + rise or low < high - fall:
                        lo[i], hi[i], changed = max(low, high - fall), min(high, low + rise), True
        order.reverse()  # a chain of rows settles in a sweep each way


def _spectral_solve(entries: Dict[Tuple[int, int, int], int], d: int) -> ZCohomology:
    """Cancel E_1 entries forced by the abutment and certify what survives.

    ``entries[(p, j, q)]`` is a graded contribution to H^q of the p-th
    Koszul term, with j the filtration position of the restricted bundle
    counted from the subbundle end (0 for completely reducible bundles).
    The total complex is filtered by (p, j) lexicographically, so every
    possible differential raises the total degree n = q - p by one and
    strictly lowers (p, j); entries with n outside 0..dim Z must die.

    Per connected component of the possible-differential graph, the total
    rank y_n of all differentials between degrees n and n+1 and the
    survivors h_n of degree n obey the rows y_{n-1} + y_n + h_n = E(n) of
    ``narrow``, with h_n = 0 at illegal degrees, and y_n <= min(E(n), E(n+1)),
    since a rank exceeds neither its source nor its target.  A component no
    differential reaches survives whole.  Each degree is the sum of its
    survivors, and its cell the sum of their intervals: a point where it is
    certified, the bounds otherwise.  Dropping the per-entry rank caps
    only enlarges the feasible set, so a certified value is sound.
    """
    keys = [k for k, v in entries.items() if v]
    by_degree: Dict[int, List[Tuple[int, int, int]]] = {}
    for k in keys:
        by_degree.setdefault(k[2] - k[0], []).append(k)
    # every possible differential, source -> target with deg(target) =
    # deg(source) + 1 and a strictly lower filtration pair (p, j)
    edges = [(s, t) for n, sources in by_degree.items() for s in sources
             for t in by_degree.get(n + 1, ()) if t[:2] < s[:2]]
    root = {k: k for k in keys}

    def find(k):
        while root[k] != k:
            root[k] = k = root[root[k]]
        return k

    for s, t in edges:
        root[find(s)] = find(t)
    components: Dict[Tuple[int, int, int], Dict[int, int]] = {}  # root -> {n: E(n)}
    for k in keys:
        E = components.setdefault(find(k), {})
        E[k[2] - k[0]] = E.get(k[2] - k[0], 0) + entries[k]
    linked_of: Dict[Tuple[int, int, int], set] = {}
    for s, _ in edges:
        linked_of.setdefault(find(s), set()).add(s[2] - s[0])

    # the intervals, rows, and (degree n, index of the survivors h_n of one component)
    lo, hi, rows, reads = [], [], [], []
    for c, E in components.items():
        y = {n: len(lo) + i for i, n in enumerate(linked_of.get(c, ()))}
        lo += [0] * len(y)
        hi += [min(E[n], E[n + 1]) for n in y]
        for n, e in E.items():
            plus = [y[m] for m in (n - 1, n) if m in y]
            if 0 <= n <= d:
                # with no differential at n, all of E(n) survives and needs no row
                reads.append((n, len(lo)))
                lo.append(0 if plus else e)
                hi.append(e)
                if not plus:
                    continue
                plus.append(len(lo) - 1)
            rows.append((plus, (), e))
    narrow(lo, hi, rows)
    low, high = [0] * (d + 1), [0] * (d + 1)
    for n, i in reads:
        low[n] += lo[i]
        high[n] += hi[i]
    chi = sum(v if (q - p) % 2 == 0 else -v for (p, _, q), v in entries.items())
    return ZCohomology(tuple(zip(low, high)), chi)


def e1_page(Z: ZeroLocus, E: RestrictableBundle) -> Dict[Tuple[int, int, int], int]:
    """The Koszul E_1 page of E|_Z: {(p, j, q): dim H^q(X, Lambda^p F^* (x) gr_j E)}.

    Brauer-Klimyk on the Levi side, per irreducible E_mu of gr_j E and page a
    of the ``read_plan``: with mu = mu0 + t w_k and mu0[k] = 0, V_L(mu) is
    V_L(mu0) twisted by the L-character w_k, so V_L(mu0) times the page of
    Lambda^a F'^* is read off the twist-free ``levi_tensor`` rows of pack(mu0),
    shifted by (page twist + t) w_k, after one range check per E_mu and group of
    the plan, of its hull; a page of lines needs only mu0, no climb and no fill.
    One page at a time, the products of every E_mu of gr_j are added into one
    packed character {x: mult * n * m}, read by Bott's theorem once per x and
    term (c, T, C) of the lines at y = x + T w_k (``bott_kernel``, memoised in
    ``table("bwb", X)``): C * dim V_G at p = a + c in degree q, the number of
    negative coroot pairings, or nothing on a wall.  A sum leaving the packed
    field raises ``repcalc.WeightRangeError``, and a negative total (E was no
    genuine module) AssertionError.  Only nonzero entries are kept, sorted.
    """
    X = Z.space
    k, rank, levi = X.k - 1, X.rs.rank, X.levi
    if E is None:
        E = BundleSum.make(X, {(0,) * rank: 1})
    plan = read_plan(Z.bundle)
    tensor, bwbs, bott = rc.LeviTensor(levi), _cache.table("bwb", X), rc.bott_kernel(X.group)
    # every lambda + rho of a page of lines has the Levi fields of rho
    unit, flat = rc.packed_offset(X.line(1)), rc.pack(rho(X.rs)) & rc.levi_mask(levi)
    entries: Dict[Tuple[int, int, int], int] = {}
    for j, graded in enumerate(E.gradeds):
        readers = []
        for mu, mult in graded:
            check_p_dominant(X, mu)
            t, mu0 = mu[k], X.twist(mu, -mu[k])
            key, reads = rc.pack(mu0), {}
            for lines, hull in plan.hulls.items():
                if lines:
                    rc.check_packable(*_box(X, hull, (mu0, mu0), t))
                    reads[lines] = {flat: (key, 1)}, None
                else:
                    char = rc.char_irr(levi, mu0)
                    box = _box(X, hull, rc.char_extremes(char, rank), t)
                    reads[lines] = tensor.reader(key, char, *box)
            readers.append((t, mult, reads))
        for a, page in enumerate(plan.pages):
            product: rc.PackedChar = {}  # page a times every E_mu of gr_j, term (0, 0, 1)
            for t, mult, reads in readers:
                (rows, fill), shift = reads[page.lines], (page.twist + t) * unit
                for s, n, s0 in page.pairs:
                    s += shift
                    terms = iter(rows.get(s0) or fill(s, s0))
                    for dy, m in zip(terms, terms):
                        x = s + dy
                        product[x] = product.get(x, 0) + mult * n * m
            for c, T, C in plan.terms:
                lift, row = T * unit, {}
                for x, w in product.items():
                    y = x + lift
                    got = bwbs.get(y, False)  # None marks a wall
                    if got is False:
                        got = bwbs[y] = bott(y)
                    if got is not None:
                        q, dim = got
                        row[q] = row.get(q, 0) + w * dim
                for q, n in row.items():
                    entries[(a + c, j, q)] = entries.get((a + c, j, q), 0) + C * n
    if any(v < 0 for v in entries.values()):
        raise AssertionError("negative multiplicity: input was not a character")
    return dict(sorted(entries.items()))


def restricted_cohomology(Z: ZeroLocus, E: RestrictableBundle) -> ZCohomology:
    """H^q(Z, E|_Z) via the Koszul resolution tensored with E.

    ``E`` may be a completely reducible BundleSum, a FilteredBundle (its
    gradeds enter as extra filtration levels of the bookkeeping), or None
    for the structure sheaf.
    """
    return _spectral_solve(e1_page(Z, E), Z.d)
