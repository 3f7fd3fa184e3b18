"""Zero loci of general sections: Koszul resolutions and restricted cohomology.

For Z the zero locus of a general section of a completely reducible bundle F
of rank f on X, the Koszul complex resolves O_Z by the wedge powers of F^*.
Tensoring with any bundle E and taking hypercohomology computes H^*(Z, E|_Z)
purely from Borel-Weil-Bott data.

The wedge powers are packed pages, {pack(lambda + rho): m} and a twist out
of the fields, per degree: Lambda(A + B) = Lambda(A) (x) Lambda(B), so
``wedge_dual_pages`` multiplies the exterior powers of each irreducible
summand of F^*, the m copies of a line O(-t) as one, into a running product
by Brauer-Klimyk, up to half the rank f, keeping every weight packed;
Koszul duality, Lambda^{f-p} F^* = (Lambda^p F^*)^* (x) det F^*, gives the
rest, once per locus.  No character of a whole Lambda^p F^* is built.
``e1_page`` reads each E_1 entry off by Brauer-Klimyk on the Levi side,
one ``bwbcohom.tensor_cohomology`` per irreducible piece E_mu of E and p
on those same pages, so no tensor product is ever expanded.
``wedge_dual_decomps`` is their tuple view {lambda: m}.

F must be generated by its sections, or the Koszul complex does not
resolve O_Z: ``ZeroLocus`` refuses a summand whose weight is not
G-dominant, since such a summand has no sections at all.
A rank-0 F gives Z = X and a page with only p = 0, and that is how the
cohomology of a filtered bundle on X itself is computed.

Degeneration of the spectral sequence is never assumed: the bookkeeping
solver below cancels entries only where the abutment forces it (total
degrees outside 0..dim Z must die) and certifies exact dimensions only when
no differential between surviving entries can be nonzero.  Anything else is
reported as bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from . import cache as _cache
from . import repcalc as rc
from .bwbcohom import FilteredBundle, PackedPage, bott_tables, check_p_dominant, tensor_cohomology
from .bwbcohom import bundle_cohomology  # noqa: F401  (bench/test_bench.py wraps this binding)
from .homspace import HomSpace, dex, dimension, fano_index
from .rootdata import Weight, add, rho


class EmptyLocusError(ValueError):
    """A trivial summand has nowhere-vanishing general sections."""


class AmbiguousCohomologyError(RuntimeError):
    """Raised when a caller insists on exact values the certificates deny."""


def w_digits_ambiguous(digits: str, rank: int) -> bool:
    """Whether two adjacent digits of ``w<digits>`` also name a node 10..rank."""
    return any(10 <= int(digits[i : i + 2]) <= rank for i in range(len(digits) - 1))


@dataclass(frozen=True)
class BundleSum:
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
            if not rc.is_context_dominant(X.levi, lam):
                raise ValueError(f"summand {lam} is not P{X.k}-dominant")
        return BundleSum(X, tuple(sorted(weights.items())))

    def as_dict(self) -> rc.IrrDecomp:
        return dict(self.summands)

    @property
    def rank(self) -> int:
        return sum(m * rc.weyl_dim(self.X.levi, lam) for lam, m in self.summands)

    @property
    def dex(self) -> int:
        return sum(m * dex(self.X, lam) for lam, m in self.summands)

    def has_trivial_summand(self) -> bool:
        zero = (0,) * self.X.rs.rank
        return any(lam == zero for lam, _ in self.summands)

    def dual(self) -> "BundleSum":
        out: Dict[Weight, int] = {}
        for lam, m in self.summands:
            d = rc.dual_highest_weight(self.X.levi, lam)
            out[d] = out.get(d, 0) + m
        return BundleSum.make(self.X, out)

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


@dataclass(frozen=True)
class ZeroLocus:
    """Zero locus of a general global section of ``bundle`` inside ``space``."""

    space: HomSpace
    bundle: BundleSum

    def __post_init__(self):
        if self.bundle.X != self.space:
            raise ValueError("bundle lives on a different space")
        for lam, _ in self.bundle.summands:
            if not rc.is_context_dominant(self.space.group, lam):
                raise ValueError(
                    f"summand {lam} is not {self.space.rs}-dominant: it has no "
                    "sections, so its zero locus has no Koszul resolution"
                )
        if self.d < 0:
            raise ValueError("bundle rank exceeds the ambient dimension")

    @property
    def d(self) -> int:
        return dimension(self.space) - self.bundle.rank

    def is_canonical_trivial(self) -> bool:
        return self.bundle.dex == fano_index(self.space)


def wedge_dual_chars(Z: ZeroLocus) -> List[rc.PackedChar]:
    """Characters of Lambda^p F^* for p = 0..rank(F).

    No engine route calls it: the E1 page reads only ``wedge_dual_pages``,
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


def _exterior_pages(X: HomSpace, lam: Weight, copies: int, kmax: int) -> List[PackedPage]:
    """Pages of Lambda^c (V_L(lam)^copies), c <= kmax: for lam = lam0 + t w_k, the per-weight
    product of ``copies`` times each weight of V_L(lam0), decomposed, twisted by c t."""
    levi, t, lam0 = X.levi, lam[X.k - 1], X.twist(lam, -lam[X.k - 1])
    char = {v: copies * n for v, n in rc.char_irr(levi, lam0).items()}
    table = rc.exterior_char_table(char, min(copies * rc.weyl_dim(levi, lam0), kmax), X.rs.rank)
    return [PackedPage(X, rc.decompose_character(levi, ch), c * t) for c, ch in enumerate(table)]


def _graded_product(
    X: HomSpace, left: List[PackedPage], right: List[PackedPage], kmax: int
) -> List[PackedPage]:
    """Degrees 0..kmax of the graded tensor product of two sequences of pages.

    Brauer-Klimyk per irreducible nu = nu0 + t w_k of ``right`` and page of
    ``left``: each packed highest weight of that page reads its product with
    V_L(nu0) off the ``levi_tensor`` rows, twisted by t, and adds it packed,
    relative to the twist of its degree: the middle of the twists of the
    pairs of pages that reach it.  Degrees above both tops together are
    empty, and are dropped.
    """
    levi, tensor, rank, k = X.levi, rc.LeviTensor(X.levi), X.rs.rank, X.k - 1
    top = min(len(left) + len(right) - 2, kmax)
    twists = []
    for d in range(top + 1):
        reach = [left[a].twist + right[d - a].twist
                 for a in range(max(0, d + 1 - len(right)), min(d, len(left) - 1) + 1)]
        twists.append((min(reach) + max(reach)) // 2)
    sums: List[rc.PackedChar] = [{} for _ in twists]
    for c in range(min(len(right) - 1, top) + 1):
        for nu, n in right[c].decomp(X).items():
            nu0 = X.twist(nu, -nu[k])
            char = rc.char_irr(levi, nu0)
            extremes, key = rc.char_extremes(char, rank), rc.pack(nu0)
            for target, page, twist in zip(sums[c:], left, twists[c:]):
                for s, ns, entry in page.times(X, tensor, nu[k] - twist, key, char, extremes):
                    terms = iter(entry)
                    for dy, m in zip(terms, terms):
                        y = s + dy
                        target[y] = target.get(y, 0) + n * ns * m
    return [PackedPage(X, shifts, twist) for shifts, twist in zip(sums, twists)]


def wedge_dual_pages(Z: ZeroLocus) -> List[PackedPage]:
    """Pages {pack(lambda + rho): m} of Lambda^p F^*, p = 0..rank(F), memoised per locus.

    Lambda(A + B) = Lambda(A) (x) Lambda(B) as graded modules, so degrees up
    to f // 2 are a running product over the summands of F^*, lines as much
    as modules: each contributes its ``_exterior_pages``, multiplied in by
    ``_graded_product``, and no character of the whole Lambda^p F^* is built.
    det F^*, the sum of the weights of the summands, is checked against the
    closed-form O(-dex F).  Degree f - p is the dual of degree p twisted by
    det F^*, the one step that unpacks: dual(lam + T w_k) = dual(lam) - T w_k,
    so a page twist T turns into -T - dex.  The memo is ``wedge_decomps``.
    """

    def compute():
        X, levi, dex, k = Z.space, Z.space.levi, Z.bundle.dex, Z.space.k - 1
        f, half, rank, rr = Z.bundle.rank, Z.bundle.rank // 2, Z.space.rs.rank, rho(Z.space.rs)
        det, graded = (0,) * rank, [PackedPage(X, {rc.pack(rr): 1})]
        # a product step climbs dim V_L(nu) weights per running highest
        # weight, 2^dim V per Lambda V: the largest V goes first
        for lam, m in sorted(Z.bundle.dual().summands, key=lambda s: -rc.weyl_dim(levi, s[0])):
            for v, mult in rc.char_irr(levi, X.twist(lam, -lam[k])).items():
                det = add(det, tuple(m * mult * c for c in rc.unpack(v, rank)))
            det = X.twist(det, m * rc.weyl_dim(levi, lam) * lam[k])
            # the m copies of a line are one factor, one weight of multiplicity m;
            # a module's are m factors, as Lambda(V^m) has C(m dim V, c) weights
            copies = m if rc.weyl_dim(levi, lam) == 1 else 1
            powers = _exterior_pages(X, lam, copies, half)
            for _ in range(m // copies):
                # times the trivial module, the factor itself: no character
                # of its Levi modules, which can be large, is built
                graded = powers if len(graded) == 1 else _graded_product(X, graded, powers, half)
        assert det == X.line(-dex), "det F^* is not O(-dex F)"
        dual = rc.dual_highest_weight
        return graded + [
            PackedPage(X, {rc.pack(add(X.twist(dual(levi, lam), g.twist), rr)): n
                           for lam, n in g.decomp(X).items()}, -g.twist - dex)
            for g in (graded[f - p] for p in range(half + 1, f + 1))
        ]

    return _cache.memo("wedge_decomps", (str(Z.space), Z.bundle.summands), compute)


def wedge_dual_decomps(Z: ZeroLocus) -> List[rc.IrrDecomp]:
    """Levi decompositions {lambda: m} of Lambda^p F^* for p = 0..rank(F): the tuple
    view of ``wedge_dual_pages``, for ``ext`` and the tests."""
    return [page.decomp(Z.space) for page in wedge_dual_pages(Z)]


# -- hypercohomology bookkeeping ---------------------------------------------


@dataclass
class ZCohomology:
    """H^q(Z, E|_Z) dimensions for q = 0..d, with an exactness status.

    ``dims[q]`` is None for a degree the degree-bookkeeping could not pin
    down; ``bounds`` then carries (lower, upper) for that degree.
    """

    d: int
    dims: List[Optional[int]]
    status: str = "exact"  # "exact" | "ambiguous"
    bounds: Dict[int, Tuple[int, int]] = field(default_factory=dict)

    def dim(self, q: int) -> int:
        if q < 0 or q > self.d:
            return 0
        v = self.dims[q]
        if v is None:
            raise AmbiguousCohomologyError(f"degree {q} only bounded: {self.bounds.get(q)}")
        return v


_INF = 10**30


def _spectral_solve(entries: Dict[Tuple[int, int, int], int], d: int) -> ZCohomology:
    """Cancel E_1 entries forced by the abutment and certify what survives.

    ``entries[(p, j, q)]`` is a graded contribution to H^q of the p-th
    Koszul term, with j the filtration position of the restricted bundle
    counted from the subbundle end (0 for completely reducible bundles).
    The total complex is filtered by (p, j) lexicographically, so every
    possible differential raises the total degree n = q - p by one and
    strictly lowers (p, j); entries with n outside 0..dim Z must die.

    Per connected component of the possible-differential graph, the total
    rank y_n of all differentials between degrees n and n+1 obeys
    y_{n-1} + y_n = E(n) at illegal degrees and <= E(n) at legal ones.
    Interval propagation over these aggregates certifies each surviving
    degree whose value is independent of the undetermined ranks; anything
    else is reported as per-degree bounds.  Dropping the per-entry rank
    caps only enlarges the feasible set, so a certified value is sound.
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
    components: Dict[Tuple[int, int, int], List[Tuple[int, int, int]]] = {}
    for k in keys:
        components.setdefault(find(k), []).append(k)
    linked_of: Dict[Tuple[int, int, int], set] = {}
    for s, _ in edges:
        linked_of.setdefault(find(s), set()).add(s[2] - s[0])

    total: Dict[int, Tuple[int, int]] = {}  # degree -> (lo, hi) of survivors

    def add_interval(n, lo, hi):
        a, b = total.get(n, (0, 0))
        total[n] = (a + lo, b + hi)

    for c, members in components.items():
        E: Dict[int, int] = {}
        for k in members:
            n = k[2] - k[0]
            E[n] = E.get(n, 0) + entries[k]
        linked = linked_of.get(c, set())
        # y[n]: total differential rank between degrees n and n+1
        y: Dict[int, Tuple[int, int]] = {
            n: ((0, _INF) if n in linked else (0, 0)) for n in set(E) | {m - 1 for m in E}
        }
        changed = True
        while changed:
            changed = False
            for n, e in E.items():
                illegal = not 0 <= n <= d
                l0, h0 = y.get(n - 1, (0, 0))
                l1, h1 = y.get(n, (0, 0))
                # y_{n-1} + y_n == e at illegal degrees, <= e at legal ones
                new0 = (max(l0, e - h1) if illegal else l0, min(h0, e - l1))
                new1 = (max(l1, e - h0) if illegal else l1, min(h1, e - l0))
                if new0[0] > new0[1] or new1[0] > new1[1]:
                    raise AssertionError("inconsistent spectral bookkeeping")
                if (n - 1) in y and new0 != (l0, h0):
                    y[n - 1] = new0
                    changed = True
                if n in y and new1 != (l1, h1):
                    y[n] = new1
                    changed = True
        for n, e in E.items():
            l0, h0 = y.get(n - 1, (0, 0))
            l1, h1 = y.get(n, (0, 0))
            if not 0 <= n <= d:
                if l0 + l1 > e or h0 + h1 < e:
                    raise AssertionError("illegal degree cannot be cancelled")
                continue
            add_interval(n, max(0, e - h0 - h1), e - l0 - l1)

    dims: List[Optional[int]] = [0] * (d + 1)
    bounds: Dict[int, Tuple[int, int]] = {}
    status = "exact"
    for n, (lo, hi) in sorted(total.items()):
        if lo == hi:
            dims[n] = lo
        else:
            dims[n] = None
            bounds[n] = (lo, hi)
            status = "ambiguous"
    return ZCohomology(d, dims, status, bounds)


RestrictableBundle = Union[BundleSum, FilteredBundle, None]


def _irreducible_gradeds(
    Z: ZeroLocus, E: RestrictableBundle
) -> List[Tuple[Tuple[Weight, int], ...]]:
    """Irreducible decomposition of each graded piece of E, subbundle end first."""
    if E is None:
        return [(((0,) * Z.space.rs.rank, 1),)]
    if isinstance(E, BundleSum):
        return [E.summands]
    return list(E.gradeds)


def e1_page(Z: ZeroLocus, E: RestrictableBundle) -> Dict[Tuple[int, int, int], int]:
    """The Koszul E_1 page of E|_Z: {(p, j, q): dim H^q(X, Lambda^p F^* (x) gr_j E)}.

    Brauer-Klimyk on the Levi side, per irreducible E_mu of gr_j E and p:
    with mu = mu0 + t w_k and mu0[k] = 0, V_L(mu) is V_L(mu0) twisted by the
    L-character w_k, so ``tensor_cohomology`` reads V_L(mu0) times the page of
    Lambda^p F^* from ``wedge_dual_pages`` off the ``levi_tensor`` rows of
    pack(mu0), twisted by t; a page of lines needs only the weight mu0.  A sum
    leaving the packed field raises ``repcalc.WeightRangeError``, and a
    negative total (E was no genuine module) AssertionError.  Only nonzero
    entries are kept, sorted.
    """
    X = Z.space
    k, rank = X.k - 1, X.rs.rank
    pages = wedge_dual_pages(Z)
    tables = bott_tables(X)  # once per page, not per call
    entries: Dict[Tuple[int, int, int], int] = {}
    for j, graded in enumerate(_irreducible_gradeds(Z, E)):
        for mu, mult in graded:
            check_p_dominant(X, mu)
            t, mu0 = mu[k], X.twist(mu, -mu[k])
            key = rc.pack(mu0)
            point, levi = ({key: 1}, (mu0, mu0)), None
            for p, page in enumerate(pages):
                if levi is None and not page.lines:
                    char = rc.char_irr(X.levi, mu0)
                    levi = char, rc.char_extremes(char, rank)
                module = point if page.lines else levi
                for q, n in tensor_cohomology(X, page, t, *module, key, tables).items():
                    entries[(p, j, q)] = entries.get((p, j, q), 0) + mult * n
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


def structure_cohomology(Z: ZeroLocus) -> ZCohomology:
    """h^q(Z, O_Z) for q = 0..d from the Koszul resolution itself."""
    if Z.bundle.has_trivial_summand():
        raise EmptyLocusError(
            "a trivial summand has constant nonzero general sections; the locus is empty"
        )
    return restricted_cohomology(Z, None)
