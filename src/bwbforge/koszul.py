"""Zero loci of general sections: Koszul resolutions and restricted cohomology.

For Z the zero locus of a general section of a completely reducible bundle F
of rank f on X, the Koszul complex resolves O_Z by the wedge powers of F^*.
Tensoring with any bundle E and taking hypercohomology computes H^*(Z, E|_Z)
purely from Borel-Weil-Bott data.

The wedge powers are Levi decompositions built from the summands of F:
Lambda(A + B) = Lambda(A) (x) Lambda(B), so ``wedge_dual_decomps``
multiplies the exterior powers of each irreducible summand of F^* into a
running product by Brauer-Klimyk, up to half the rank f, and a line
summand only twists; Koszul duality, Lambda^{f-p} F^* = (Lambda^p F^*)^*
(x) det F^*, gives the rest, once per locus.  No character of a whole
Lambda^p F^* is built.  ``e1_page`` reads each E_1 entry off by
Brauer-Klimyk on the Levi side: for every irreducible piece E_mu of E and
every p, ``bwbcohom.tensor_cohomology`` shifts the weights of V_L(mu) by
each Levi highest weight of Lambda^p F^*, the shifted weights are summed
into L-irreducibles and Borel-Weil-Bott runs once per irreducible, so no
tensor product is ever expanded.

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
from math import comb
from typing import Dict, List, Optional, Tuple, Union

from . import cache as _cache
from . import repcalc as rc
from .bwbcohom import FilteredBundle, check_p_dominant, tensor_cohomology
from .bwbcohom import bundle_cohomology  # noqa: F401  (bench/test_bench.py wraps this binding)
from .homspace import HomSpace, dex, dimension, fano_index
from .rootdata import Weight, add, rho, sub


class EmptyLocusError(ValueError):
    """A trivial summand has nowhere-vanishing general sections."""


class AmbiguousCohomologyError(RuntimeError):
    """Raised when a caller insists on exact values the certificates deny."""


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
        """Round-trippable rendering in the w/O bundle grammar of the CLI."""
        parts = []
        for lam, m in self.summands:
            t = lam[self.X.k - 1]
            levi = [(i + 1, c) for i, c in enumerate(lam) if c and i != self.X.k - 1]
            if not levi:
                s = f"O({t})"
            else:
                s = "w" + "".join(str(i) * c for i, c in levi)
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

    No engine route calls it: the E1 page reads only the Levi
    decompositions of ``wedge_dual_decomps``, built from the summands of F.
    The benchmark warms its ``restrict-mix`` loci through this name, and
    the tests keep it as their per-weight oracle.

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


def _exterior_decomps(levi: rc.Context, lam: Weight, kmax: int) -> List[rc.IrrDecomp]:
    """Levi decompositions of Lambda^c V_L(lam) for c = 0..min(dim, kmax).

    Decomposed from the per-weight product of the one small module.
    """
    char = rc.char_irr(levi, lam)
    table = rc.exterior_char_table(char, min(rc.weyl_dim(levi, lam), kmax), levi.rs.rank)
    return [rc.decompose_character(levi, ch) for ch in table]


def _graded_product(
    levi: rc.Context, left: List[rc.IrrDecomp], right: List[rc.IrrDecomp], kmax: int
) -> List[rc.IrrDecomp]:
    """Degrees 0..kmax of the graded tensor product of two Levi decompositions.

    Brauer-Klimyk, one ``climb_tally`` per irreducible nu of ``right`` and
    degree of ``left``: the weights of V_L(nu) are shifted by every highest
    weight of that degree, whose extremes are range-checked first.
    """
    rank, rr = levi.rs.rank, rho(levi.rs)
    lift = rc.packed_offset(rr)
    degrees = [
        (
            a,
            add([min(column) for column in zip(*shifts)], rr),
            add([max(column) for column in zip(*shifts)], rr),
            [(rc.packed_offset(s) + lift, m) for s, m in shifts.items()],
        )
        for a, shifts in enumerate(left)
        if shifts
    ]
    out = [dict(left[a]) if a < len(left) else {} for a in range(kmax + 1)]
    for c in range(1, min(len(right) - 1, kmax) + 1):
        for nu, n in right[c].items():
            char = rc.char_irr(levi, nu)
            lo, hi = rc.char_extremes(char, rank)
            for a, low, high, pairs in degrees:
                if a + c > kmax:
                    break
                rc.check_packable(add(low, lo), add(high, hi))
                target = out[a + c]
                for y, m in rc.climb_tally(levi, char, pairs).items():
                    lam = sub(rc.unpack(y, rank), rr)
                    target[lam] = target.get(lam, 0) + n * m
    return out


def wedge_dual_decomps(Z: ZeroLocus) -> List[rc.IrrDecomp]:
    """Levi decompositions {lambda: m} of Lambda^p F^* for p = 0..rank(F).

    Lambda(A + B) = Lambda(A) (x) Lambda(B) as graded modules, so degrees
    up to f // 2 are a running product over the summands of F^*, and no
    character of the whole Lambda^p F^* is built.  Each nontrivial
    irreducible V contributes its ``_exterior_decomps``, multiplied in by
    ``_graded_product``; a line summand O(-t)^m then contributes C(m, c)
    copies of the twist by -ct in degree c, with no climb.  The top degree,
    det F^*, is the sum of the weights of the summands, checked against
    the closed-form O(-dex F).  Degree f - p is the dual of degree p
    twisted by det F^*.
    """

    def compute():
        X, levi, dex = Z.space, Z.space.levi, Z.bundle.dex
        f, half = Z.bundle.rank, Z.bundle.rank // 2
        zero = (0,) * X.rs.rank
        det, graded = zero, [{zero: 1}]
        modules, lines = [], []
        for lam, m in Z.bundle.dual().summands:
            if any(lam[i - 1] for i in levi.levi):
                modules.append((lam, m))
            else:
                lines.append((lam[X.k - 1], m))
                det = X.twist(det, m * lam[X.k - 1])
        # a product step climbs dim V_L(nu) weights per running highest
        # weight, 2^dim V per Lambda V: the largest V goes first
        modules.sort(key=lambda summand: -rc.weyl_dim(levi, summand[0]))
        for lam, m in modules:
            for v, mult in rc.char_irr(levi, lam).items():
                det = add(det, tuple(m * mult * c for c in rc.unpack(v, X.rs.rank)))
            powers = _exterior_decomps(levi, lam, half)
            for _ in range(m):
                # times the trivial module, the factor itself: no character
                # of its Levi modules, which can be large, is built
                if graded == [{zero: 1}]:
                    graded = powers
                else:
                    graded = _graded_product(levi, graded, powers, half)
        for t, m in lines:
            out: List[rc.IrrDecomp] = [{} for _ in range(half + 1)]
            for a, dec in enumerate(graded):
                for c in range(min(m, half - a) + 1):
                    target, n = out[a + c], comb(m, c)
                    for lam, mult in dec.items():
                        key = X.twist(lam, c * t)
                        target[key] = target.get(key, 0) + n * mult
            graded = out
        assert det == X.line(-dex), "det F^* is not O(-dex F)"
        dual = rc.dual_highest_weight
        return graded + [
            {X.twist(dual(levi, lam), -dex): m for lam, m in graded[f - p].items()}
            for p in range(half + 1, f + 1)
        ]

    return _cache.memo("wedge_decomps", (str(Z.space), Z.bundle.summands), compute)


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

    def connected(a, b) -> bool:
        # orient as source -> target with deg(target) = deg(source) + 1;
        # a differential must strictly lower the filtration pair (p, j)
        na, nb = a[2] - a[0], b[2] - b[0]
        if na + 1 == nb:
            source, target = a, b
        elif nb + 1 == na:
            source, target = b, a
        else:
            return False
        return (target[0], target[1]) < (source[0], source[1])

    # connected components
    comp_of: Dict[Tuple[int, int, int], int] = {}
    for k in keys:
        comp_of[k] = -1
    cid = 0
    for k in keys:
        if comp_of[k] != -1:
            continue
        stack = [k]
        comp_of[k] = cid
        while stack:
            cur = stack.pop()
            for other in keys:
                if comp_of[other] == -1 and connected(cur, other):
                    comp_of[other] = cid
                    stack.append(other)
        cid += 1

    total: Dict[int, Tuple[int, int]] = {}  # degree -> (lo, hi) of survivors

    def add_interval(n, lo, hi):
        a, b = total.get(n, (0, 0))
        total[n] = (a + lo, b + hi)

    for c in range(cid):
        members = [k for k in keys if comp_of[k] == c]
        E: Dict[int, int] = {}
        for k in members:
            n = k[2] - k[0]
            E[n] = E.get(n, 0) + entries[k]
        linked = set()
        for a in members:
            for b in members:
                na, nb = a[2] - a[0], b[2] - b[0]
                if na + 1 == nb and connected(a, b):
                    linked.add(na)
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

    Each entry is read off by Brauer-Klimyk without expanding the product,
    for every irreducible E_mu of gr_j E and every p, on the Levi side.
    Write mu = mu0 + t w_k with mu0[k] = 0; w_k is a character of L, so
    V_L(mu) is V_L(mu0) twisted by it, and ``tensor_cohomology`` shifts the
    weights of V_L(mu0) by every lambda + t w_k, for the Levi highest
    weights lambda of Lambda^p F^* (``wedge_dual_decomps``).  A degree whose
    lambdas are all lines only twists: V_L(mu) (x) O(lambda) is
    V_L(mu + lambda), one shift each of the trivial module, so the weights
    of V_L(mu0) are never built on a rank-0 or all-line F.
    ``tensor_cohomology`` range-checks the extremes of the shifts, so a
    twist that would leave the packed field raises
    ``repcalc.WeightRangeError``.  Only nonzero entries are kept, sorted; a
    negative total would mean the input was not a genuine module, and raises.
    """
    X = Z.space
    k, rank = X.k - 1, X.rs.rank
    point = {rc.pack((0,) * rank): 1}, ((0,) * rank, (0,) * rank)
    pages = [
        (decomp, all(not lam[i - 1] for lam in decomp for i in X.levi.levi))
        for decomp in wedge_dual_decomps(Z)
    ]
    entries: Dict[Tuple[int, int, int], int] = {}
    for j, graded in enumerate(_irreducible_gradeds(Z, E)):
        for mu, mult in graded:
            check_p_dominant(X, mu)
            t = mu[k]
            levi = None
            for p, (decomp, lines) in enumerate(pages):
                if lines:
                    shifts = {X.twist(mu, lam[k]): m for lam, m in decomp.items()}
                    dims = tensor_cohomology(X, shifts, *point)
                else:
                    if levi is None:
                        char = rc.char_irr(X.levi, X.twist(mu, -t))
                        levi = char, rc.char_extremes(char, rank)
                    shifts = {X.twist(lam, t): m for lam, m in decomp.items()}
                    dims = tensor_cohomology(X, shifts, *levi)
                for q, n in dims.items():
                    key = (p, j, q)
                    entries[key] = entries.get(key, 0) + mult * n
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
