"""Zero loci of general sections: Koszul resolutions and restricted cohomology.

For Z the zero locus of a general section of a completely reducible bundle F
of rank f on X, the Koszul complex resolves O_Z by the wedge powers of F^*.
Tensoring with any bundle E and taking hypercohomology computes H^*(Z, E|_Z)
purely from Borel-Weil-Bott data.

The wedge powers come from ``repcalc.exterior_char_table``, the per-weight
product prod (1 + t x^nu) over the weights nu of F^*, up to half the rank
f; Koszul duality, Lambda^{f-p} F^* = (Lambda^p F^*)^* (x) det F^*, gives
the rest, characters and Levi decompositions (``wedge_dual_decomps``, once
per locus) alike.  ``e1_page`` reads each E_1 entry off by Brauer-Klimyk,
over the smaller factor: for every irreducible piece E_mu of E and every p,
``bwbcohom.tensor_cohomology`` either shifts the weights of Lambda^p F^* by
mu, or the weights of V_L(mu) by each Levi highest weight of Lambda^p F^*,
whichever is fewer steps.  The rule is symmetric in its factors, and either
way the shifted weights are summed into L-irreducibles and Borel-Weil-Bott
runs once per irreducible, so no tensor product is ever expanded.

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
from .bwbcohom import FilteredBundle, check_p_dominant, tensor_cohomology
from .bwbcohom import bundle_cohomology  # noqa: F401  (bench/test_bench.py wraps this binding)
from .homspace import HomSpace, dex, dimension, fano_index
from .rootdata import Weight


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


def wedge_dual_decomps(Z: ZeroLocus) -> List[rc.IrrDecomp]:
    """Levi decompositions {lambda: m} of Lambda^p F^* for p = 0..rank(F).

    Degrees up to f // 2 are decomposed from ``wedge_dual_chars``; degree
    f - p is then the dual of degree p twisted by det F^* = O(-dex F).  Built
    on first use, not with the characters, so a caller that only needs the
    characters never pays for them.
    """

    def compute():
        X, levi, dex = Z.space, Z.space.levi, Z.bundle.dex
        chars = wedge_dual_chars(Z)
        f = len(chars) - 1
        lower = [rc.decompose_character(levi, char) for char in chars[: f // 2 + 1]]
        dual = rc.dual_highest_weight
        return lower + [
            {X.twist(dual(levi, lam), -dex): m for lam, m in lower[f - p].items()}
            for p in range(f // 2 + 1, f + 1)
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
    for every irreducible E_mu of gr_j E and every p, from whichever factor
    has fewer weights to shift.  Write mu = mu0 + t w_k with mu0[k] = 0;
    w_k is a character of L, so V_L(mu) is V_L(mu0) twisted by it.  When
    dim V_L(mu0) times the number of Levi irreducibles lambda of
    Lambda^p F^* is below the number of its weights, ``tensor_cohomology``
    shifts the weights of V_L(mu0) by every lambda + t w_k; otherwise it
    shifts the weights of Lambda^p F^* by mu.  Only nonzero entries are
    kept, sorted; a negative total would mean the input was not a genuine
    module, and raises.
    """
    X = Z.space
    k = X.k - 1
    wedges = wedge_dual_chars(Z)
    decomps = wedge_dual_decomps(Z)
    extremes = rc.power_extremes(
        wedges[1] if len(wedges) > 1 else {}, len(wedges) - 1, X.rs.rank
    )
    entries: Dict[Tuple[int, int, int], int] = {}
    for j, graded in enumerate(_irreducible_gradeds(Z, E)):
        for mu, mult in graded:
            check_p_dominant(X, mu)
            t = mu[k]
            mu0 = X.twist(mu, -t)
            dim0 = rc.weyl_dim(X.levi, mu0)
            levi_char = None
            for p, (wedge, decomp) in enumerate(zip(wedges, decomps)):
                if dim0 * len(decomp) < len(wedge):
                    if levi_char is None:
                        levi_char = rc.char_irr(X.levi, mu0)
                        levi_extremes = rc.char_extremes(levi_char, X.rs.rank)
                    shifts = {X.twist(lam, t): m for lam, m in decomp.items()}
                    dims = tensor_cohomology(X, shifts, levi_char, levi_extremes)
                else:
                    dims = tensor_cohomology(X, {mu: 1}, wedge, extremes)
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
