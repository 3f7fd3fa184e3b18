"""Zero loci of general sections: Koszul resolutions and restricted cohomology.

For Z the zero locus of a general section of a completely reducible bundle F
of rank f on X, the Koszul complex resolves O_Z by the wedge powers of F^*.
Tensoring with any bundle E and taking hypercohomology computes H^*(Z, E|_Z)
purely from Borel-Weil-Bott data.

The wedge powers come from the per-weight product prod (1 + t x^nu) over the
weights nu of F^*.  Each E_1 entry is read off by Brauer-Klimyk: the
irreducible pieces E_mu of E, shifted by every weight of Lambda^p F^*, go
straight through ``bwbcohom.bott``, so no tensor product is ever expanded
or decomposed.

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
from .bwbcohom import (
    Bott,
    CohomologyTable,
    FilteredBundle,
    bott,
    bundle_cohomology,
)
from .homspace import HomSpace, dex, dimension, fano_index
from .rootdata import Weight, add, rho

_MISSING = object()


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
        if self.d < 0:
            raise ValueError("bundle rank exceeds the ambient dimension")

    @property
    def d(self) -> int:
        return dimension(self.space) - self.bundle.rank

    def is_canonical_trivial(self) -> bool:
        return self.bundle.dex == fano_index(self.space)


@dataclass
class KoszulPage:
    """Wedge powers of F^* and their Borel-Weil-Bott cohomology."""

    Z: ZeroLocus
    terms: Dict[int, rc.IrrDecomp]
    tables: Dict[int, CohomologyTable]


def _wedge_range(fstar: rc.PackedChar, rank: int) -> Tuple[Weight, Weight]:
    """Per-coordinate extremes over the weights of every Lambda^p F^*.

    A weight of Lambda^p is a sum of p distinct weights of F^*, so the least
    and greatest coordinate sum the negative and the positive coordinates of
    all of them; both are attained.
    """
    lo, hi = [0] * rank, [0] * rank
    for v, m in fstar.items():
        for i, c in enumerate(rc.unpack(v, rank)):
            if c < 0:
                lo[i] += m * c
            else:
                hi[i] += m * c
    return tuple(lo), tuple(hi)


def wedge_dual_chars(Z: ZeroLocus) -> List[rc.PackedChar]:
    """Characters of Lambda^p F^* for p = 0..rank(F).

    Built as the per-weight product prod_{nu in wt(F^*)} (1 + t x^nu): each
    factor shifts the degree-(p-1) character by nu into degree p.
    """

    def compute():
        rank = Z.space.rs.rank
        fstar = Z.bundle.dual().char()
        rc.check_packable(*_wedge_range(fstar, rank))
        z = rc.pack((0,) * rank)
        acc: List[rc.PackedChar] = [{z: 1}]
        for v, m in sorted(fstar.items()):
            shift = v - z
            for _ in range(m):
                acc.append({})
                # descending p reads degree p-1 before this factor touches it
                for p in range(len(acc) - 1, 0, -1):
                    target = acc[p]
                    get = target.get
                    for key, c in acc[p - 1].items():
                        key += shift
                        target[key] = get(key, 0) + c
        assert len(acc) == Z.bundle.rank + 1
        return acc

    return _cache.memo("wedge_chars", (str(Z.space), Z.bundle.summands), compute)


def exterior_dual_powers(Z: ZeroLocus) -> KoszulPage:
    """Decomposed wedge powers Lambda^p F^* with their cohomology tables."""
    X = Z.space
    chars = wedge_dual_chars(Z)

    def compute():
        return [rc.decompose_character(X.levi, ch) for ch in chars]

    decomps = _cache.memo("wedge_decomps", (str(X), Z.bundle.summands), compute)
    terms = {p: decomps[p] for p in range(len(decomps))}
    # determinant consistency: the Koszul tail is the line O(-dex F)
    top = terms[Z.bundle.rank]
    assert len(top) == 1 and next(iter(top.values())) == 1
    top_weight = next(iter(top))
    assert top_weight[X.k - 1] == -Z.bundle.dex
    tables = {p: bundle_cohomology(X, dec) for p, dec in terms.items()}
    return KoszulPage(Z, terms, tables)


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

    def known(self, q: int) -> bool:
        return q < 0 or q > self.d or self.dims[q] is not None


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


def restricted_cohomology(Z: ZeroLocus, E: RestrictableBundle) -> ZCohomology:
    """H^q(Z, E|_Z) via the Koszul resolution tensored with E.

    ``E`` may be a completely reducible BundleSum, a FilteredBundle (its
    gradeds enter as extra filtration levels of the bookkeeping), or None
    for the structure sheaf.

    The E_1 entry (p, j, q) is the H^q of Lambda^p F^* (x) gr_j E, read off
    by Brauer-Klimyk without decomposing the product: for each irreducible
    E_mu of gr_j E and each weight nu of Lambda^p F^*, ``bott`` gives the
    signed contribution of mu + nu + rho.  A negative total would mean the
    input was not a genuine module, and raises.
    """
    X = Z.space
    rank = X.rs.rank
    wedges = wedge_dual_chars(Z)
    lo, hi = _wedge_range(wedges[1] if len(wedges) > 1 else {}, rank)
    z = rc.pack((0,) * rank)
    memo = _cache.table("bott", X)
    entries: Dict[Tuple[int, int, int], int] = {}
    for j, graded in enumerate(_irreducible_gradeds(Z, E)):
        for mu, mult in graded:
            shifted = add(mu, rho(X.rs))
            rc.check_packable(add(shifted, lo), add(shifted, hi))
            shift = rc.pack(shifted) - z
            for p, wedge in enumerate(wedges):
                tally: Dict[Bott, int] = {}
                for v, m in wedge.items():
                    x = v + shift
                    b = memo.get(x, _MISSING)
                    if b is _MISSING:
                        b = memo[x] = bott(X, x)
                    tally[b] = tally.get(b, 0) + m
                for b, m in tally.items():
                    if b is not None:
                        key = (p, j, b[0])
                        entries[key] = entries.get(key, 0) + mult * m * b[1]
    if any(v < 0 for v in entries.values()):
        raise AssertionError("negative multiplicity: input was not a character")
    return _spectral_solve(dict(sorted(entries.items())), Z.d)


def structure_cohomology(Z: ZeroLocus) -> ZCohomology:
    """h^q(Z, O_Z) for q = 0..d from the Koszul resolution itself."""
    if Z.bundle.has_trivial_summand():
        raise EmptyLocusError(
            "a trivial summand has constant nonzero general sections; the locus is empty"
        )
    return restricted_cohomology(Z, None)
