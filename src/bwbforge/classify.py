"""Search for zero loci with trivial canonical bundle over exceptional G/P.

A candidate pair (G/P_k, F) for a d-fold must satisfy rank(F) = dim - d and
dex(F) = Fano index exactly; the summand pool is every nonzero G-dominant
weight within those caps.  dex/rank is linear in the weight, and that of a
multiset lies between the least and greatest dex/rank of its summands, so
the multiset search cuts each branch whose remaining budget leaves the slope
range of the summands still to place.  At the root this rejects a whole
space when even its best dex/rank exceeds iota/(dim - d), which is what
kills all the E8 cases without enumerating multisets.  A bundle with a
summand whose general sections vanish nowhere is excluded, its reason and
citation recorded, by ``hodge.empty_reason``: the one table of such summands
(``hodge.NOWHERE_VANISHING``) that ``hodge.h0_row`` refuses by as well.
"""

from __future__ import annotations

from math import prod
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import hodge
from . import repcalc as rc
from .homspace import HomSpace, dimension, fano_index, parse_homspace
from .koszul import BundleSum, ZeroLocus
from .rootdata import RootSystem, Weight


def exceptional_spaces() -> List[HomSpace]:
    """The 25 exceptional G/P_k of Picard number one, up to the E6 symmetry.

    E6/P5 and E6/P6 are projectively equivalent to E6/P3 and E6/P1 through
    the outer automorphism and are therefore not listed separately.
    """
    names = (
        ["E6/P%d" % k for k in range(1, 5)]
        + ["E7/P%d" % k for k in range(1, 8)]
        + ["E8/P%d" % k for k in range(1, 9)]
        + ["F4/P%d" % k for k in range(1, 5)]
        + ["G2/P%d" % k for k in range(1, 3)]
    )
    return [parse_homspace(n) for n in names]


def search_spaces(family: str, max_rank: int) -> List[HomSpace]:
    """The spaces ``classify --family`` searches.

    ``exceptional`` is :func:`exceptional_spaces`; ``all`` adds every
    classical A, B, C, D G/P_k of rank at most ``max_rank``.
    """
    spaces = exceptional_spaces()
    if family == "all":
        for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
            for r in range(lo, max_rank + 1):
                rs = RootSystem(fam, r)
                spaces.extend(HomSpace(rs, k) for k in range(1, r + 1))
    return spaces


def admissible_summands(
    X: HomSpace, rank_cap: int, dex_cap: int
) -> List[Tuple[Weight, int, int]]:
    """All nonzero G-dominant weights with rank <= rank_cap, dex <= dex_cap.

    The Levi part is enumerated by coordinate recursion, each coordinate cut
    as soon as the untwisted point passes either cap; twists along w_k then
    raise dex by rank per step.

    Rank and dex come in closed form, with no memo lookup per lattice point.
    Two running values move by one column on each step of a coordinate: the
    Weyl factors ``heights + sum lam_i column_i`` of ``repcalc.weyl_kernel``
    and the invariant pairing <column, lam> of ``repcalc.invariant_form``.
    Then rank = prod(factors) / den and dex = rank <column, lam> / norm, the
    formulas of ``weyl_dim`` and ``sum_of_weights``, both asserted exact.
    Both grow strictly in every Levi coordinate (the coroot columns are
    nonnegative and nonzero; column k of the Gram matrix is positive, as is
    every inverse Cartan entry of an irreducible type), so the cut is sound.
    """
    if rank_cap < 1 or dex_cap < 1:
        return []
    r = X.rs.rank
    heights, columns, den = rc.weyl_kernel(X.levi)
    form, norm = rc.invariant_form(X.rs, X.k)
    # the coordinates with a nonzero coroot column are the Levi nodes
    steps = [(i, col, form[i]) for i, col in columns]
    coords = [0] * r
    out: List[Tuple[Weight, int, int]] = []

    def recurse(pos: int, factors: Sequence[int], pairing: int, rank: int) -> None:
        # ``coords`` is within both caps; its factors, pairing and rank ride along
        if pos == len(steps):
            base_dex, rem = divmod(rank * pairing, norm)
            assert rem == 0
            t = 0 if any(coords) else 1
            while base_dex + t * rank <= dex_cap:
                w = list(coords)
                w[X.k - 1] = t
                out.append((tuple(w), rank, base_dex + t * rank))
                t += 1
            return
        i, col, c = steps[pos]
        while rank <= rank_cap and rank * pairing <= dex_cap * norm:
            recurse(pos + 1, factors, pairing, rank)
            coords[i] += 1
            factors = [f + x for f, x in zip(factors, col)]
            pairing += c
            rank, rem = divmod(prod(factors), den)
            assert rem == 0
        coords[i] = 0

    recurse(0, heights, 0, 1)
    return sorted(out)


class CandidatePair(NamedTuple):
    """A numeric solution of rank(F) = dim - d, dex(F) = iota."""

    space: HomSpace
    weights: Tuple[Tuple[Weight, int], ...]
    d: int

    def bundle(self) -> BundleSum:
        return BundleSum.make(self.space, dict(self.weights))

    def zero_locus(self) -> ZeroLocus:
        return ZeroLocus(self.space, self.bundle())

    def orbit_tag(self) -> str:
        """Canonical form under the E6 diagram automorphism (1<->6, 3<->5).

        On the automorphism-fixed spaces (k = 2, 4) each summand is
        canonicalised separately, so E_{w1} and E_{w6} get one tag.  They
        are not isomorphic bundles: on E6/P2, h^0(Hom(E_{w1}, E_{w6})) = 0
        while h^0(End E_{w1}) = 1.  The automorphism fixes
        w6 + O(1)^5 + w1 and swaps w1^2 + O(1)^5 with w6^2 + O(1)^5, two
        orbits; the tag folds all three into one, following the paper's
        row numbering (rows 2, 2', 2''), which is what ``dedup_count``
        counts.  On the other spaces the whole pair (space, bundle) maps to
        its partner space.
        """
        if self.space.rs != RootSystem("E", 6):
            return repr((str(self.space), self.weights))
        perm = (5, 1, 4, 3, 2, 0)  # image positions of w1..w6

        def sigma(lam: Weight) -> Weight:
            return tuple(lam[perm[i]] for i in range(6))

        k2 = perm[self.space.k - 1] + 1
        if k2 == self.space.k:
            canon: Dict[Weight, int] = {}
            for lam, m in self.weights:
                key = min(lam, sigma(lam))
                canon[key] = canon.get(key, 0) + m
            return repr((str(self.space), tuple(sorted(canon.items()))))
        mapped: Dict[Weight, int] = {}
        for lam, m in self.weights:
            mapped[sigma(lam)] = mapped.get(sigma(lam), 0) + m
        variants = [
            (str(self.space), self.weights),
            (f"E6/P{k2}", tuple(sorted(mapped.items()))),
        ]
        return repr(min(variants))


class ExclusionRecord(NamedTuple):
    space: str
    weights: Tuple[Tuple[Weight, int], ...]
    reason: str
    citation: str


class SpaceSearch(NamedTuple):
    space: HomSpace
    candidates: List[CandidatePair]
    excluded: List[ExclusionRecord]
    ratio_pruned: bool
    note: str = ""


def _slope_bounds(
    pool: Sequence[Tuple[Weight, int, int]]
) -> List[Tuple[int, int, int, int]]:
    """(rk_min, dx_min, rk_max, dx_max) per suffix pool[idx:]: least and greatest dex/rank.

    Slopes are compared by cross-multiplying, so no ``Fraction`` is built.
    """
    out: List[Tuple[int, int, int, int]] = []
    for _, rk, dx in reversed(pool):
        rk_min, dx_min, rk_max, dx_max = out[-1] if out else (rk, dx, rk, dx)
        if dx * rk_min < dx_min * rk:
            rk_min, dx_min = rk, dx
        if dx * rk_max > dx_max * rk:
            rk_max, dx_max = rk, dx
        out.append((rk_min, dx_min, rk_max, dx_max))
    return out[::-1]


def enumerate_candidates(X: HomSpace, d: int) -> SpaceSearch:
    """All multisets of admissible summands with the exact rank/dex budget.

    dex/rank of E_lambda(t) is <column, lambda>/norm + t, linear in the
    weight, and the dex/rank of a multiset is a rank-weighted mean of its
    summands'.  So a branch that still has to place rank R and dex D from
    pool[idx:] is cut unless D/R lies between the least and greatest slope of
    that suffix.  At the root the lower test is the ratio prune that rejects
    a whole space (every summand has dex/rank above iota/(dim - d)).
    """
    frank = dimension(X) - d
    iota = fano_index(X)
    if frank < 1:
        return SpaceSearch(X, [], [], False, note="no positive rank budget")
    pool = admissible_summands(X, frank, iota)
    slopes = _slope_bounds(pool)
    if pool and iota * slopes[0][0] < slopes[0][1] * frank:
        return SpaceSearch(
            X, [], [], True, note=f"every summand has dex/rank > {iota}/{frank}"
        )
    if not pool:
        return SpaceSearch(X, [], [], False, note="no admissible summands")

    found: List[Tuple[Tuple[Weight, int], ...]] = []

    def recurse(idx: int, rank_left: int, dex_left: int, chosen: List[Tuple[Weight, int]]):
        if rank_left == 0 and dex_left == 0:
            found.append(tuple(chosen))
            return
        if idx == len(pool) or rank_left <= 0 or dex_left <= 0:
            return
        rk_min, dx_min, rk_max, dx_max = slopes[idx]
        if dex_left * rk_min < dx_min * rank_left or dex_left * rk_max > dx_max * rank_left:
            return
        lam, rk, dx = pool[idx]
        max_copies = min(rank_left // rk, dex_left // dx)
        for copies in range(max_copies, -1, -1):
            if copies:
                chosen.append((lam, copies))
            recurse(idx + 1, rank_left - copies * rk, dex_left - copies * dx, chosen)
            if copies:
                chosen.pop()

    recurse(0, frank, iota, [])
    candidates: List[CandidatePair] = []
    excluded: List[ExclusionRecord] = []
    for weights in sorted(found, key=lambda ws: tuple(sorted(ws, reverse=True))):
        weights = tuple(sorted(weights))
        hit = hodge.empty_reason(X, weights)
        if hit:
            excluded.append(ExclusionRecord(str(X), weights, *hit))
        else:
            candidates.append(CandidatePair(X, weights, d))
    return SpaceSearch(X, candidates, excluded, False)


class ClassifyRow(NamedTuple):
    space: str
    dim: int
    iota: int
    bundle: str
    weights: Tuple[Tuple[Weight, int], ...]
    d: int
    orbit_tag: str
    hodge: Dict[str, Optional[int]]
    status: str = "exact"
    note: str = ""


# the Hodge columns of a classification row, per dimension of Z: h<p><q> or chi
HODGE_COLUMNS = {4: ("h02", "h11", "h13"), 3: ("h11", "h12", "chi")}


def _hodge_fields(Z: ZeroLocus) -> Tuple[Dict[str, Optional[int]], str]:
    dia = hodge.assemble(Z)
    out = {c: dia.euler_characteristic() if c == "chi" else dia.get(int(c[1]), int(c[2]))
           for c in HODGE_COLUMNS[Z.d]}
    return out, "exact" if dia.complete() else "ambiguous"


class ClassifyReport(NamedTuple):
    d: int
    rows: List[ClassifyRow]
    excluded: List[ExclusionRecord]
    pruned: List[Tuple[str, str]]

    def dedup_rows(self) -> List[ClassifyRow]:
        seen = {}
        for row in self.rows:
            seen.setdefault(row.orbit_tag, row)
        return list(seen.values())


def classify(
    spaces: Sequence[HomSpace], d: int, with_hodge: bool = True
) -> ClassifyReport:
    rows: List[ClassifyRow] = []
    excluded: List[ExclusionRecord] = []
    pruned: List[Tuple[str, str]] = []
    for X in spaces:
        search = enumerate_candidates(X, d)
        if search.ratio_pruned:
            pruned.append((str(X), search.note))
        excluded.extend(search.excluded)
        for cand in search.candidates:
            Z = cand.zero_locus()
            note = ""
            if X.rs.family in "ABCD":
                note = "classical family: not cross-validated against the classical classification"
            if with_hodge:
                fields, status = _hodge_fields(Z)
            else:
                fields, status = {}, "exact"
            rows.append(
                ClassifyRow(
                    space=str(X),
                    dim=dimension(X),
                    iota=fano_index(X),
                    bundle=str(Z.bundle),
                    weights=cand.weights,
                    d=d,
                    orbit_tag=cand.orbit_tag(),
                    hodge=fields,
                    status=status,
                    note=note,
                )
            )
    return ClassifyReport(d, rows, excluded, pruned)

