"""Borel-Weil-Bott cohomology of equivariant bundles on G/P_k.

For an irreducible bundle E_lambda the recipe is mechanical: if lambda+rho
lies on a wall, every cohomology group vanishes; otherwise exactly one
survives, in degree ell(w), with dominant label w(lambda+rho)-rho.
``tensor_cohomology`` applies it to E (x) M for a sum E of irreducibles
given by highest weights and an L-module M given by its character, as the
Koszul E1 page needs it, with either factor in either role: Brauer-Klimyk
splits the product into L-irreducibles by one W_L-climb per shifted weight
(memoised per space in ``cache.table("bott", X)``), and the recipe above
then runs once per irreducible (``cache.table("bwb", X)``), not once per
weight.

The interesting machinery here is for *filtered* bundles (the cotangent
bundle and friends): their graded pieces are completely reducible, RegInd
collects the Bott indices of the regular pieces, and exact dimensions are
certified whenever every connecting map of the long exact sequences is
forced to vanish by a zero on one side.  Anything short of that
certificate is reported as per-degree bounds, never silently guessed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Set, Tuple

from . import cache as _cache
from . import repcalc as rc
from .homspace import HomSpace, dimension
from .rootdata import Weight, add, rho, to_dominant_chamber


class NotPDominantError(ValueError):
    pass


def _check_p_dominant(X: HomSpace, lam: Weight):
    if not rc.is_context_dominant(X.levi, lam):
        raise NotPDominantError(f"{lam} is not P{X.k}-dominant on {X}")


@dataclass
class CohomologyTable:
    """Cohomology of a bundle on X: degree -> {dominant G-weight: multiplicity}.

    ``exact`` tables carry honest multiplicities; when the filtration
    certificate fails the table degenerates to per-degree dimension bounds
    (lower, upper) while ``entries`` keeps the upper-bound multiset.
    """

    X: HomSpace
    entries: Dict[int, Dict[Weight, int]] = field(default_factory=dict)
    exact: bool = True
    bounds: Dict[int, Tuple[int, int]] = field(default_factory=dict)

    def add_entry(self, q: int, hw: Weight, mult: int = 1):
        row = self.entries.setdefault(q, {})
        row[hw] = row.get(hw, 0) + mult

    def degree_dim(self, q: int) -> int:
        group = self.X.group
        return sum(
            m * rc.weyl_dim(group, hw) for hw, m in self.entries.get(q, {}).items()
        )

    def dims(self) -> Dict[int, int]:
        return {q: self.degree_dim(q) for q in sorted(self.entries) if self.entries[q]}

    def euler_characteristic(self) -> int:
        return sum((-1) ** q * d for q, d in self.dims().items())

    def merge(self, other: "CohomologyTable"):
        assert self.X == other.X
        for q, row in other.entries.items():
            for hw, m in row.items():
                self.add_entry(q, hw, m)
        self.exact = self.exact and other.exact

    def is_zero(self) -> bool:
        return all(not row for row in self.entries.values())


def bwb(X: HomSpace, lam: Weight) -> CohomologyTable:
    """Cohomology of the irreducible bundle E_lambda by Borel-Weil-Bott."""
    _check_p_dominant(X, lam)
    table = CohomologyTable(X)
    res = to_dominant_chamber(X.rs, add(lam, rho(X.rs)))
    if res.singular:
        return table
    hw = tuple(a - b for a, b in zip(res.dominant, rho(X.rs)))
    table.add_entry(res.length, hw)
    return table


_MISSING = object()


def _bwb_entry(X: HomSpace, y: int, bwbs: dict) -> Optional[Tuple[int, int]]:
    """(q, dim V_G) for the packed rho-shifted Levi highest weight y; None on a W wall."""
    got = bwbs.get(y, _MISSING)
    if got is _MISSING:
        got = rc.climb(X.group, rc.unpack(y, X.rs.rank))
        if got is not None:
            q, dom = got
            got = q, rc.weyl_dim(X.group, tuple(c - 1 for c in dom))
        bwbs[y] = got
    return got


def _levi_top(X: HomSpace, levi: rc.Context, x: int, bwbs: dict) -> Optional[int]:
    """Packed W_L-dominant representative y of x, negated for an odd climb.

    None when x lies on a wall of W_L, or y on a wall of W.
    """
    climbed = rc.climb(levi, rc.unpack(x, X.rs.rank))
    if climbed is None:
        return None
    flips, dom = climbed
    y = rc.pack(dom)
    if _bwb_entry(X, y, bwbs) is None:
        return None
    return -y if flips & 1 else y


def tensor_cohomology(
    X: HomSpace, shifts: rc.IrrDecomp, char: rc.PackedChar, extremes: Tuple[Weight, Weight]
) -> Dict[int, int]:
    """Dimensions of H^q(X, E (x) M) for E = sum n_s E_s and the L-module M of ``char``.

    ``shifts`` is the formal sum {s: n_s} of P-dominant highest weights.
    Brauer-Klimyk first: each weight nu of M moves s + nu + rho into the
    dominant W_L-chamber, and the signed multiplicities n_s * m_nu are summed
    in one tally per rho-shifted Levi highest weight y; a negative sum means
    ``char`` was not a character, and raises.  Borel-Weil-Bott then runs once
    per L-irreducible E_{y - rho}: dim V_G in degree q, the length of its
    W-climb, or nothing on a wall (Bott 1957; Kostant 1961).

    The rule is symmetric in its factors, so a caller may hand either factor
    over as highest weights and the other as a character: the Koszul E1 page
    passes {mu: 1} with the weights of Lambda^p F^*, or the Levi
    decomposition of Lambda^p F^* with the weights of V_L(mu), whichever
    iterates fewer weights.

    ``extremes`` bounds the coordinates of the weights of ``char`` (a caller
    with a table of characters computes it once); the least and greatest
    coordinates of the shifted sums are range-checked before any packed
    weight is added.  Both steps are memoised per space on packed ints:
    ``table("bott", X)`` maps x = s + nu + rho to None or to y, negated when
    the W_L-climb has odd length, and ``table("bwb", X)`` maps y to
    (q, dim V_G) or None.
    """
    if not shifts:
        return {}
    # per-coordinate least and greatest shift: every shift is P-dominant
    # exactly when the least one is
    lows = [min(column) for column in zip(*shifts)]
    highs = [max(column) for column in zip(*shifts)]
    if not rc.is_context_dominant(X.levi, lows):
        for s in shifts:
            _check_p_dominant(X, s)
    if not char:
        return {}
    rr = rho(X.rs)
    rc.check_packable(add(add(lows, rr), extremes[0]), add(add(highs, rr), extremes[1]))
    lift = rc.packed_offset(rr)
    bott, bwbs = _cache.table("bott", X), _cache.table("bwb", X)
    levi = X.levi
    tally: Dict[Optional[int], int] = {}
    for s, n in shifts.items():
        shift = rc.packed_offset(s) + lift
        for v, m in char.items():
            x = v + shift
            y = bott.get(x, _MISSING)
            if y is _MISSING:
                y = bott[x] = _levi_top(X, levi, x, bwbs)
            tally[y] = tally.get(y, 0) + n * m
    tally.pop(None, None)
    irreducibles: Dict[int, int] = {}
    for y, m in tally.items():
        if y < 0:
            y, m = -y, -m
        irreducibles[y] = irreducibles.get(y, 0) + m
    out: Dict[int, int] = {}
    for y, m in irreducibles.items():
        if m < 0:
            raise AssertionError("negative multiplicity: input was not a character")
        if m:
            q, dim = _bwb_entry(X, y, bwbs)
            out[q] = out.get(q, 0) + m * dim
    return out


def bott_index(X: HomSpace, lam: Weight) -> Optional[int]:
    """Length of the climbing word for lambda+rho, or None when singular."""
    res = to_dominant_chamber(X.rs, add(lam, rho(X.rs)))
    return None if res.singular else res.length


def bundle_cohomology(X: HomSpace, bundle: rc.IrrDecomp) -> CohomologyTable:
    """Cohomology of a completely reducible bundle: direct sums are exact."""
    table = CohomologyTable(X)
    for lam, mult in sorted(bundle.items()):
        piece = bwb(X, lam)
        for q, row in piece.entries.items():
            for hw, m in row.items():
                table.add_entry(q, hw, m * mult)
    return table


@dataclass(frozen=True)
class FilteredBundle:
    """Equivariant bundle given by its graded pieces, subbundle end first."""

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


def reg_ind(X: HomSpace, bundle: FilteredBundle) -> Set[int]:
    """Bott indices of the regular-shifted graded constituents."""
    out: Set[int] = set()
    for graded in bundle.gradeds:
        for lam, _ in graded:
            idx = bott_index(X, lam)
            if idx is not None:
                out.add(idx)
    return out


def filtered_cohomology(X: HomSpace, bundle: FilteredBundle) -> CohomologyTable:
    """Cohomology of a filtered bundle through its long exact sequences.

    Walking the filtration from the deep end, the accumulated cohomology is
    exact as long as, at every step and every degree q, either the fresh
    graded piece has H^q = 0 or the accumulated bundle has H^{q+1} = 0; that
    kills every connecting map.  Otherwise the result degrades to bounds
    (lower 0, upper the sum of the graded dimensions per degree).
    """
    acc = CohomologyTable(X)
    certified = True
    for graded in bundle.gradeds:
        piece = bundle_cohomology(X, dict(graded))
        if certified:
            for q in piece.dims():
                if acc.degree_dim(q + 1) != 0:
                    certified = False
                    break
        acc.merge(piece)
    if certified:
        return acc
    acc.exact = False
    acc.bounds = {q: (0, d) for q, d in acc.dims().items()}
    return acc


def serre_dual_weight(X: HomSpace, lam: Weight) -> Weight:
    """Highest weight of K_X (x) E_lambda^*, the Serre-duality partner."""
    from .homspace import fano_index

    dual = rc.dual_highest_weight(X.levi, lam)
    return X.twist(dual, -fano_index(X))
