"""Borel-Weil-Bott cohomology of equivariant bundles on G/P_k.

For an irreducible bundle E_lambda the recipe is mechanical: if lambda+rho
lies on a wall, every cohomology group vanishes; otherwise exactly one
survives, in degree ell(w), with dominant label w(lambda+rho)-rho.
``tensor_cohomology`` applies it to E (x) M for a sum E of irreducibles
given by highest weights and an L-module M given by its character, as the
Koszul E1 page needs it: Brauer-Klimyk splits the product into
L-irreducibles by one W_L-climb per shifted weight (memoised in the
``climb`` table of the Levi context, shared with
``repcalc.decompose_character``), and the recipe above then runs once per
irreducible (``cache.table("bwb", X)``), not once per weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from . import cache as _cache
from . import repcalc as rc
from .homspace import HomSpace
from .rootdata import Weight, add, rho


class NotPDominantError(ValueError):
    pass


def check_p_dominant(X: HomSpace, lam: Weight):
    if not rc.is_context_dominant(X.levi, lam):
        raise NotPDominantError(f"{lam} is not P{X.k}-dominant on {X}")


@dataclass
class CohomologyTable:
    """Cohomology of a direct sum of irreducible bundles on X.

    ``entries`` maps each degree to {dominant G-weight: multiplicity}.
    """

    X: HomSpace
    entries: Dict[int, Dict[Weight, int]] = field(default_factory=dict)

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

    def is_zero(self) -> bool:
        return all(not row for row in self.entries.values())


def bwb(X: HomSpace, lam: Weight) -> CohomologyTable:
    """Cohomology of the irreducible bundle E_lambda by Borel-Weil-Bott.

    lambda + rho is climbed by ``repcalc.climb``, the climber ``_bwb_entry``
    uses, but on the plain tuple: no packed coordinate range applies, so
    every twist gets an answer.
    """
    check_p_dominant(X, lam)
    table = CohomologyTable(X)
    got = rc.climb(X.group, add(lam, rho(X.rs)))
    if got is not None:
        q, dom = got
        table.add_entry(q, tuple(c - 1 for c in dom))
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


def tensor_cohomology(
    X: HomSpace, shifts: rc.IrrDecomp, char: rc.PackedChar, extremes: Tuple[Weight, Weight]
) -> Dict[int, int]:
    """Dimensions of H^q(X, E (x) M) for E = sum n_s E_s and the L-module M of ``char``.

    ``shifts`` is the formal sum {s: n_s} of P-dominant highest weights.
    Brauer-Klimyk first: each weight nu of M moves s + nu + rho into the
    dominant W_L-chamber, and ``repcalc.climb_tally`` sums the signed
    multiplicities n_s * m_nu per rho-shifted Levi highest weight y (a
    negative sum means ``char`` was not a character, and raises).
    Borel-Weil-Bott then runs once per L-irreducible E_{y - rho}: dim V_G in
    degree q, the length of its W-climb, or nothing on a wall (Bott 1957;
    Kostant 1961).

    The rule is symmetric in its factors, so a caller may hand either factor
    over as highest weights and the other as a character.  The Koszul E1
    page passes the Levi decomposition of Lambda^p F^*, twisted along w_k,
    with the weights of V_L(mu0); a degree of lines only passes mu twisted
    by each line, with the trivial module.

    ``extremes`` bounds the coordinates of the weights of ``char`` (a caller
    with a table of characters computes it once); the least and greatest
    coordinates of the shifted sums are range-checked before any packed
    weight is added.  Both steps are memoised on packed ints: the W_L-climbs
    in the ``climb`` table of the Levi context, which ``decompose_character``
    shares, and ``table("bwb", X)`` maps y to (q, dim V_G) or None.
    """
    if not shifts:
        return {}
    # per-coordinate least and greatest shift: every shift is P-dominant
    # exactly when the least one is
    lows = [min(column) for column in zip(*shifts)]
    highs = [max(column) for column in zip(*shifts)]
    if not rc.is_context_dominant(X.levi, lows):
        for s in shifts:
            check_p_dominant(X, s)
    if not char:
        return {}
    rr = rho(X.rs)
    rc.check_packable(add(add(lows, rr), extremes[0]), add(add(highs, rr), extremes[1]))
    lift = rc.packed_offset(rr)
    pairs = [(rc.packed_offset(s) + lift, n) for s, n in shifts.items()]
    bwbs = _cache.table("bwb", X)
    out: Dict[int, int] = {}
    for y, m in rc.climb_tally(X.levi, char, pairs).items():
        entry = _bwb_entry(X, y, bwbs)
        if entry is not None:
            q, dim = entry
            out[q] = out.get(q, 0) + m * dim
    return out


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


def serre_dual_weight(X: HomSpace, lam: Weight) -> Weight:
    """Highest weight of K_X (x) E_lambda^*, the Serre-duality partner."""
    from .homspace import fano_index

    dual = rc.dual_highest_weight(X.levi, lam)
    return X.twist(dual, -fano_index(X))
