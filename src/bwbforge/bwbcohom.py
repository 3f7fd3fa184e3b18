"""Borel-Weil-Bott cohomology of equivariant bundles on G/P_k.

For an irreducible bundle E_lambda the recipe is mechanical: if lambda+rho
lies on a wall, every cohomology group vanishes; otherwise exactly one
survives, in degree ell(w), with dominant label w(lambda+rho)-rho.
``bwb`` runs it by a Weyl climb, and ``bundle_cohomology`` once per summand
of an explicit completely reducible bundle on X.  The Koszul E1 page reads
the same recipe off coroot pairings (``repcalc.bott_kernel``), in
``koszul.e1_page``.
"""

from __future__ import annotations

from typing import Dict, NamedTuple

from . import repcalc as rc
from .homspace import HomSpace
from .rootdata import Weight, add, rho


def check_p_dominant(X: HomSpace, lam: Weight):
    """The one refusal of a weight that is no bundle on X."""
    if not rc.is_context_dominant(X.levi, lam):
        raise rc.NonDominantError(f"weight {lam} is not P{X.k}-dominant")


class CohomologyTable(NamedTuple):
    """Cohomology of a direct sum of irreducible bundles on X.

    ``entries`` maps each degree to {dominant G-weight: multiplicity}.
    """

    X: HomSpace
    entries: Dict[int, Dict[Weight, int]]

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


def bwb(X: HomSpace, lam: Weight) -> CohomologyTable:
    """Cohomology of the irreducible bundle E_lambda by Borel-Weil-Bott.

    lambda + rho is climbed by ``repcalc.climb`` on the plain tuple: no
    packed coordinate range applies, so every twist gets an answer.  This is
    the reference that ``repcalc.bott_kernel`` on the E1 page agrees with.
    """
    check_p_dominant(X, lam)
    table = CohomologyTable(X, {})
    got = rc.climb(X.group, add(lam, rho(X.rs)))
    if got is not None:
        q, dom = got
        table.add_entry(q, tuple(c - 1 for c in dom))
    return table


def bundle_cohomology(X: HomSpace, bundle: rc.IrrDecomp) -> CohomologyTable:
    """Cohomology of a completely reducible bundle: direct sums are exact."""
    table = CohomologyTable(X, {})
    for lam, mult in sorted(bundle.items()):
        piece = bwb(X, lam)
        for q, row in piece.entries.items():
            for hw, m in row.items():
                table.add_entry(q, hw, m * mult)
    return table

