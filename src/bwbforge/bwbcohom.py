"""Borel-Weil-Bott cohomology of equivariant bundles on G/P_k.

For an irreducible bundle E_lambda the recipe is mechanical: if lambda+rho
lies on a wall, every cohomology group vanishes; otherwise exactly one
survives, in degree ell(w), with dominant label w(lambda+rho)-rho.
``bwb`` runs it by a Weyl climb.  ``tensor_cohomology`` applies it to
E(t) (x) M for a ``PackedPage`` E and an L-module M given by its character,
as the Koszul E1 page needs it: Brauer-Klimyk splits the product into
L-irreducibles by W_L-climbs, and the recipe then runs once per
irreducible, not once per weight, read off its coroot pairings with no
W-climb (``repcalc.bott_kernel``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from . import cache as _cache
from . import repcalc as rc
from .homspace import HomSpace
from .rootdata import Weight, add, rho, sub


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

    lambda + rho is climbed by ``repcalc.climb`` on the plain tuple: no
    packed coordinate range applies, so every twist gets an answer.  This is
    the reference that ``repcalc.bott_kernel`` on the E1 page agrees with.
    """
    check_p_dominant(X, lam)
    table = CohomologyTable(X)
    got = rc.climb(X.group, add(lam, rho(X.rs)))
    if got is not None:
        q, dom = got
        table.add_entry(q, tuple(c - 1 for c in dom))
    return table


_MISSING = object()


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

    def times(self, X: HomSpace, tensor: rc.LeviTensor, t: int, key, char: rc.PackedChar, extremes):
        """``LeviTensor.products`` with M of ``char``, its weights in ``extremes``, in O(t)."""
        line = X.line(t + self.twist)
        lo = [a + b + c for a, b, c in zip(self.lo, extremes[0], line)]
        hi = [a + b + c for a, b, c in zip(self.hi, extremes[1], line)]
        return tensor.products(key, char, self.pairs, rc.packed_offset(line), lo, hi)


def bott_tables(X: HomSpace):
    """The Levi tensor products, ``table("bwb", X)`` and the Bott kernel of G, fetched once."""
    return rc.LeviTensor(X.levi), _cache.table("bwb", X), rc.bott_kernel(X.group)


def tensor_cohomology(
    X: HomSpace, page: PackedPage, t: int, char: rc.PackedChar, extremes, key=None, tables=None
) -> Dict[int, int]:
    """Dimensions of H^q(X, E(t) (x) M), E = sum n_s E_s of ``page``, M the L-module of ``char``.

    Brauer-Klimyk first: V_L(s) (x) M = sum m V_L(y), y = s + t w_k + dy, per shift
    off the ``levi_tensor`` rows of ``key``, pack(highest weight of M).  Borel-Weil-Bott
    then runs once per y (``table("bwb", X)``) from its coroot pairings
    (``repcalc.bott_kernel``): n_s * m * dim V_G in degree q, the number of negative
    pairings, or nothing on a wall (Bott 1957; Kostant 1961).  The rule is symmetric
    in its factors, so either one may be the page.  ``extremes`` bounds the weights
    of ``char``; ``tables`` is ``bott_tables(X)``.
    """
    tensor, bwbs, bott = tables or bott_tables(X)
    out: Dict[int, int] = {}
    for s, n, entry in page.times(X, tensor, t, key, char, extremes):
        terms = iter(entry)
        for dy, m in zip(terms, terms):
            y = s + dy
            got = bwbs.get(y, _MISSING)
            if got is _MISSING:
                got = bwbs[y] = bott(y)
            if got is not None:
                q, dim = got
                out[q] = out.get(q, 0) + n * m * dim
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

