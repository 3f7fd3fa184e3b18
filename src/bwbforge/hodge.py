"""Hodge numbers of zero loci via the conormal sequence.

The rows, their empty-locus and ambiguity refusals live here; ``koszul``
only solves.  The h^{0,q} row is the structure-sheaf cohomology, and
``h0_row`` refuses an F with a summand whose general section vanishes
nowhere: a trivial one, or one listed in ``NOWHERE_VANISHING``.  Its locus
is empty, and ``classify`` excludes it by the same ``empty_reason``.
h^{1,q} comes from the long exact sequence of
0 -> F^*|_Z -> Omega_X|_Z -> Omega_Z -> 0, seeded with the values forced by
Hodge symmetry and Serre duality.  For a fourfold with trivial canonical
bundle h^{2,2} is read off rows 0 and 1: Libgober-Wood (Topology 1990) with
c_1 = 0 and Serre duality gives
chi(Omega^2_Z) = 22 chi(O_Z) - 4 chi(Omega^1_Z), and
h^{2,2} = chi(Omega^2_Z) - 2 h^{0,2} + 2 h^{1,2}.  On any other fourfold
h^{2,2} is reported as blocked.  Each row is a ``koszul.ZCohomology``, the
same dimensions-with-a-status the Koszul solve returns; a row function is
handed the rows it reads, and never recomputes them.

``h1_chase_report`` is the one h^{1,q} chase, and ``h1_row`` reads its
solved unknowns.  It runs through one small solver: an exact sequence whose
entries are known integers or named unknowns splits at its zero entries
into segments with vanishing alternating sum, and a segment with a single
unknown determines it.  No particular map is ever assumed to vanish.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .homspace import HomSpace, gradation
from .koszul import FilteredBundle, ZCohomology, ZeroLocus, restricted_cohomology
from .rootdata import Weight

Cell = Union[int, str]  # a known dimension or the name of an unknown


class EmptyLocusError(ValueError):
    """A summand has nowhere-vanishing general sections: ``empty_reason`` names it."""


class AmbiguousCohomologyError(RuntimeError):
    """Raised when a caller insists on exact values the certificates deny."""


class ChaseStuckError(RuntimeError):
    pass


def solve_exact_system(seq: List[Cell]) -> Tuple[Dict[str, int], bool]:
    """Solve for the unknowns of one exact sequence, 0-terminated on both ends.

    Each unknown may appear once, so solving one segment changes no other
    and a single pass over the segments finds every forced value.  Returns
    the solved unknowns and whether everything was determined.
    """
    names = [c for c in seq if isinstance(c, str)]
    if len(set(names)) != len(names):
        raise ValueError(f"an unknown repeats in {seq}")
    values: Dict[str, int] = {}
    segment: List[Cell] = []
    for cell in [*seq, 0]:
        if cell != 0:
            segment.append(cell)
            continue
        unknowns = [i for i, c in enumerate(segment) if isinstance(c, str)]
        if len(unknowns) == 1:
            # the alternating sum of the segment vanishes
            i = unknowns[0]
            total = sum((-1) ** j * c for j, c in enumerate(segment) if j != i)
            val = -total * (-1) ** i
            if val < 0:
                raise ChaseStuckError(f"exact sequence forces {segment[i]} = {val} < 0")
            values[segment[i]] = val
        segment = []
    return values, len(values) == len(names)


def _conormal_les(a: Sequence[Cell], b: Sequence[Cell], c: Sequence[Cell]) -> List[Cell]:
    """Interleave rows of H^q(A), H^q(B), H^q(C) for 0 -> A -> B -> C -> 0."""
    out: List[Cell] = []
    for qa, qb, qc in zip(a, b, c):
        out.extend([qa, qb, qc])
    return out


class ChaseReport(NamedTuple):
    """Audit trail of an exact-sequence chase.

    ``sequences`` holds the interleaved long exact sequences (integers for
    known dimensions, names for unknowns), ``known`` the symmetry-forced
    seed values and any Euler characteristics read off, ``solved`` every
    unknown the chase determined.  A value appears in ``solved`` only if it
    is forced by exactness plus the recorded zero cells.
    """

    sequences: List[List[Cell]]
    known: Dict[str, int]
    solved: Dict[str, int]
    complete: bool


def omega_filtration(X: HomSpace) -> FilteredBundle:
    return FilteredBundle.from_decomps(gradation(X).as_filtration())


SPINOR = ("a general global section of this rank-10 spinor-type bundle on the Cayley plane "
          "vanishes nowhere", "nowhere-vanishing sections of the spinor bundle on the Cayley plane")
# (space, summand) -> (reason, citation) of a summand whose general section
# vanishes nowhere; the numbers themselves cannot see such geometric facts.
# The outer automorphism of E6 maps E6/P1 with w6 onto E6/P6 with w1.
NOWHERE_VANISHING: Dict[Tuple[str, Weight], Tuple[str, str]] = {
    ("E6/P1", (0, 0, 0, 0, 0, 1)): SPINOR,
    ("E6/P6", (1, 0, 0, 0, 0, 0)): SPINOR,
}
TRIVIAL = ("a trivial summand has constant nonzero general sections",
           "constant sections of the trivial bundle")


def empty_reason(X: HomSpace, summands: Sequence[Tuple[Weight, int]]) -> Optional[Tuple[str, str]]:
    """(reason, citation) of the first summand on X that is trivial or listed, else None."""
    for lam, _ in summands:
        if not any(lam):
            return TRIVIAL
        if (str(X), lam) in NOWHERE_VANISHING:
            return NOWHERE_VANISHING[str(X), lam]
    return None


def h0_row(Z: ZeroLocus) -> ZCohomology:
    """h^{0,q}(Z) for q = 0..d, straight from the Koszul resolution; empty Z is refused."""
    hit = empty_reason(Z.space, Z.bundle.summands)
    if hit:
        raise EmptyLocusError(f"{hit[0]}; the locus is empty")
    return restricted_cohomology(Z, None)


def is_hyperkaehler(row0: Sequence[Optional[int]]) -> bool:
    """Whether h^{0,q}(Z) = 1, 0, 1, 0, 1: the row of a hyperkaehler fourfold."""
    return list(row0) == [1, 0, 1, 0, 1]


def h1_chase_report(Z: ZeroLocus, row0: ZCohomology) -> ChaseReport:
    """The conormal chase 0 -> F^*|_Z -> Omega_X|_Z -> Omega_Z -> 0 with its audit trail.

    When row 0 is not exact nothing is solved.  When F^*|_Z is only bounded,
    Omega_X|_Z is not computed; when either is, only the seeds are known.
    """
    d = Z.d
    if row0.status != "exact":
        return ChaseReport([], {}, {}, False)
    # conjugation: h^{1,0} = h^{0,1}; Serre duality: h^{1,d} = h^{d-1,0} = h^{0,d-1}
    known = {"x0": row0.dims[1], f"x{d}": row0.dims[d - 1]}
    a = restricted_cohomology(Z, Z.bundle.dual())
    if a.status != "exact":
        return ChaseReport([], known, {}, False)
    b = restricted_cohomology(Z, omega_filtration(Z.space))
    if b.status != "exact":
        return ChaseReport([], known, {}, False)
    cells: List[Cell] = [f"x{q}" for q in range(d + 1)]
    seq = _conormal_les(a.dims, b.dims, [known.get(c, c) for c in cells])
    values, complete = solve_exact_system(seq)
    values.update(known)
    return ChaseReport([seq], known, values, complete)


def h1_row(Z: ZeroLocus, row0: ZCohomology) -> ZCohomology:
    """h^{1,q}(Z), the unknowns ``h1_chase_report`` solves from row 0."""
    solved = h1_chase_report(Z, row0).solved
    dims = [solved.get(f"x{q}") for q in range(Z.d + 1)]
    return ZCohomology(Z.d, dims, "exact" if None not in dims else "ambiguous", {})


def h22_chase_report(Z: ZeroLocus, row0: ZCohomology, row1: ZCohomology) -> ChaseReport:
    """h^{2,2} from chi(Omega^2_Z) = 22 chi_O - 4 chi_Omega1, with its inputs.

    chi_O and chi_Omega1 are the alternating sums of rows 0 and 1; the cells
    h^{2,q}, q != 2, are forced from the same rows, and
    chi(Omega^2_Z) = x0 - x1 + h22 - x3 + x4 leaves h22 the one unknown.
    The Libgober-Wood identity behind chi(Omega^2_Z) needs c_1(Z) = 0.
    """
    if Z.d != 4:
        raise ValueError("h22 is computed for fourfolds")
    if row0.status != "exact" or row1.status != "exact":
        raise AmbiguousCohomologyError("h22 needs exact h^{0,q} and h^{1,q} rows")
    if not Z.is_canonical_trivial():
        raise AmbiguousCohomologyError("h22 needs a trivial canonical bundle")
    known = {
        "x0": row0.dims[2],  # h^{2,0} = h^{0,2}
        "x1": row1.dims[2],  # h^{2,1} = h^{1,2}
        "x3": row1.dims[2],  # h^{2,3} = h^{3,2} = h^{1,2}
        "x4": row0.dims[2],  # h^{2,4} = h^{4,2} = h^{0,2}
        "chi_O": sum((-1) ** q * v for q, v in enumerate(row0.dims)),
        "chi_Omega1": sum((-1) ** q * v for q, v in enumerate(row1.dims)),
    }
    chi = 22 * known["chi_O"] - 4 * known["chi_Omega1"]
    value = chi - known["x0"] + known["x1"] + known["x3"] - known["x4"]
    return ChaseReport([], known, {"chi": chi, "h22": value}, True)


class HodgeDiamond(NamedTuple):
    """The h^{p,q} array of a d-fold with per-cell provenance flags.

    ``blocked`` maps a named cell left undetermined (``"h22"``) to the
    reason: h^{2,2} needs exact h^{0,q} and h^{1,q} rows and a trivial
    canonical bundle.
    """

    d: int
    h: Dict[Tuple[int, int], Optional[int]]
    flags: Dict[Tuple[int, int], str]
    blocked: Dict[str, str]

    def set(self, p: int, q: int, value: Optional[int], flag: str):
        self.h[(p, q)] = value
        self.flags[(p, q)] = flag

    def get(self, p: int, q: int) -> Optional[int]:
        return self.h.get((p, q))

    def complete(self) -> bool:
        return all(
            self.h.get((p, q)) is not None
            for p in range(self.d + 1)
            for q in range(self.d + 1)
        )

    def euler_characteristic(self) -> Optional[int]:
        if not self.complete():
            return None
        return sum(
            (-1) ** (p + q) * self.h[(p, q)]
            for p in range(self.d + 1)
            for q in range(self.d + 1)
        )

    def rows(self) -> List[List[Optional[int]]]:
        return [[self.h.get((p, q)) for q in range(self.d + 1)] for p in range(self.d + 1)]


def assemble(
    Z: ZeroLocus, row0: Optional[ZCohomology] = None, row1: Optional[ZCohomology] = None
) -> HodgeDiamond:
    """Full Hodge diamond of Z (d = 3 or 4) with symmetry-forced filling.

    Rows 0 and 1 are computed unless the caller already has them.
    """
    d = Z.d
    if d not in (3, 4):
        raise ValueError("diamond assembly implemented for 3- and 4-folds")
    if row0 is None:
        row0 = h0_row(Z)
    if row1 is None:
        row1 = h1_row(Z, row0)
    dia = HodgeDiamond(d, {}, {}, {})
    for p, row in enumerate((row0, row1)):
        for q, v in enumerate(row.dims):
            dia.set(p, q, v, "computed" if v is not None else "ambiguous")
    if d == 4:
        try:
            h = h22_chase_report(Z, row0, row1).solved["h22"]
            dia.set(2, 2, h, "euler-characteristic")
        except AmbiguousCohomologyError as exc:
            dia.set(2, 2, None, "ambiguous")
            dia.blocked["h22"] = str(exc)
    # symmetry closure: h^{p,q} = h^{q,p} = h^{d-p,d-q}; each orbit is
    # closed under these maps, so one pass fills every cell a value reaches
    for p in range(d + 1):
        for q in range(d + 1):
            v = dia.get(p, q)
            if v is None:
                continue
            for pp, qq in ((q, p), (d - p, d - q), (d - q, d - p)):
                if dia.get(pp, qq) is None:
                    dia.set(pp, qq, v, "symmetry-forced")
                elif dia.get(pp, qq) != v:
                    raise ChaseStuckError(f"diamond symmetry violated at ({pp},{qq})")
    for p in range(d + 1):
        for q in range(d + 1):
            if (p, q) not in dia.h:
                dia.set(p, q, None, "ambiguous")
    return dia
