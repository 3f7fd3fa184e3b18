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
h^{2,2} = chi(Omega^2_Z) - 2 h^{0,2} + 2 h^{1,2}, an interval when h^{0,2}
or h^{1,2} is one; on any other fourfold it is blocked.  Each number is
kept once, as an interval (lo, hi) that is a point where certified: a row is
a ``koszul.ZCohomology``, one interval per cell as the Koszul solve returns
it, and ``ChaseReport`` and ``HodgeDiamond`` hold theirs in ``cells`` too;
``assemble`` gives each cell of the diamond the meet of its symmetry orbit.
A row function is handed the rows it reads, and never recomputes them.

``h1_chase_report`` is the one h^{1,q} chase, and ``h1_row`` reads its cells
off it.  ``solve_exact_system`` runs it on ``koszul.narrow``, the integer
interval kernel of the spectral solve: each term of the sequence is the sum
of the ranks of its two maps, and the Euler characteristics of the
restricted sheaves are rows too.  No map is ever assumed to vanish.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .homspace import HomSpace, gradation
from .koszul import FilteredBundle, Row, ZCohomology, ZeroLocus, narrow, restricted_cohomology
from .rootdata import Weight

Cell = Union[int, str]  # a known dimension or the name of an unknown


class EmptyLocusError(ValueError):
    """A summand has nowhere-vanishing general sections: ``empty_reason`` names it."""


class AmbiguousCohomologyError(RuntimeError):
    """Raised when a caller insists on exact values the certificates deny."""


class ChaseStuckError(RuntimeError):
    pass


Interval = Tuple[int, int]


def solve_exact_system(terms: Sequence[Interval], chis: Sequence[Tuple[Sequence[int], int]]
                       ) -> List[Interval]:
    """Narrow the terms of an exact sequence 0 -> t_0 -> t_1 -> ... -> t_m -> 0.

    ``terms[i]`` is the interval t_i lies in, and each (indices, chi) of
    ``chis`` says that the alternating sum of the terms at ``indices`` is chi.
    With r_i >= 0 the rank of t_i -> t_{i+1}, exactness is t_i = r_{i-1} + r_i;
    ``koszul.narrow`` propagates these rows and the Euler rows to a fixpoint
    and returns the narrowed interval of each term.  No map is assumed to
    vanish, and AssertionError means no exact sequence fits.
    """
    m = len(terms)
    lo = [t[0] for t in terms] + [0] * (m - 1)
    hi = [t[1] for t in terms] + [min(terms[i][1], terms[i + 1][1]) for i in range(m - 1)]
    rows: List[Row] = [((i,), [m + j for j in (i - 1, i) if 0 <= j < m - 1], 0) for i in range(m)]
    rows += [(indices[0::2], indices[1::2], chi) for indices, chi in chis]
    narrow(lo, hi, rows)
    return list(zip(lo[:m], hi[:m]))


class ChaseReport(NamedTuple):
    """Audit trail of an exact-sequence chase.

    ``sequences`` holds the interleaved long exact sequences (integers for
    known dimensions, names for unknowns), ``known`` the symmetry-forced
    seeds and the Euler characteristics read off, and ``cells`` the interval
    of every unknown, a point where exactness and the recorded cells pin it.
    """

    sequences: List[List[Cell]]
    known: Dict[str, int]
    cells: Dict[str, Interval]


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

    Its long exact sequence runs over a_0, b_0, x_0, ..., a_d, b_d, x_d, the
    h^q of the three sheaves.  a_q and b_q lie in the intervals their
    spectral solves certified, and their alternating sums are their exact
    Euler characteristics ``chi_a`` and ``chi_b``, and that of the x_q is
    chi_b - chi_a, a row exactness implies but ``narrow`` cannot derive.
    x_0 = h^{0,1} and x_d = h^{0,d-1} are seeded from row 0, the other x_q
    are free; the interval chase ``solve_exact_system`` narrows them all.
    """
    d = Z.d
    a, b = (restricted_cohomology(Z, E) for E in (Z.bundle.dual(), omega_filtration(Z.space)))
    A, B, R = a.cells, b.cells, row0.cells
    free = (0, sum(hi for _, hi in A + B))  # x_q <= b_q + a_{q+1}
    cells = [cell for q in range(d + 1) for cell in (A[q], B[q], free)]
    # conjugation: h^{1,0} = h^{0,1}; Serre duality: h^{1,d} = h^{d-1,0} = h^{0,d-1}
    cells[2], cells[-1] = R[1], R[d - 1]
    names = [f"{s}{q}" for q in range(d + 1) for s in "abx"]
    known = {n: lo for n, (lo, hi) in zip(names, cells) if n in ("x0", f"x{d}") and lo == hi}
    seq: List[Cell] = [lo if lo == hi and n[0] != "x" else n for n, (lo, hi) in zip(names, cells)]
    chis = (a.chi, b.chi, b.chi - a.chi)
    got = solve_exact_system(cells, [(range(i, len(cells), 3), chi) for i, chi in enumerate(chis)])
    unknowns = {n: t for n, c, t in zip(names, seq, got) if c == n}
    return ChaseReport([seq], {**known, "chi_a": a.chi, "chi_b": b.chi}, unknowns)


def h1_row(Z: ZeroLocus, row0: ZCohomology) -> ZCohomology:
    """h^{1,q}(Z), the cells x_q that ``h1_chase_report`` solves or bounds from row 0."""
    rep = h1_chase_report(Z, row0)
    return ZCohomology(tuple(rep.cells[f"x{q}"] for q in range(Z.d + 1)),
                       rep.known["chi_b"] - rep.known["chi_a"])


def h22_chase_report(Z: ZeroLocus, row0: ZCohomology, row1: ZCohomology) -> ChaseReport:
    """h^{2,2} from chi(Omega^2_Z) = 22 chi_O - 4 chi_Omega1, with its inputs.

    chi_O and chi_Omega1 are the exact Euler characteristics of rows 0 and 1;
    the cells h^{2,q}, q != 2, are h^{0,2} and h^{1,2} by symmetry, and
    chi(Omega^2_Z) = x0 - x1 + h22 - x3 + x4 leaves h22 the one unknown.
    Each input is read as its interval, and ``cells`` holds chi, h22 (cut
    at 0 below, a point when h^{0,2} and h^{1,2} are certified or the cut
    closes it) and the bounded inputs.  Libgober-Wood needs c_1(Z) = 0.
    """
    if Z.d != 4:
        raise ValueError("h22 is computed for fourfolds")
    if not Z.is_canonical_trivial():
        raise AmbiguousCohomologyError("h22 needs a trivial canonical bundle")
    h02, h12 = row0.cells[2], row1.cells[2]
    # h^{2,0} = h^{2,4} = h^{0,2} and h^{2,1} = h^{2,3} = h^{1,2}
    inputs = {"x0": h02, "x1": h12, "x3": h12, "x4": h02}
    known = {n: lo for n, (lo, hi) in inputs.items() if lo == hi}
    cells = {n: c for n, c in inputs.items() if c[0] != c[1]}
    chi = 22 * row0.chi - 4 * row1.chi
    cells.update(chi=(chi, chi), h22=(max(0, chi - 2 * h02[1] + 2 * h12[0]),
                                      chi - 2 * h02[0] + 2 * h12[1]))
    known.update(chi_O=row0.chi, chi_Omega1=row1.chi)
    return ChaseReport([], known, cells)


class HodgeDiamond(NamedTuple):
    """The h^{p,q} array of a d-fold with per-cell provenance flags.

    ``cells[p, q]`` is the interval h^{p,q} lies in, a point where it is
    certified, or None where no row reaches the cell; ``get`` and ``rows``
    read the points.  ``blocked`` maps a named cell left undetermined
    (``"h22"``) to the reason: a nontrivial canonical bundle, or the
    interval h^{2,2} lies in and the bounded h^{0,2} or h^{1,2} it comes from.
    """

    d: int
    cells: Dict[Tuple[int, int], Optional[Interval]]
    flags: Dict[Tuple[int, int], str]
    blocked: Dict[str, str]

    def get(self, p: int, q: int) -> Optional[int]:
        c = self.cells.get((p, q))
        return c[0] if c and c[0] == c[1] else None

    def complete(self) -> bool:
        return all(v is not None for row in self.rows() for v in row)

    def euler_characteristic(self) -> Optional[int]:
        if not self.complete():
            return None
        return sum((-1) ** (p + q) * v for p, row in enumerate(self.rows())
                   for q, v in enumerate(row))

    def rows(self) -> List[List[Optional[int]]]:
        return [[self.get(p, q) for q in range(self.d + 1)] for p in range(self.d + 1)]


def assemble(
    Z: ZeroLocus, row0: Optional[ZCohomology] = None, row1: Optional[ZCohomology] = None
) -> HodgeDiamond:
    """Full Hodge diamond of Z (d = 3 or 4), each cell the meet of its orbit's intervals.

    The orbit of (p, q) under conjugation and Serre duality is (q, p),
    (d - p, d - q) and (d - q, d - p).  Rows 0 and 1 and, on a fourfold,
    h^{2,2} give intervals; a cell is certified when the meet of those in
    its orbit is a point: ``computed`` (``euler-characteristic`` for h^{2,2})
    if its own interval is one, ``symmetry-forced`` if only the meet is.  The
    diamond keeps every meet in ``cells``, an open one flagged ``ambiguous``.
    An empty meet raises ChaseStuckError.  Rows 0 and 1 are computed unless
    the caller already has them.
    """
    d = Z.d
    if d not in (3, 4):
        raise ValueError("diamond assembly implemented for 3- and 4-folds")
    row0 = h0_row(Z) if row0 is None else row0
    row1 = h1_row(Z, row0) if row1 is None else row1
    own = {(p, q): c for p, row in enumerate((row0, row1)) for q, c in enumerate(row.cells)}
    dia = HodgeDiamond(d, {}, {}, {})
    if d == 4:
        try:
            own[2, 2] = lo, hi = h22_chase_report(Z, row0, row1).cells["h22"]
            if lo != hi:
                bounded = " and ".join(f"h^{{{p},2}} in {list(own[p, 2])}" for p in (0, 1)
                                       if own[p, 2][0] != own[p, 2][1])
                dia.blocked["h22"] = f"h22 in {[lo, hi]} from bounded {bounded}"
        except AmbiguousCohomologyError as exc:
            dia.blocked["h22"] = str(exc)
    for p in range(d + 1):
        for q in range(d + 1):
            meet = [own[c] for c in {(p, q), (q, p), (d - p, d - q), (d - q, d - p)} if c in own]
            cell = (max(c[0] for c in meet), min(c[1] for c in meet)) if meet else None
            if cell and cell[0] > cell[1]:
                raise ChaseStuckError(f"diamond symmetry violated at ({p},{q})")
            dia.cells[p, q] = cell
            dia.flags[p, q] = ("ambiguous" if not cell or cell[0] != cell[1]
                               else "symmetry-forced" if own.get((p, q)) != cell
                               else "euler-characteristic" if (p, q) == (2, 2) else "computed")
    return dia
