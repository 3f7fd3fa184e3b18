"""Hodge numbers of a zero locus, end to end.

Take the adjoint variety G2/P2 and the cubic section Z = Z(s), s a general
section of O(3).  The Koszul resolution turns sheaf cohomology on Z into
Borel-Weil-Bott data on G2/P2; the conormal sequence fills in the h^{1,q}
row.  Z has trivial canonical bundle, so the Libgober-Wood identity reads
chi(Omega^2_Z) = 22 chi(O_Z) - 4 chi(Omega^1_Z) off those two rows, and
h^{2,2} follows.  The same pipeline drives every row of the classification
tables.
"""

from bwbforge.hodge import (
    assemble,
    h0_row,
    h1_chase_report,
    h1_row,
    h22_chase_report,
    is_hyperkaehler,
)
from bwbforge.homspace import parse_homspace
from bwbforge.koszul import BundleSum, ZeroLocus

X = parse_homspace("G2/P2")
Z = ZeroLocus(X, BundleSum.make(X, {X.line(3): 1}))
print(f"Z = zero locus of O(3) on {X}: dimension {Z.d},",
      "canonical bundle trivial" if Z.is_canonical_trivial() else "K nontrivial")

row0 = h0_row(Z)
print("h^{0,q} =", row0.dims, "->",
      "hyperkaehler candidate" if is_hyperkaehler(row0.dims)
      else "Calabi-Yau but not hyperkaehler")

row1 = h1_row(Z, row0)
print("h^{1,q} =", row1.dims)
report = h1_chase_report(Z, row0)
print("  conormal chase solved:",
      {n: lo for n, (lo, hi) in sorted(report.cells.items()) if lo == hi})

report = h22_chase_report(Z, row0, row1)
print("Euler characteristics of rows 0 and 1:",
      {k: v for k, v in report.known.items() if k.startswith("chi")})
print("chi(Omega^2_Z) = 22 chi_O - 4 chi_Omega1 =", report.cells["chi"][0],
      "-> h^{2,2} =", report.cells["h22"][0])

dia = assemble(Z)
print("full diamond:")
for row in dia.rows():
    print("   ", row)
print("Euler characteristic:", dia.euler_characteristic())

print()
print("== the hyperkaehler fourfold, for contrast ==")
gr26 = parse_homspace("A5/P2")  # the Grassmannian Gr(2,6)
Zbd = ZeroLocus(gr26, BundleSum.make(gr26, {(3, 0, 0, 0, 0): 1}))
s = h0_row(Zbd)
print("S^3 U* on Gr(2,6): h(O_Z) =", s.dims, "->",
      "the hyperkaehler row" if is_hyperkaehler(s.dims) else "not hyperkaehler")
# one d_1 of the F^*|_Z page stays open, so the chase bounds the h^{1,q}
# row instead of certifying it; the K3^[2] values 21, 0, 21 lie inside
bd1 = h1_row(Zbd, s)
print("h^{1,q} =", bd1.dims, "with bounds", bd1.bounds, "and chi(Omega^1_Z) =", bd1.chi)
# h^{2,2} reads only h^{0,2} and h^{1,2}, so the bounded h^{1,2} leaves it an
# interval; the K3^[2] value 276 lies inside
report = h22_chase_report(Zbd, s, bd1)
print("h^{2,2} lies in", list(report.cells["h22"]), "from h^{1,2} in", list(report.cells["x1"]))
# the diamond keeps the meet of each cell's symmetry orbit, a point or bounds
dia = assemble(Zbd, s, bd1)
print("open cells of the diamond:",
      {pq: list(c) for pq, c in sorted(dia.cells.items()) if c[0] != c[1]})
