"""Borel-Weil-Bott in action: from weights to cohomology tables.

An irreducible equivariant bundle E_lambda on G/P_k either has no
cohomology at all (lambda + rho singular) or exactly one group, whose
degree is the length of the climbing word and whose label is the dominant
representative minus rho.  A filtered bundle goes through the Koszul route
with a rank-0 F: then Z = X, the E1 page has only p = 0, one entry per
graded piece and degree, and RegInd is the set of degrees on that page.
"""

from bwbforge.bwbcohom import bundle_cohomology, bwb
from bwbforge.homspace import gradation, parse_homspace
from bwbforge.koszul import BundleSum, FilteredBundle, ZeroLocus, e1_page, restricted_cohomology
from bwbforge.repcalc import weyl_dim

X = parse_homspace("G2/P2")

print("== irreducible bundles on G2/P2 ==")
for t in range(-9, 1, 3):
    lam = X.line(t)
    table = bwb(X, lam)
    if not table.dims():
        print(f"O({t}): acyclic")
    else:
        (q, row), = table.entries.items()
        (hw, mult), = row.items()
        print(f"O({t}): H^{q} = V{hw}^* of dimension {weyl_dim(X.group, hw)}")

print()
print("== the cotangent bundle, a genuinely filtered object ==")
om = FilteredBundle.from_decomps(gradation(X).as_filtration())
print("graded pieces (subbundle end first):", [dict(g) for g in om.gradeds])
on_x = ZeroLocus(X, BundleSum.make(X, {}))
page = e1_page(on_x, om)
print("E1 page {(p, graded, q): dim} =", page)
print("RegInd(Omega) =", {q for (_, _, q) in page})
print("H(Omega) =", restricted_cohomology(on_x, om).dims, " -- the Picard rank in H^1")

for t in (-3, -6):
    zc = restricted_cohomology(on_x, om.twist(X, t))
    print(f"H(Omega({t})) =", zc.dims, zc.status)

print()
print("== direct sums are exact: no certificates needed ==")
bundle = {(-8, 1): 1, (-6, 0): 1}
table = bundle_cohomology(parse_homspace("G2/P1"), bundle)
print("E_w2(-8) + O(-6) on G2/P1:", table.dims(),
      "split as", {str(k): v for k, v in table.entries[5].items()})
