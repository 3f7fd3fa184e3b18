"""The second wedge of the conormal sequence, an oracle for h^{2,2}.

For a fourfold Z the sequence 0 -> S^2 F^*|_Z -> (F^* (x) Omega_X)|_Z ->
Omega^2_X|_Z -> Omega^2_Z -> 0 is exact, so chi(Omega^2_Z) is the
alternating sum of the chi of its first three terms, each the alternating
sum of its Koszul E_1 page whatever the differentials are.  That holds on
any fourfold, K_Z trivial or not, and uses no Riemann-Roch identity, which
makes it the independent check on the engine's ``hodge.h22_chase_report``.
The three bundles are built from Levi characters: S^2 F^* and Lambda^2 of a
cotangent piece by the per-weight plethysm, F^* (x) g_{-l} and
g_{-i} (x) g_{-j} by Brauer-Klimyk, shifting the character of g_{-l} by
each irreducible of the other factor.

``kernel_chase`` splits the same sequence at the kernel of its last map and
chases the two short exact sequences instead; it needs every restricted
bundle exact, and stalls where one is only bounded.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from bwbforge import repcalc as rc
from bwbforge.bwbcohom import FilteredBundle
from bwbforge.hodge import Cell, HodgeRow, _conormal_les, solve_exact_system
from bwbforge.homspace import HomSpace, gradation, nilradical_roots
from bwbforge.koszul import (
    AmbiguousCohomologyError,
    BundleSum,
    RestrictableBundle,
    ZeroLocus,
    e1_page,
    restricted_cohomology,
)
from bwbforge.rootdata import Weight, root_to_weight

from char_helpers import decompose, tensor_char


def graded_module_char(X: HomSpace, ell: int) -> rc.PackedChar:
    """Character of the Levi module g_{-ell} (all weights multiplicity one)."""
    weights: Dict[Weight, int] = {}
    for b in nilradical_roots(X):
        if b[X.k - 1] == ell:
            w = tuple(-c for c in root_to_weight(X.rs, b))
            weights[w] = weights.get(w, 0) + 1
    return rc.char_from_weights(weights)


def symmetric_square_bundle(Z: ZeroLocus) -> BundleSum:
    X = Z.space
    char = Z.bundle.dual().char()
    table = rc.symmetric_char_table(char, 2, X.rs.rank)
    return BundleSum.make(X, decompose(X.levi, table[2]))


def fstar_tensor_omega(Z: ZeroLocus) -> FilteredBundle:
    """(F^* (x) Omega_X) filtered by the cotangent gradation, deep end first."""
    X = Z.space
    fstar = Z.bundle.dual().as_dict()
    return FilteredBundle.from_decomps(
        [
            tensor_char(X.levi, fstar, graded_module_char(X, ell))
            for ell in gradation(X).levels
        ]
    )


def omega_square(Z: ZeroLocus) -> FilteredBundle:
    """Lambda^2 Omega_X graded by total depth (deepest first)."""
    X = Z.space
    grad = gradation(X)
    pieces = dict(zip(grad.levels, grad.as_filtration()))
    decomps = []
    for s in range(2 * grad.depth, 1, -1):
        acc: rc.IrrDecomp = {}
        for i in grad.levels:
            j = s - i
            if j < i or j not in pieces:
                continue
            if i == j:
                wedge = rc.exterior_char_table(graded_module_char(X, i), 2, X.rs.rank)[2]
                piece = decompose(X.levi, wedge)
            else:
                piece = tensor_char(X.levi, pieces[i], graded_module_char(X, j))
            for lam, mult in piece.items():
                acc[lam] = acc.get(lam, 0) + mult
        if acc:
            decomps.append(acc)
    return FilteredBundle.from_decomps(decomps)


def euler_characteristic(Z: ZeroLocus, E: RestrictableBundle) -> int:
    """chi(Z, E|_Z), the alternating sum of the Koszul E_1 page.

    Every differential raises the total degree q - p by one, so the sum is
    the same on every page and on the abutment, whatever the differentials.
    """
    return sum((-1) ** (q - p) * n for (p, _, q), n in e1_page(Z, E).items())


def h22(Z: ZeroLocus, row0: HodgeRow, row1: HodgeRow) -> int:
    """h^{2,2} = chi(Omega^2_Z) - 2 h^{0,2} + 2 h^{1,2}, chi(Omega^2_Z) from the three pages."""
    chi = (
        euler_characteristic(Z, omega_square(Z))
        - euler_characteristic(Z, fstar_tensor_omega(Z))
        + euler_characteristic(Z, symmetric_square_bundle(Z))
    )
    return chi - 2 * row0.values[2] + 2 * row1.values[2]


def kernel_chase(Z: ZeroLocus, row0: HodgeRow, row1: HodgeRow) -> Tuple[Dict[str, int], bool]:
    """h^{2,2} by splitting the second wedge at the kernel K of its last map.

    The two short exact sequences share the unknowns k_q = h^q(K), and the
    Omega^2_Z cells other than (2, 2) are forced from rows 0 and 1.  Returns
    the solved cells and whether all were determined; raises when one of the
    three bundles is only bounded.
    """

    def dims(E, what):
        t = restricted_cohomology(Z, E)
        if t.status != "exact":
            raise AmbiguousCohomologyError(f"{what}: {t.bounds}")
        return t.dims

    a = dims(symmetric_square_bundle(Z), "S^2F^*|_Z")
    b = dims(fstar_tensor_omega(Z), "F^* (x) Omega|_Z")
    c = dims(omega_square(Z), "Omega^2|_Z")
    x = [row0.values[2], row1.values[2], "h22", row1.values[2], row0.values[2]]
    k = [f"k{q}" for q in range(5)]
    return solve_sequences([_conormal_les(a, b, k), _conormal_les(k, c, x)])


def solve_sequences(sequences: List[List[Cell]]) -> Tuple[Dict[str, int], bool]:
    """Solve exact sequences that share unknowns, to a fixpoint.

    Each pass substitutes the values found so far and solves every sequence
    once more with ``solve_exact_system``; it stops when a pass finds nothing
    new.  Returns the solved unknowns and whether everything was determined.
    """
    values: Dict[str, int] = {}
    progress = True
    while progress:
        progress = False
        for seq in sequences:
            solved, _ = solve_exact_system([values.get(c, c) if isinstance(c, str) else c
                                            for c in seq])
            progress |= bool(solved)
            values.update(solved)
    names = {c for seq in sequences for c in seq if isinstance(c, str)}
    return values, names <= set(values)
