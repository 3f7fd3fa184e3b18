"""Tautological reductions as a cross-rank oracle for the Hodge rows.

A general section of ``U^*`` (weight ``w1``, twist 0) on a space of rank-k
subspaces vanishes on the same kind of space one dimension down: on
``Gr(k, V)`` on ``Gr(k, H)`` for a hyperplane ``H``, so ``A_{n-1}/P_k``
reduces to ``A_{n-2}/P_k``; on ``OG(k, V)`` on ``OG(k, v^⊥)`` for a
non-isotropic ``v``, so ``D_n/P_k`` reduces to ``B_{n-1}/P_k`` and
``B_n/P_k`` to ``D_n/P_k`` (2 <= k <= n - 2).  A summand with no weight past
node k is a twisted Schur functor of ``U^*``: it restricts to the same
summand and its general section to a general one.  So ``F = U^* + F'`` cuts
the same ``Z`` as ``F'`` on the smaller space, and the two Hodge rows the
engine computes for it must not contradict each other.
"""

import pytest

from bwbforge import hodge
from bwbforge.classify import enumerate_candidates
from bwbforge.homspace import HomSpace
from bwbforge.koszul import BundleSum, ZeroLocus
from bwbforge.rootdata import RootSystem


def reduction_steps(family, max_rank):
    """(X, Y): each space of ``family`` to rank ``max_rank`` whose ``U^*`` locus is Y."""
    for r in range(2, max_rank + 1):
        if family == "A":
            for k in range(1, r):
                yield HomSpace(RootSystem("A", r), k), HomSpace(RootSystem("A", r - 1), k)
        elif r >= 4:
            target = ("B", r - 1) if family == "D" else ("D", r)
            for k in range(2, r - 1):
                yield HomSpace(RootSystem(family, r), k), HomSpace(RootSystem(*target), k)


def reduced_locus(cand, Y):
    """The zero locus on Y of ``cand``'s bundle less one ``U^*``, or None if it does not reduce."""
    X = cand.space
    rest = dict(cand.weights)
    u = X.fundamental(1)
    if u not in rest or any(any(lam[X.k:]) for lam in rest):
        return None
    rest[u] -= 1
    rank = Y.rs.rank
    return ZeroLocus(Y, BundleSum.make(Y, {lam[:rank]: m for lam, m in rest.items() if m}))


@pytest.mark.parametrize("family,max_rank,pairs", [("A", 7, 133), ("D", 6, 39), ("B", 6, 41)])
def test_reduced_loci_have_the_same_hodge_rows(family, max_rank, pairs):
    seen = both_exact = h22_exact = 0
    for X, Y in reduction_steps(family, max_rank):
        for d in (3, 4):
            for cand in enumerate_candidates(X, d).candidates:
                Zr = reduced_locus(cand, Y)
                if Zr is None:
                    continue
                Z = cand.zero_locus()
                assert Zr.d == Z.d and Zr.is_canonical_trivial()
                seen += 1
                row0, row0r = hodge.h0_row(Z), hodge.h0_row(Zr)
                # the h^{0,*} type (CY, empty, disconnected, abelian, HK) is kept
                assert row0.status == row0r.status == "exact"
                assert row0.dims == row0r.dims, (str(X), str(Z.bundle), str(Zr.bundle))
                row1, row1r = hodge.h1_row(Z, row0), hodge.h1_row(Zr, row0r)
                both_exact += row1.status == row1r.status == "exact"
                cells = list(zip(row1.cells, row1r.cells))
                if Z.d == 4:
                    pair = tuple(hodge.h22_chase_report(*args).cells["h22"]
                                 for args in ((Z, row0, row1), (Zr, row0r, row1r)))
                    h22_exact += all(lo == hi for lo, hi in pair)
                    cells.append(pair)
                for (lo, hi), (lor, hir) in cells:
                    # both intervals hold h^{1,q} (or h^{2,2}) of the one Z, so they
                    # meet: a certified cell on one side lies inside the other's
                    # interval, and two certified cells are equal
                    assert max(lo, lor) <= min(hi, hir), (str(X), str(Z.bundle), row1, row1r)
    assert seen == pairs and both_exact > pairs // 2 and h22_exact > 0
