"""Seeded generator for the ``restrict-mix`` workload.

A session is a list of ``H^q(Z, E|_Z)`` queries.  ``Z`` runs over the
Calabi-Yau loci of the paper's two tables except the ``E7/P1`` fourfold,
whose Koszul data alone costs more than the rest of the session.  Every locus
gets the same number of queries, so the session's cost does not hinge on how
often the seed happens to pick a heavy locus; the session takes the loci in
table order, as a user studying one locus at a time would.  Of a locus's six
bundles, five are completely reducible sums of one or two summands with small
Levi parts, in shapes fixed per locus, and one is a twisted cotangent bundle
``Omega_X(t)`` with its filtration, at a twist fixed per locus.  The seed
draws the twists of the sums.  Everything else is fixed because it moved the
figures between seeds: drawing the Levi parts moved the session's median
latency by a factor of three (the latencies span three orders of magnitude),
and drawing the cotangent twists and the order moved its peak memory between
54 and 65 MB, depending on whether and when ``Omega(1)`` on ``E6/P3`` came.

The generator returns plain data; :func:`build` turns a query into engine
objects.  Only those ``(Z, E)`` inputs ever reach the engine.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

Weight = Tuple[int, ...]
# (space, summands of F, E) with E = ("sum", summands) or ("omega", twist)
Query = Tuple[str, Tuple[Tuple[Weight, int], ...], tuple]

# Table 1 (fourfolds, without E7/P1) and Table 2 (threefolds), each with the
# twist t of its cotangent query Omega_X(t): spread over -2..2, and including
# Omega(1) on E6/P3, the query with the largest transient memory
LOCI: Tuple[Tuple[str, Tuple[Tuple[Weight, int], ...], int], ...] = (
    ("E6/P1", (((1, 0, 0, 0, 0, 0), 12),), 1),
    ("E6/P2", (((0, 0, 0, 0, 0, 1), 2), ((0, 1, 0, 0, 0, 0), 5)), -1),
    ("E6/P2", (((0, 1, 0, 0, 0, 0), 5), ((1, 0, 0, 0, 0, 0), 1), ((0, 0, 0, 0, 0, 1), 1)), 0),
    ("E6/P2", (((0, 1, 0, 0, 0, 0), 5), ((1, 0, 0, 0, 0, 0), 2)), 2),
    ("E6/P3", (((0, 0, 1, 0, 0, 0), 1), ((0, 0, 0, 0, 0, 1), 4)), 1),
    ("E6/P3", (((0, 0, 0, 0, 0, 1), 3), ((1, 0, 0, 0, 0, 0), 3)), -2),
    ("F4/P1", (((0, 0, 0, 1), 1), ((1, 0, 0, 0), 5)), -1),
    ("F4/P4", (((0, 0, 0, 1), 11),), 2),
    ("F4/P4", (((0, 0, 0, 1), 4), ((1, 0, 0, 0), 1)), -2),
    ("G2/P1", (((5, 0), 1),), 1),
    ("G2/P2", (((0, 3), 1),), -2),
    ("E6/P3", (((1, 0, 0, 0, 0, 0), 1), ((0, 0, 0, 0, 0, 1), 4)), 0),
    ("G2/P1", (((1, 0), 1), ((4, 0), 1)), -1),
    ("G2/P1", (((2, 0), 1), ((3, 0), 1)), 2),
    ("G2/P1", (((1, 1), 1),), 0),
    ("G2/P2", (((0, 1), 1), ((0, 2), 1)), 1),
    ("G2/P2", (((1, 1), 1),), -1),
)

TWISTS = range(-3, 4)

# per space, the two Levi fundamental weights of smallest rank (a, b); G2 has one
SMALL_LEVI: Dict[str, Tuple[Weight, Weight]] = {
    "E6/P1": ((0, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0)),  # ranks 10, 16
    "E6/P2": ((1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)),  # ranks 6, 6
    "E6/P3": ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)),  # ranks 2, 5
    "F4/P1": ((0, 0, 0, 1), (0, 1, 0, 0)),  # ranks 6, 14
    "F4/P4": ((1, 0, 0, 0), (0, 0, 1, 0)),  # ranks 7, 8
    "G2/P1": ((0, 1), (0, 1)),  # rank 2
    "G2/P2": ((1, 0), (1, 0)),  # rank 2
}


def levi_shapes(space: str) -> List[Tuple[Weight, ...]]:
    """The five bundle shapes of a locus: ``O, O + O, a, a + O, b`` before twisting.

    The shapes are fixed per locus so that every seed asks for the same mix
    of bundle sizes; the seed only picks the twists and the order.
    """
    a, b = SMALL_LEVI[space]
    o = (0,) * len(a)
    return [(o,), (o, o), (a,), (a, o), (b,)]


def generate(seed: int) -> List[Query]:
    """The session for ``seed``: same seed, same list."""
    rng = random.Random(seed)
    queries: List[Query] = []
    for space, bundle, omega_twist in LOCI:
        k = int(space.split("/P")[1])
        queries.append((space, bundle, ("omega", omega_twist)))
        for shape in levi_shapes(space):
            summands: Dict[Weight, int] = {}
            for levi_part in shape:
                lam = list(levi_part)
                lam[k - 1] = rng.choice(TWISTS)
                summands[tuple(lam)] = summands.get(tuple(lam), 0) + 1
            queries.append((space, bundle, ("sum", tuple(sorted(summands.items())))))
    return queries


def build(query: Query):
    """Engine objects ``(Z, E)`` for one query."""
    from bwbforge.hodge import omega_filtration
    from bwbforge.homspace import parse_homspace
    from bwbforge.koszul import BundleSum, ZeroLocus

    space, bundle, (kind, arg) = query
    X = parse_homspace(space)
    Z = ZeroLocus(X, BundleSum.make(X, dict(bundle)))
    if kind == "omega":
        return Z, omega_filtration(X).twist(X, arg)
    return Z, BundleSum.make(X, dict(arg))
