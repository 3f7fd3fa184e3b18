"""The candidate search as it ran before the slope bound, kept as an oracle.

The engine's search reads rank and dex of each lattice point in closed form
and cuts every branch whose remaining dex/rank leaves the slope range of
its suffix.  This is the earlier search: the summand pool built point by
point from the memoised ``weyl_dim`` and ``homspace.dex``, and a multiset
recursion with no bound beyond the budgets, behind an optional up-front
ratio prune of the whole space (``use_ratio``).
"""

from __future__ import annotations

from typing import List, Tuple

from bwbforge import repcalc as rc
from bwbforge.classify import CandidatePair, ExclusionRecord, SpaceSearch
from bwbforge.hodge import NOWHERE_VANISHING
from bwbforge.homspace import HomSpace, dex, dimension, fano_index
from bwbforge.rootdata import Weight


def admissible_summands(
    X: HomSpace, rank_cap: int, dex_cap: int
) -> List[Tuple[Weight, int, int]]:
    """All nonzero G-dominant weights with rank <= rank_cap, dex <= dex_cap.

    The Levi part is enumerated by coordinate recursion (rank is strictly
    monotone in every coordinate, so each position is cut off as soon as the
    cap is exceeded); twists along w_k then raise dex by rank per step.
    """
    if rank_cap < 1 or dex_cap < 1:
        return []
    r = X.rs.rank
    levi_positions = [i - 1 for i in range(1, r + 1) if i != X.k]
    out: List[Tuple[Weight, int, int]] = []

    def recurse(pos: int, coords: List[int]) -> bool:
        # False when ``coords`` itself is over the rank cap
        lam = tuple(coords)
        rank = rc.weyl_dim(X.levi, lam)
        if rank > rank_cap:
            return False
        if pos == len(levi_positions):
            base_dex = dex(X, lam) if lam != (0,) * r else 0
            t0 = 0 if any(coords) else 1
            t = t0
            while base_dex + t * rank <= dex_cap:
                w = list(coords)
                w[X.k - 1] = t
                out.append((tuple(w), rank, base_dex + t * rank))
                t += 1
            return True
        i = levi_positions[pos]
        while recurse(pos + 1, coords):
            coords[i] += 1
        coords[i] = 0
        return True

    recurse(0, [0] * r)
    return sorted(out)


def enumerate_candidates(
    X: HomSpace,
    d: int,
    use_ratio: bool = True,
    use_exceptions: bool = True,
) -> SpaceSearch:
    """All multisets of admissible summands with the exact rank/dex budget."""
    frank = dimension(X) - d
    iota = fano_index(X)
    if frank < 1:
        return SpaceSearch(X, [], [], False, note="no positive rank budget")
    pool = admissible_summands(X, frank, iota)
    if use_ratio and pool and all(dx * frank > iota * rk for _, rk, dx in pool):
        return SpaceSearch(
            X, [], [], True, note=f"every summand has dex/rank > {iota}/{frank}"
        )
    if not pool:
        return SpaceSearch(X, [], [], False, note="no admissible summands")

    exceptions = {
        lam: hit for (space, lam), hit in NOWHERE_VANISHING.items() if space == str(X)
    } if use_exceptions else {}

    found: List[Tuple[Tuple[Weight, int], ...]] = []

    def recurse(idx: int, rank_left: int, dex_left: int, chosen: List[Tuple[Weight, int]]):
        if rank_left == 0 and dex_left == 0:
            found.append(tuple(chosen))
            return
        if idx == len(pool) or rank_left <= 0 or dex_left <= 0:
            return
        lam, rk, dx = pool[idx]
        max_copies = min(rank_left // rk, dex_left // dx)
        for copies in range(max_copies, -1, -1):
            if copies:
                chosen.append((lam, copies))
            recurse(idx + 1, rank_left - copies * rk, dex_left - copies * dx, chosen)
            if copies:
                chosen.pop()

    recurse(0, frank, iota, [])
    candidates: List[CandidatePair] = []
    excluded: List[ExclusionRecord] = []
    for weights in sorted(found, key=lambda ws: tuple(sorted(ws, reverse=True))):
        weights = tuple(sorted(weights))
        hit = [exceptions[lam] for lam, _ in weights if lam in exceptions]
        if hit:
            excluded.append(
                ExclusionRecord(str(X), weights, *hit[0])
            )
        else:
            candidates.append(CandidatePair(X, weights, d))
    return SpaceSearch(X, candidates, excluded, False)
