"""Geometry of rational homogeneous varieties G/P_k of Picard number one.

The variety is encoded by its ambient root system and the Bourbaki index k
of the omitted simple node.  Dimension, Fano index and the graded pieces of
the cotangent bundle are all read off the set of positive roots whose
coefficient at alpha_k is positive; the ``dex`` invariant of an irreducible
bundle E_lambda is the k-th coordinate of the sum of all weights of the
underlying Levi module, so that det(E_lambda) = O(dex).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, NamedTuple, Tuple

from . import repcalc as rc
from .rootdata import (
    RootSystem,
    Weight,
    parse_root_system,
    positive_roots,
    root_to_weight,
    validated_make,
)


class _HomSpace(NamedTuple):
    rs: RootSystem
    k: int


class HomSpace(_HomSpace):
    """G/P_k for the k-th maximal parabolic of a simple group."""

    __slots__ = ()
    _make = classmethod(validated_make)

    def __new__(cls, rs: RootSystem, k: int):
        if not 1 <= k <= rs.rank:
            raise ValueError(f"parabolic index {k} out of range for {rs}")
        return super().__new__(cls, rs, k)

    def __str__(self):
        return f"{self.rs}/P{self.k}"

    @property
    def levi(self) -> rc.Context:
        return rc.levi_context(self.rs, self.k)

    @property
    def group(self) -> rc.Context:
        return rc.full_context(self.rs)

    def fundamental(self, i: int) -> Weight:
        return tuple(1 if m == i - 1 else 0 for m in range(self.rs.rank))

    def line(self, t: int) -> Weight:
        """Weight of the line bundle O(t)."""
        return tuple(t if m == self.k - 1 else 0 for m in range(self.rs.rank))

    def twist(self, lam: Weight, t: int) -> Weight:
        """E_lambda(t) = E_{lambda + t * w_k}."""
        k = self.k
        return lam[: k - 1] + (lam[k - 1] + t,) + lam[k:]


def parse_homspace(text: str) -> HomSpace:
    """Parse a designator like 'E6/P3' or 'G2/P1'."""
    parts = text.strip().split("/")
    if len(parts) != 2 or not parts[1].upper().startswith("P"):
        raise ValueError(f"cannot parse homogeneous space {text!r}")
    rs = parse_root_system(parts[0])
    try:
        k = int(parts[1][1:])
    except ValueError as exc:
        raise ValueError(f"cannot parse homogeneous space {text!r}") from exc
    return HomSpace(rs, k)


@lru_cache(maxsize=None)
def nilradical_roots(X: HomSpace) -> Tuple[Tuple[int, ...], ...]:
    """Positive roots with positive coefficient at alpha_k."""
    return tuple(b for b in positive_roots(X.rs) if b[X.k - 1] > 0)


def dimension(X: HomSpace) -> int:
    return len(nilradical_roots(X))


@lru_cache(maxsize=None)
def fano_index(X: HomSpace) -> int:
    """iota with K_X = O(-iota): k-coordinate of the sum over the nilradical.

    ``root_to_weight`` is linear, so the roots are summed first and
    converted once.
    """
    total = [sum(column) for column in zip(*nilradical_roots(X))]
    return root_to_weight(X.rs, total)[X.k - 1]


def minimal_embedding_dim(X: HomSpace) -> int:
    """N with X in P^N minimally: dim V_G(w_k) - 1."""
    return rc.weyl_dim(X.group, X.fundamental(X.k)) - 1


def depth(X: HomSpace) -> int:
    return max(b[X.k - 1] for b in nilradical_roots(X))


class GradedCotangent(NamedTuple):
    """Graded pieces of Omega_{G/P}, deepest piece first (the subbundle end).

    ``pieces[j]`` is the decomposition into irreducible bundles E_lambda of
    the piece dual to g_{-level[j]}; the weight lambda is the Levi-highest
    weight of g_{-level[j]} itself, because E_lambda carries the dual module
    in its fibre.
    """

    depth: int
    levels: Tuple[int, ...]
    pieces: Tuple[Tuple[Tuple[Weight, int], ...], ...]

    def as_filtration(self) -> List[rc.IrrDecomp]:
        return [dict(p) for p in self.pieces]


@lru_cache(maxsize=None)
def gradation(X: HomSpace) -> GradedCotangent:
    """Levi-irreducible pieces of the cotangent bundle, by grading level."""
    rs = X.rs
    m = depth(X)
    roots = set(positive_roots(rs))
    levi_simple = [tuple(1 if j == i - 1 else 0 for j in range(rs.rank)) for i in X.levi.levi]
    levels = []
    pieces = []
    for ell in range(m, 0, -1):
        phi = [b for b in nilradical_roots(X) if b[X.k - 1] == ell]
        decomp: Dict[Weight, int] = {}
        for b in phi:
            # -b is a highest vector of g_{-ell} iff no Levi raising survives
            raisable = any(
                tuple(x - y for x, y in zip(b, a)) in roots for a in levi_simple
            )
            if not raisable:
                w = tuple(-c for c in root_to_weight(rs, b))
                decomp[w] = decomp.get(w, 0) + 1
        total = sum(rc.weyl_dim(X.levi, lam) * mult for lam, mult in decomp.items())
        assert total == len(phi), f"graded piece {ell} of {X}: {total} != {len(phi)}"
        levels.append(ell)
        pieces.append(tuple(sorted(decomp.items())))
    return GradedCotangent(depth=m, levels=tuple(levels), pieces=tuple(pieces))


def dex(X: HomSpace, lam: Weight) -> int:
    """det E_lambda = O(dex): k-coordinate of the sum of module weights."""
    return rc.sum_of_weights(X.levi, lam)[X.k - 1]


def bundle_rank(X: HomSpace, lam: Weight) -> int:
    return rc.weyl_dim(X.levi, lam)

