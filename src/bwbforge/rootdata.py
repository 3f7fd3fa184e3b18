"""Root systems, Cartan data and Weyl-group machinery for the simple types A-G.

Conventions (fixed once, used by every other module):

* Simple roots are numbered 1..rank in the Bourbaki ordering.  For the
  exceptional types this means: E6/E7/E8 have the chain 1-3-4-5-...-rank with
  node 2 attached to node 4; F4 is 1-2=>3-4 (alpha1, alpha2 long); G2 is
  1<=2 (alpha1 short, alpha2 long).
* A *weight* is a tuple of integers, coordinate ``i`` being the coefficient
  of the fundamental weight w_{i+1}.
* A *root* is a tuple of integers in the simple-root basis.
* The invariant bilinear form is normalised so that long roots have squared
  length 2.
* ``simple_root_weight`` realises alpha_j in the fundamental-weight basis;
  its coefficients are <alpha_j, alpha_i^v>, i.e. the j-th column of the
  Cartan matrix returned by :func:`cartan_matrix`.

The simple reflection acts by ``s_i(w) = w - w[i-1] * alpha_i``; this is the
convention under which e.g. the F4 weight (0,0,0,1) moves through
(0,0,1,-1), (0,1,-1,0), (1,-1,1,0), (1,0,-1,1), (1,0,0,-1) under
s4,s3,s2,s3,s4.

Exactness: everything here is an integer, and no rational number is formed.
The root lengths enter as integral halves ``e_i`` (the shortest simple root
has e = 1), the pairing matrix and the coroot vectors are integers, each
quotient that defines a coroot coordinate is asserted exact, and the Gram
matrix of the invariant form on weights is summed from the coroots.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import mul
from typing import NamedTuple, Optional, Sequence, Tuple

Weight = Tuple[int, ...]
Root = Tuple[int, ...]

_FAMILIES = ("A", "B", "C", "D", "E", "F", "G")


class RootDataError(ValueError):
    """Invalid family/rank combination or malformed weight input."""


def validated_make(cls, fields):
    """``_make`` of a record that validates in ``__new__``.

    ``NamedTuple._make`` calls ``tuple.__new__``, and ``_replace`` calls
    ``_make``, so both would skip the checks; this builds through ``cls``.
    """
    return cls(*fields)


class _RootSystem(NamedTuple):
    family: str
    rank: int


class RootSystem(_RootSystem):
    """A simple root system ``family`` of the given ``rank`` (Bourbaki labels)."""

    __slots__ = ()
    _make = classmethod(validated_make)

    def __new__(cls, family: str, rank: int):
        if family not in _FAMILIES:
            raise RootDataError(f"unknown family {family!r}")
        ok = {
            "A": rank >= 1,
            "B": rank >= 2,
            "C": rank >= 2,
            "D": rank >= 3,
            "E": rank in (6, 7, 8),
            "F": rank == 4,
            "G": rank == 2,
        }[family]
        if not ok:
            raise RootDataError(f"rank {rank} not admissible for family {family}")
        return super().__new__(cls, family, rank)

    def __str__(self):
        return f"{self.family}{self.rank}"

    # -- diagram data ------------------------------------------------------

    def edges(self) -> Tuple[Tuple[int, int], ...]:
        """Unordered adjacency of the Dynkin diagram, 1-based node labels."""
        r = self.rank
        if self.family in ("A", "B", "C"):
            return tuple((i, i + 1) for i in range(1, r))
        if self.family == "D":
            return tuple((i, i + 1) for i in range(1, r - 1)) + ((r - 2, r),)
        if self.family == "E":
            chain = [(1, 3)] + [(i, i + 1) for i in range(3, r)]
            return tuple(chain) + ((2, 4),)
        if self.family == "F":
            return ((1, 2), (2, 3), (3, 4))
        return ((1, 2),)  # G2


@lru_cache(maxsize=None)
def _integral_length_halves(rs: RootSystem) -> Tuple[int, ...]:
    """e_i = (alpha_i, alpha_i)/2 in units of the shortest simple root.

    G2 gives (1, 3); B, C and F give 1 and 2; simply laced types all 1.  The
    integral form sum_ij x_i y_j e_i A[i][j] on simple-root coordinates is then
    a positive multiple of the invariant form.
    """
    r = rs.rank
    return {
        "B": (2,) * (r - 1) + (1,),
        "C": (1,) * (r - 1) + (2,),
        "F": (2, 2, 1, 1),
        "G": (1, 3),
    }.get(rs.family, (1,) * r)


@lru_cache(maxsize=None)
def cartan_matrix(rs: RootSystem) -> Tuple[Tuple[int, ...], ...]:
    """A[i][j] = <alpha_{j+1}, alpha_{i+1}^v>, so alpha_j is column j in the w-basis."""
    r = rs.rank
    e = _integral_length_halves(rs)
    A = [[0] * r for _ in range(r)]
    for i in range(r):
        A[i][i] = 2
    for a, b in rs.edges():
        i, j = a - 1, b - 1
        # on the scale of e, (alpha_i, alpha_j) = -max(e_i, e_j) for every bonded
        # pair in finite type, and <alpha_i, alpha_j^v> = (alpha_i, alpha_j)/e_j
        prod = -max(e[i], e[j])
        A[j][i] = prod // e[j]  # <alpha_i, alpha_j^v>
        A[i][j] = prod // e[i]  # <alpha_j, alpha_i^v>
    return tuple(tuple(row) for row in A)


@lru_cache(maxsize=None)
def diagram_automorphisms(rs: RootSystem) -> Tuple[Tuple[int, ...], ...]:
    """The node permutations s (s[i] the image of node i) with A[s(i)][s(j)] = A[i][j].

    Identity first.  Each edge of ``edges`` joins a placed node p to a new
    node v, which goes to a free neighbour of s(p) with the same two entries.
    """
    A, r = cartan_matrix(rs), rs.rank
    nbrs = [[j for j in range(r) if j != i and A[i][j]] for i in range(r)]
    maps = [{0: t} for t in range(r)]  # maps[0] grows the identity
    for a, b in rs.edges():
        p, v = (a - 1, b - 1) if a - 1 in maps[0] else (b - 1, a - 1)
        maps = [{**s, v: t} for s in maps for t in nbrs[s[p]]
                if A[t][s[p]] == A[v][p] and A[s[p]][t] == A[p][v] and t not in s.values()]
    return tuple(sorted(tuple(s[i] for i in range(r)) for s in maps))


def permute_weight(s: Sequence[int], w: Weight) -> Weight:
    """The image of ``w`` under the diagram automorphism s, which maps w_{i+1} to w_{s[i]+1}."""
    return tuple(w[s.index(j)] for j in range(len(w)))


@lru_cache(maxsize=None)
def simple_root_weight(rs: RootSystem, i: int) -> Weight:
    """alpha_i (1-based) expressed in the fundamental-weight basis."""
    A = cartan_matrix(rs)
    return tuple(A[m][i - 1] for m in range(rs.rank))


def rho(rs: RootSystem) -> Weight:
    """Half sum of positive roots = sum of fundamental weights = (1,...,1)."""
    return (1,) * rs.rank


def add(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def sub(a: Weight, b: Weight) -> Weight:
    return tuple(x - y for x, y in zip(a, b))


def reflect(rs: RootSystem, w: Weight, i: int) -> Weight:
    """Simple reflection s_i acting on a weight (w-basis), i 1-based."""
    c = w[i - 1]
    if c == 0:
        return w
    alpha = simple_root_weight(rs, i)
    return tuple(x - c * y for x, y in zip(w, alpha))


@lru_cache(maxsize=None)
def positive_roots(rs: RootSystem) -> Tuple[Root, ...]:
    """All positive roots in the simple-root basis.

    Generated by the closure algorithm over root strings, returned in a
    deterministic order: graded lexicographic by height, then coordinates.
    Each root carries its pairings <beta, alpha_i^v>, so beta + alpha_j gets
    its own by adding column j of the Cartan matrix.
    """
    r = rs.rank
    A = cartan_matrix(rs)
    columns = list(zip(*A))
    pairings = {tuple(1 if m == i else 0 for m in range(r)): columns[i] for i in range(r)}
    layer = list(pairings)
    while layer:
        nxt = []
        for beta in layer:
            pb = pairings[beta]
            for i in range(r):
                # depth of the alpha_i string below beta
                p, down = 0, beta[i] - 1
                while down >= 0 and beta[:i] + (down,) + beta[i + 1:] in pairings:
                    p, down = p + 1, down - 1
                if p > pb[i]:
                    up = beta[:i] + (beta[i] + 1,) + beta[i + 1:]
                    if up not in pairings:
                        pairings[up] = add(pb, columns[i])
                        nxt.append(up)
        layer = nxt
    return tuple(sorted(pairings, key=lambda v: (sum(v), v)))


def root_to_weight(rs: RootSystem, beta: Root) -> Weight:
    """Convert simple-root coordinates to fundamental-weight coordinates."""
    A = cartan_matrix(rs)
    r = rs.rank
    return tuple(sum(A[i][j] * beta[j] for j in range(r)) for i in range(r))


@lru_cache(maxsize=None)
def coroot_vector(rs: RootSystem, beta: Root) -> Tuple[int, ...]:
    """Integer vector k with <w, beta^v> = sum_i k_i w_i for weights w.

    k_i = 2 beta_i e_i / (beta, beta), both read on the scale of the integral
    halves e: (beta, beta) = sum_ij beta_i beta_j e_i A[i][j], and each
    quotient is asserted exact.  With all e_i equal (A, D, E), k = beta.
    """
    e = _integral_length_halves(rs)
    if len(set(e)) == 1:
        return beta
    A = cartan_matrix(rs)
    r = rs.rank
    norm = sum(beta[i] * beta[j] * e[i] * A[i][j] for i in range(r) for j in range(r))
    vec = []
    for i in range(r):
        val, rem = divmod(2 * beta[i] * e[i], norm)
        assert rem == 0, "coroot coordinates must be integral"
        vec.append(val)
    return tuple(vec)


@lru_cache(maxsize=None)
def integral_weight_gram(rs: RootSystem) -> Tuple[Tuple[int, ...], ...]:
    """G[i][j] = D (w_{i+1}, w_{j+1}) for the least D making every entry an integer.

    ``sum a_i G[i][j] b_j`` is D times the invariant form of the weights a and
    b.  Bourbaki's canonical form sum_beta <x, beta^v><y, beta^v> (Lie VI
    1.12) is W-invariant and positive definite, so on an irreducible root
    system it is a positive multiple of the invariant form.  On the
    fundamental weights it is sum_{beta > 0} k k^T with k the coroot vector of
    beta (up to a factor 2); dividing by the gcd of the entries leaves the
    least integral multiple.
    """
    r = rs.rank
    cols = list(zip(*(coroot_vector(rs, beta) for beta in positive_roots(rs))))
    G = [[sum(map(mul, cols[i], cols[j])) for j in range(r)] for i in range(r)]
    g = gcd(*(x for row in G for x in row))
    return tuple(tuple(x // g for x in row) for row in G)


class ChamberResult(NamedTuple):
    """Outcome of pushing a weight into the dominant chamber.

    ``singular`` weights lie on a wall (some Weyl image has a zero
    coordinate at a climbing index); otherwise ``dominant`` is the unique
    dominant representative and ``word`` the reduced word of simple
    reflections applied, first reflection first.
    """

    singular: bool
    dominant: Optional[Weight] = None
    word: Tuple[int, ...] = ()

    @property
    def length(self) -> int:
        return len(self.word)


def to_dominant_chamber(
    rs: RootSystem, w: Weight, indices: Optional[Sequence[int]] = None
) -> ChamberResult:
    """Climb ``w`` to the dominant chamber of the (parabolic) Weyl group.

    ``indices`` restricts the climb to the Weyl group generated by the given
    simple reflections (default: all of W).  Climbing always reflects at the
    smallest index carrying a negative coordinate, which makes the resulting
    reduced word deterministic.  A zero coordinate at any climbing index at
    any stage certifies the weight singular (wall membership is
    Weyl-invariant) and aborts early.
    """
    idx = tuple(indices) if indices is not None else tuple(range(1, rs.rank + 1))
    cur = tuple(w)
    word = []
    while True:
        neg = 0
        for i in idx:
            c = cur[i - 1]
            if c == 0:
                return ChamberResult(singular=True)
            if c < 0 and neg == 0:
                neg = i
        if neg == 0:
            return ChamberResult(singular=False, dominant=cur, word=tuple(word))
        cur = reflect(rs, cur, neg)
        word.append(neg)


def parse_root_system(text: str) -> RootSystem:
    """Parse 'E6', 'A5', ... into a RootSystem."""
    text = text.strip()
    if len(text) < 2 or text[0].upper() not in _FAMILIES:
        raise RootDataError(f"cannot parse root system {text!r}")
    try:
        rank = int(text[1:])
    except ValueError as exc:
        raise RootDataError(f"cannot parse root system {text!r}") from exc
    return RootSystem(text[0].upper(), rank)
