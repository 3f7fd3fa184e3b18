import sys
from collections import Counter
from fractions import Fraction

import pytest

from bwbforge import cache
from bwbforge import classify as cl
from bwbforge import hodge
from bwbforge import repcalc as rc
from bwbforge.bwbcohom import bundle_cohomology
from bwbforge.homspace import dex, dimension, fano_index, parse_homspace

import enumeration_oracle as oracle
from char_helpers import tensor_decompose


def w(rank, **kw):
    v = [0] * rank
    for key, val in kw.items():
        v[int(key[1:]) - 1] = val
    return tuple(v)


def test_exceptional_space_list():
    spaces = cl.exceptional_spaces()
    assert len(spaces) == 25
    names = [str(X) for X in spaces]
    assert "E6/P5" not in names and "E6/P6" not in names
    assert "E8/P8" in names and "G2/P2" in names


def test_admissible_summands_e6p2():
    X = parse_homspace("E6/P2")
    got = cl.admissible_summands(X, 17, 11)
    nonlines = {(lam, rk, dx) for lam, rk, dx in got if rk > 1}
    # the table rows that survive the caps are w1 and w6 (the rank-15
    # bundles carry dex 15 > 11); their O(1)-twists shift dex by the rank
    assert nonlines == {
        (w(6, i1=1), 6, 3),
        (w(6, i6=1), 6, 3),
        (w(6, i1=1, i2=1), 6, 9),
        (w(6, i2=1, i6=1), 6, 9),
    }
    lines = {(lam, rk, dx) for lam, rk, dx in got if rk == 1}
    assert lines == {(w(6, i2=t), 1, t) for t in range(1, 12)}
    # with the dex cap lifted, the rank-15 bundles appear with dex 15
    wide = cl.admissible_summands(X, 17, 15)
    assert (w(6, i3=1), 15, 15) in wide and (w(6, i5=1), 15, 15) in wide


def test_admissible_summands_e6p3():
    X = parse_homspace("E6/P3")
    got = cl.admissible_summands(X, 21, 9)
    nonlines = {(lam, rk, dx) for lam, rk, dx in got if rk > 1 and lam[2] == 0}
    # the six table rows plus E_{w1+w6}: dex = 1*5 + 2*2 = 9 by the tensor
    # identity, within both caps (it exhausts the dex budget at rank 10, so
    # it can never complete a candidate)
    assert nonlines == {
        (w(6, i1=1), 2, 1),
        (w(6, i1=2), 3, 3),
        (w(6, i1=3), 4, 6),
        (w(6, i2=1), 5, 3),
        (w(6, i5=1), 10, 8),
        (w(6, i6=1), 5, 2),
        (w(6, i1=1, i6=1), 10, 9),
    }


def test_admissible_summands_zero_cap():
    X = parse_homspace("E6/P2")
    assert cl.admissible_summands(X, 0, 5) == []


def test_enumerate_ratio_rejection_e6p4():
    search = cl.enumerate_candidates(parse_homspace("E6/P4"), 4)
    assert search.ratio_pruned and search.candidates == []
    # 7/25 < 1/3: the bound in the note is the Fano-index ratio
    assert "7/25" in search.note


def test_enumerate_g2p1_line_only():
    search = cl.enumerate_candidates(parse_homspace("G2/P1"), 4)
    assert [c.weights for c in search.candidates] == [(((5, 0), 1),)]


def test_enumerate_e6p3_two_families():
    search = cl.enumerate_candidates(parse_homspace("E6/P3"), 4)
    got = {c.weights for c in search.candidates}
    assert got == {
        tuple(sorted(((w(6, i1=1), 3), (w(6, i6=1), 3)))),
        tuple(sorted(((w(6, i3=1), 1), (w(6, i6=1), 4)))),
    }


def test_no_rank_budget_is_empty():
    search = cl.enumerate_candidates(parse_homspace("G2/P1"), 5)
    assert search.candidates == [] and "budget" in search.note


# (pool size, ratio-pruned) per exceptional space, as found by the rational
# Weyl dimensions and weight sums this search ran on before it went integral
POOLS = {
    "E6/P1": (13, False), "E6/P2": (15, False), "E6/P3": (24, False), "E6/P4": (31, True),
    "E7/P1": (18, False), "E7/P2": (18, True), "E7/P3": (29, True), "E7/P4": (34, True),
    "E7/P5": (27, True), "E7/P6": (29, True), "E7/P7": (18, True),
    "E8/P1": (25, True), "E8/P2": (21, True), "E8/P3": (33, True), "E8/P4": (38, True),
    "E8/P5": (25, True), "E8/P6": (32, True), "E8/P7": (43, True), "E8/P8": (29, True),
    "F4/P1": (9, False), "F4/P2": (15, True), "F4/P3": (19, True), "F4/P4": (12, True),
    "G2/P1": (7, False), "G2/P2": (5, False),
}
POOLS_D4 = {**POOLS, "F4/P4": (12, False), "G2/P1": (5, False), "G2/P2": (3, False)}


@pytest.mark.parametrize("d, pools", [(3, POOLS), (4, POOLS_D4)])
def test_search_visits_the_same_pool(d, pools):
    got = {}
    for X in cl.exceptional_spaces():
        pool = cl.admissible_summands(X, dimension(X) - d, fano_index(X))
        got[str(X)] = (len(pool), cl.enumerate_candidates(X, d).ratio_pruned)
    assert got == pools


def test_candidate_search_builds_no_fraction(monkeypatch):
    E7P1, E8P4 = parse_homspace("E7/P1"), parse_homspace("E8/P4")
    for X in (E7P1, E8P4):  # root data warm, memo tables then emptied
        cl.enumerate_candidates(X, 3)
        oracle.enumerate_candidates(X, 3, use_ratio=False)
    cache.clear()
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    # a full search: the slope bounds do not cut E7/P1 at d = 3 at the root
    frank, iota = dimension(E7P1) - 3, fano_index(E7P1)
    rk_min, dx_min, rk_max, dx_max = cl._slope_bounds(cl.admissible_summands(E7P1, frank, iota))[0]
    assert dx_min * frank <= iota * rk_min and iota * rk_max <= dx_max * frank
    search = cl.enumerate_candidates(E7P1, 3)
    assert made == [] and search.candidates == [] and not search.ratio_pruned
    # the unpruned search on E8/P4 reads weyl_dim and dex, also in integers
    search = oracle.enumerate_candidates(E8P4, 3, use_ratio=False)
    assert made == [] and search.candidates == []
    # the root slope test compares dex * (dim - d) with iota * rank in integers
    cache.clear()
    assert cl.enumerate_candidates(E8P4, 3).ratio_pruned
    assert made == []


ORACLE_SPACES = cl.search_spaces("all", 6)  # the 25 exceptional spaces first


@pytest.mark.parametrize("d", [3, 4])
def test_search_equals_the_unbounded_oracle(d):
    # candidates and exclusions in order, ratio_pruned and the note
    for X in ORACLE_SPACES:
        assert cl.enumerate_candidates(X, d) == oracle.enumerate_candidates(X, d), str(X)


@pytest.mark.parametrize("d", [3, 4])
def test_pool_ranks_and_dex_equal_weyl_dim_and_dex(d):
    for X in ORACLE_SPACES:
        caps = (dimension(X) - d, fano_index(X))
        pool = cl.admissible_summands(X, *caps)
        assert pool == oracle.admissible_summands(X, *caps), str(X)
        for lam, rk, dx in pool:
            assert (rk, dx) == (rc.weyl_dim(X.levi, lam), dex(X, lam)), (str(X), lam)


def test_pool_where_the_dex_cap_binds_first():
    # small dex caps under rank caps up to 40: the recursion stops on dex
    # before rank, and the rank-only oracle still finds nothing more
    cases = cut = 0
    for X in ORACLE_SPACES:
        for rank_cap in (1, 6, 17, 40):
            wide = oracle.admissible_summands(X, rank_cap, 40)
            for dex_cap in (1, 2, 3):
                pool = cl.admissible_summands(X, rank_cap, dex_cap)
                assert pool == oracle.admissible_summands(X, rank_cap, dex_cap), (str(X), rank_cap)
                # an untwisted Levi point within the rank cap but over the dex cap
                cut += any(lam[X.k - 1] == 0 and dx > dex_cap for lam, _, dx in wide)
                cases += 1
    assert cut > cases // 2


def test_search_runs_without_weyl_dim_dex_or_weight_sums(monkeypatch):
    # rank and dex come from the Weyl kernel and the invariant form in closed
    # form: no memoised weyl_dim, dex or sum_of_weights per lattice point
    spaces = [parse_homspace(n) for n in ("E6/P2", "E6/P3", "E7/P1", "F4/P4", "G2/P1")]
    spaces += cl.search_spaces("all", 4)[25:]

    def search():
        out = []
        for X in spaces:
            for d in (3, 4):
                pool = cl.admissible_summands(X, dimension(X) - d, fano_index(X))
                out.append((pool, cl.enumerate_candidates(X, d)))
        return out

    want = search()

    def refuse(*args, **kwargs):
        raise AssertionError("memoised rank or dex read by the candidate search")

    for name, module in list(sys.modules.items()):
        if name.startswith("bwbforge"):
            for attr in ("weyl_dim", "dex", "sum_of_weights"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    cache.clear()
    assert search() == want


GOLDEN_D4 = {
    ("E6/P1", ((w(6, i1=1), 12),)),
    ("E6/P2", ((w(6, i1=1), 2), (w(6, i2=1), 5))),
    ("E6/P2", ((w(6, i1=1), 1), (w(6, i2=1), 5), (w(6, i6=1), 1))),
    ("E6/P2", ((w(6, i2=1), 5), (w(6, i6=1), 2))),
    ("E6/P3", ((w(6, i1=1), 3), (w(6, i6=1), 3))),
    ("E6/P3", ((w(6, i3=1), 1), (w(6, i6=1), 4))),
    ("E7/P1", ((w(7, i1=1), 5), (w(7, i7=1), 2))),
    ("F4/P1", ((w(4, i1=1), 5), (w(4, i4=1), 1))),
    ("F4/P4", ((w(4, i4=1), 11),)),
    ("F4/P4", ((w(4, i1=1), 1), (w(4, i4=1), 4))),
    ("G2/P1", (((5, 0), 1),)),
    ("G2/P2", (((0, 3), 1),)),
}

GOLDEN_D3 = {
    ("E6/P3", ((w(6, i1=1), 1), (w(6, i6=1), 4))),
    ("G2/P1", (((1, 0), 1), ((4, 0), 1))),
    ("G2/P1", (((2, 0), 1), ((3, 0), 1))),
    ("G2/P1", (((1, 1), 1),)),
    ("G2/P2", (((0, 1), 1), ((0, 2), 1))),
    ("G2/P2", (((1, 1), 1),)),
}


def test_classification_d4_pairs():
    rep = cl.classify(cl.exceptional_spaces(), 4, with_hodge=False)
    got = {(r.space, tuple(sorted(r.weights))) for r in rep.rows}
    assert got == {(s, tuple(sorted(ws))) for s, ws in GOLDEN_D4}
    assert len(rep.rows) == 12


def test_classification_d3_pairs():
    rep = cl.classify(cl.exceptional_spaces(), 3, with_hodge=False)
    got = {(r.space, tuple(sorted(r.weights))) for r in rep.rows}
    assert got == {(s, tuple(sorted(ws))) for s, ws in GOLDEN_D3}
    assert len(rep.rows) == 6


def test_every_candidate_satisfies_the_budget():
    from bwbforge.homspace import dimension, fano_index

    for d in (3, 4):
        rep = cl.classify(cl.exceptional_spaces(), d, with_hodge=False)
        for row in rep.rows:
            Z = cl.CandidatePair(parse_homspace(row.space), row.weights, d).zero_locus()
            assert Z.bundle.rank == dimension(Z.space) - d
            assert Z.bundle.dex == fano_index(Z.space)


def test_ratio_prune_soundness_on_f4_and_g2():
    for name in ("F4/P1", "F4/P2", "F4/P3", "F4/P4", "G2/P1", "G2/P2"):
        X = parse_homspace(name)
        for d in (3, 4):
            fast = cl.enumerate_candidates(X, d)
            slow = oracle.enumerate_candidates(X, d, use_ratio=False)
            assert {c.weights for c in fast.candidates} == {
                c.weights for c in slow.candidates
            }, (name, d)


def test_diagram_automorphism_orbits():
    rep = cl.classify(cl.exceptional_spaces(), 4, with_hodge=False)
    e6p2 = [r for r in rep.rows if r.space == "E6/P2"]
    assert len(e6p2) == 3
    # one tag for the paper's rows 2, 2', 2'' (two true orbits: the
    # automorphism fixes w6 + w1 and swaps w1^2 with w6^2)
    assert len({r.orbit_tag for r in e6p2}) == 1
    e6p3 = [r for r in rep.rows if r.space == "E6/P3"]
    assert len({r.orbit_tag for r in e6p3}) == 2
    # 12 rows fold into 10 tags, the paper's numbering (only the E6/P2 triple merges)
    assert len(rep.dedup_rows()) == 10


def test_e6p2_w1_and_w6_bundles_are_not_isomorphic():
    # why the E6/P2 tag follows the paper's numbering rather than the orbits
    X = parse_homspace("E6/P2")
    w1, w6 = w(6, i1=1), w(6, i6=1)

    def h0_hom(a, b):
        hom = tensor_decompose(X.levi, {rc.dual_highest_weight(X.levi, a): 1}, {b: 1})
        return bundle_cohomology(X, hom).dims().get(0, 0)

    assert h0_hom(w1, w6) == 0
    assert h0_hom(w1, w1) == 1


def test_classical_h0_rows_to_rank_6():
    # the classical running products, which the exceptional tables barely
    # reach: every A-D candidate at d = 4 up to rank 6 has an exact h^{0,q}
    # row, computed with the memo cleared per space as a sweep does
    types, hk = Counter(), []
    for X in cl.search_spaces("all", 6):
        if X.rs.family not in "ABCD":
            continue
        cache.clear()
        for c in cl.enumerate_candidates(X, 4).candidates:
            row = hodge.h0_row(c.zero_locus())
            assert row.status == "exact", (str(X), str(c.bundle()))
            types[tuple(row.values)] += 1
            if hodge.is_hyperkaehler(row.values):
                hk.append(f"{X} {c.bundle()}")
    cache.clear()
    assert types == {(1, 0, 0, 0, 1): 442, (0, 0, 0, 0, 0): 18, (2, 0, 0, 0, 2): 13,
                     (1, 4, 6, 4, 1): 3, (1, 0, 1, 0, 1): 4}
    assert hk == ["A5/P2 w111", "A5/P4 w555", "A6/P2 w1 + w111", "A6/P5 w6 + w666"]


def test_exception_list_documents_extra_families():
    # the oracle search can skip the exception list: per space, the engine's
    # candidates and exclusions together are the oracle's bare candidates
    excluded = []
    for X in cl.exceptional_spaces():
        search = cl.enumerate_candidates(X, 4)
        bare = oracle.enumerate_candidates(X, 4, use_exceptions=False)
        assert not bare.excluded
        assert sorted(
            [c.weights for c in search.candidates] + [e.weights for e in search.excluded]
        ) == sorted(c.weights for c in bare.candidates), str(X)
        excluded += search.excluded
    # every extra family lives on the Cayley plane and contains the
    # rank-10 spinor-type summand
    assert excluded
    assert all(e.space == "E6/P1" for e in excluded)
    assert all(any(lam == w(6, i6=1) for lam, _ in e.weights) for e in excluded)
    # the exclusions carry their reason and reach the report unchanged
    assert len(excluded) == 3
    assert all("vanishes nowhere" in e.reason for e in excluded)
    assert cl.classify(cl.exceptional_spaces(), 4, with_hodge=False).excluded == excluded


def test_hodge_attachment_d4(report_d4):
    rows = {(r.space, r.weights): r.hodge for r in report_d4.rows}
    assert all(h["h02"] == 0 and h["h11"] == 1 for h in rows.values())
    assert rows[("G2/P2", (((0, 3), 1),))]["h13"] == 258
    # automorphism partners carry identical Hodge data
    e6p2 = [r for r in report_d4.rows if r.space == "E6/P2"]
    assert len({tuple(sorted(r.hodge.items())) for r in e6p2}) == 1


def test_hodge_attachment_d3(report_d3):
    for r in report_d3.rows:
        assert r.hodge["h11"] == 1
        assert r.hodge["chi"] == 2 * (r.hodge["h11"] - r.hodge["h12"])
