import ast
import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from bwbforge import cache as _cache
from bwbforge import koszul
from bwbforge.bwbcohom import bundle_cohomology, bwb
from bwbforge.classify import classify
from bwbforge.cli import ParseError, main, parse_bundle, parse_weight
from bwbforge.homspace import HomSpace, parse_homspace
from bwbforge.rootdata import RootSystem

import enumeration_oracle as oracle


def run_cli(*args, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "bwbforge.cli", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expect, proc.stderr
    return proc.stdout


def w(rank, **kw):
    v = [0] * rank
    for key, val in kw.items():
        v[int(key[1:]) - 1] = val
    return tuple(v)


# -- bundle grammar -------------------------------------------------------------


def test_parse_line_bundles():
    X = parse_homspace("E6/P1")
    B = parse_bundle(X, "O(1)^12")
    assert B.as_dict() == {w(6, i1=1): 12}


def test_parse_mixed_bundle():
    X = parse_homspace("E6/P2")
    B = parse_bundle(X, "w1^2 + O(1)^5")
    assert B.as_dict() == {w(6, i1=1): 2, w(6, i2=1): 5}


def test_parse_twists_and_brackets():
    X = parse_homspace("G2/P1")
    assert parse_bundle(X, "w2(1)").as_dict() == {(1, 1): 1}
    assert parse_bundle(X, "[3,1]^2").as_dict() == {(3, 1): 2}
    assert parse_weight(X, "O(-6)") == (-6, 0)
    X3 = parse_homspace("E6/P3")
    assert parse_bundle(X3, "w6^4 + O(1)").as_dict() == {
        w(6, i6=1): 4, w(6, i3=1): 1
    }
    # repeated digits add fundamental weights: w23 = w2 + w3 on E6/P4
    X4 = parse_homspace("E6/P4")
    assert parse_weight(X4, "w23") == w(6, i2=1, i3=1)


def test_parse_rejects_garbage():
    X = parse_homspace("G2/P1")
    with pytest.raises(ParseError):
        parse_bundle(X, "")
    with pytest.raises(ParseError):
        parse_bundle(X, "O(1) + ?")
    with pytest.raises(ParseError):
        parse_bundle(X, "[1,2,3]")  # wrong arity
    with pytest.raises(ParseError):
        parse_bundle(X, "[1,0]x")  # trailing junk
    with pytest.raises(ParseError):
        parse_bundle(X, "[1,-1]")  # not P-dominant (negative Levi coordinate)


def test_bundle_round_trip():
    cases = [
        ("E6/P1", "O(1)^12"),
        ("E6/P2", "w1^2 + O(1)^5"),
        ("E6/P3", "w6^4 + O(1)"),
        ("G2/P1", "w2(1)"),
        ("F4/P4", "w1 + O(1)^4"),
        ("A5/P2", "[3,0,0,0,0]"),
    ]
    for space, expr in cases:
        X = parse_homspace(space)
        B = parse_bundle(X, expr)
        assert parse_bundle(X, str(B)).as_dict() == B.as_dict()


def test_bundle_round_trip_past_node_nine():
    # ``w<indices>`` reads one digit per node: w11 would read back as 2 w1
    X = parse_homspace("A11/P1")
    B = koszul.BundleSum.make(X, {w(11, i11=1): 1})
    assert str(B) == "[0,0,0,0,0,0,0,0,0,0,1]"
    assert parse_bundle(X, str(B)) == B
    rng = random.Random(20261018)
    for space in ("A10", "A11", "A12", "B10", "C10", "D10"):
        r = int(space[1:])
        for k in range(1, r + 1):
            X = parse_homspace(f"{space}/P{k}")
            weights = {}
            for _ in range(rng.randint(1, 4)):
                lam = [rng.choice((0, 0, 0, 1, 2)) for _ in range(r)]
                lam[k - 1] = rng.randint(-3, 3)
                weights[tuple(lam)] = rng.randint(1, 3)
            B = koszul.BundleSum.make(X, weights)
            assert parse_bundle(X, str(B)) == B, str(B)


@pytest.mark.parametrize(
    "space,term", [("A11/P1", "w11"), ("A10/P2", "w10"), ("A11/P3", "w111"), ("D11/P2", "w1110")]
)
def test_w_terms_that_read_two_ways_are_refused(space, term, capsys):
    # w11 on A11 could be 2 w1 or w11: refuse, and point to the bracket form
    X = parse_homspace(space)
    with pytest.raises(ParseError, match=r"\[c1,\.\.\.,c1[01]\]"):
        parse_bundle(X, term)
    assert main(["dex", space, term]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "ambiguous" in err


def test_w_digits_that_name_no_node_still_read_one_per_node():
    # 12 is no node of A11 and 19 none of A10; below rank 10 nothing changes
    assert parse_weight(parse_homspace("A11/P1"), "w12") == w(11, i1=1, i2=1)
    assert parse_weight(parse_homspace("A10/P2"), "w19") == w(10, i1=1, i9=1)
    assert parse_weight(parse_homspace("A9/P2"), "w11") == w(9, i1=2)
    X = parse_homspace("A11/P2")
    B = koszul.BundleSum.make(X, {w(11, i1=2): 1, w(11, i1=1, i2=1): 1})
    assert str(B) == "w1(1) + [2,0,0,0,0,0,0,0,0,0,0]"
    assert parse_bundle(X, str(B)) == B


def test_classify_rows_round_trip_at_rank_ten_and_eleven():
    spaces = [
        HomSpace(RootSystem(fam, r), k)
        for fam in "ABCD"
        for r in (10, 11)
        for k in range(1, r + 1)
    ]
    rows = classify(spaces, 4, with_hodge=False).rows
    assert rows
    for row in rows:
        X = parse_homspace(row.space)
        assert parse_bundle(X, row.bundle) == koszul.BundleSum.make(X, dict(row.weights))


# -- commands -------------------------------------------------------------------


def test_dim_command_format():
    assert run_cli("dim", "E7/P1") == "dim=33 index=17 embed=P^132\n"


def test_roots_command():
    out = run_cli("roots", "G2")
    assert "G2 root: (3,2)" in out and "count=6" in out


def test_dex_command():
    assert run_cli("dex", "F4/P4", "w3") == "rank=8 dex=12\n"


def test_bwb_command_and_json_schema():
    out = run_cli("--format", "json", "bwb", "G2/P2", "O(-6)")
    payload = json.loads(out)
    assert set(payload) == {"space", "bundle", "results", "status", "citations"}
    assert payload["status"] == "exact"
    assert payload["results"]["rows"] == [
        {"degree": 5, "weight": "[0,3]", "multiplicity": 1, "dim": 273}
    ]
    out = run_cli("bwb", "A5/P2", "[3,-6,0,0,0]")
    assert "vanishes" in out


def test_ext_command():
    out = run_cli("--format", "json", "ext", "F4/P4", "w1 + O(1)^4", "2")
    rows = json.loads(out)["results"]["rows"]
    assert {(r["weight"], r["multiplicity"]) for r in rows} == {
        ("[0,1,0,-4]", 1), ("[1,0,0,-3]", 4), ("[0,0,0,-2]", 6)
    }


def test_cohomology_restrict_command():
    out = run_cli(
        "--format", "json", "cohomology", "G2/P2", "O(3)", "--restrict", "O(-3)"
    )
    payload = json.loads(out)
    assert payload["results"]["dims"] == [0, 0, 0, 0, 272]


def test_twists_past_the_packed_field_still_answer(capsys):
    # a page keeps its twist out of the 16-bit fields: the wedge powers of
    # large lines print, and their E1 sums with O(20000) fit the field again
    for argv, want in [
        (["ext", "G2/P2", "O(20000) + O(20001)", "0"], "L^0 F* = E[0,0]^1"),
        (["ext", "G2/P2", "O(20000) + O(20001)", "1"], "L^1 F* = E[0,-20001]^1 + E[0,-20000]^1"),
        (["ext", "G2/P2", "O(20000) + O(20001)", "2"], "L^2 F* = E[0,-40001]^1"),
        (["ext", "G2/P2", "O(20000)^4", "2"], "L^2 F* = E[0,-40000]^6"),
    ]:
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == want
    argv = ["--format", "json", "cohomology", "G2/P2", "O(20000) + O(20001)", "--restrict", "O(20000)"]
    assert main(argv) == 0
    dims = json.loads(capsys.readouterr().out)["results"]["dims"]
    assert dims == [480180026668616737000, 0, 0, 479940002666616667000]


def test_a_wedge_page_wider_than_the_field_is_refused(capsys):
    # Lambda^1 F^* holds O(-1) and O(-70000): no page twist brings both into a
    # 16-bit field, so ext refuses, as every E1 page of this locus does
    assert main(["ext", "G2/P2", "O(1) + O(70000)", "1"]) == 1
    assert "do not fit 16-bit packed coordinates" in capsys.readouterr().err


def test_hodge_command_json():
    out = run_cli("--format", "json", "hodge", "G2/P2", "O(3)", "--d", "4")
    res = json.loads(out)["results"]
    assert res["h13"] == 258 and res["h22"] == 1080 and res["chi"] == 1602
    assert res["hyperkaehler"] is False


def test_hodge_beauville_donagi():
    # h^{0,q} is exact and certifies the hyperkaehler verdict; the h^{1,q}
    # chase is honestly ambiguous here, so the full diamond needs
    # --allow-bounds and signals partial results through exit code 2
    out = run_cli("--allow-bounds", "--format", "json", "hodge", "A5/P2",
                  "[3,0,0,0,0]", "--d", "4", expect=2)
    res = json.loads(out)["results"]
    assert res["h02"] == 1 and res["hyperkaehler"] is True
    assert res["chi"] is None


def test_hodge_names_the_bundle_that_blocks_h22():
    # Table 1 row F4/P4, E_w1 + O(1)^4: the Euler characteristic certifies
    # h22 although F^* (x) Omega|_Z is only bounded
    args = ["hodge", "F4/P4", "w1 + O(1)^4", "--d", "4"]
    res = json.loads(run_cli("--format", "json", *args))["results"]
    assert res["h22"] == 396 and res["chi"] == 576 and res["h13"] == 87
    assert "blocked" not in res
    lines = run_cli(*args).splitlines()
    assert lines[-2:] == ["hyperkaehler=False", "chi=576"]
    # only inexact rows 0 and 1 block it: the Beauville-Donagi fourfold
    out = run_cli("--allow-bounds", "--format", "json", "hodge", "A5/P2",
                  "[3,0,0,0,0]", "--d", "4", expect=2)
    blocked = json.loads(out)["results"]["blocked"]
    assert blocked == {"h22": "h22 needs exact h^{0,q} and h^{1,q} rows"}


def test_exact_hodge_output_has_no_blocked_entry():
    res = json.loads(run_cli("--format", "json", "hodge", "G2/P2", "O(3)", "--d", "4"))
    assert "blocked" not in res["results"]


def test_verbose_changes_only_stderr():
    args = ["--format", "json", "cohomology", "G2/P2", "O(3)", "--restrict", "O(-3)"]
    quiet = subprocess.run([sys.executable, "-m", "bwbforge.cli", *args],
                           capture_output=True, text=True)
    loud = subprocess.run([sys.executable, "-m", "bwbforge.cli", "-v", *args],
                          capture_output=True, text=True)
    assert quiet.returncode == loud.returncode == 0
    assert quiet.stdout == loud.stdout and quiet.stderr == ""
    # one line naming the in-memory entries of each memo namespace
    assert "climb " in loud.stderr and "bwb " in loud.stderr and "wedge_decomps " in loud.stderr


def test_hodge_dimension_mismatch_is_an_error():
    proc = subprocess.run(
        [sys.executable, "-m", "bwbforge.cli", "hodge", "G2/P2", "O(3)", "--d", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1 and "not 3" in proc.stderr


def test_ambiguous_exit_codes():
    args = ["cohomology", "A2/P1", "O(1)", "--restrict", "[-2,2]"]
    proc = subprocess.run(
        [sys.executable, "-m", "bwbforge.cli", *args], capture_output=True, text=True
    )
    assert proc.returncode == 1
    proc = subprocess.run(
        [sys.executable, "-m", "bwbforge.cli", "--allow-bounds", "--format", "json", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    payload = json.loads(proc.stdout)
    assert payload["status"] == "ambiguous"
    assert payload["results"]["bounds"] == {"0": [0, 3], "1": [0, 3]}


def test_classify_d3_command():
    out = run_cli("--format", "json", "classify", "--d", "3")
    payload = json.loads(out)
    rows = payload["results"]["rows"]
    assert len(rows) == 6
    bundles = {(r["space"], r["bundle"]) for r in rows}
    assert ("G2/P1", "O(1) + O(4)") in bundles
    assert ("G2/P2", "w1(1)") in bundles
    assert all(r["h11"] == 1 for r in rows)
    chis = sorted(r["chi"] for r in rows)
    assert chis == [-176, -144, -120, -98, -98, -60]


def test_classify_excludes_four_e6p1_candidates_at_d3():
    # the four E6/P1 numeric extras at d = 3 are excluded, not rows: each is
    # a candidate of the oracle search run without the exception list
    out = run_cli("--format", "json", "classify", "--d", "3", "--no-hodge")
    results = json.loads(out)["results"]
    assert len(results["rows"]) == 6
    excluded = results["excluded"]
    assert len(excluded) == 4 and all(e["space"] == "E6/P1" for e in excluded)
    bare = oracle.enumerate_candidates(parse_homspace("E6/P1"), 3, use_exceptions=False)
    weights = [ast.literal_eval(e["bundle"]) for e in excluded]
    assert set(weights) <= {c.weights for c in bare.candidates}
    assert all(any(lam == w(6, i6=1) for lam, _ in ws) for ws in weights)
    assert len(bare.candidates) == 4 + sum(r["space"] == "E6/P1" for r in results["rows"])


def test_determinism_and_cache_transparency(tmp_path):
    args = ["--format", "json", "hodge", "G2/P2", "O(3)", "--d", "4"]
    cold = run_cli("--cache", str(tmp_path), *args)
    warm = run_cli("--cache", str(tmp_path), *args)
    bare = run_cli(*args)
    assert cold == warm == bare
    out = run_cli("--cache", str(tmp_path), "--format", "json", "cache", "stats")
    stats = json.loads(out)["results"]
    assert stats["disk_entries"] > 0
    run_cli("--cache", str(tmp_path), "cache", "clear")
    out = run_cli("--cache", str(tmp_path), "--format", "json", "cache", "stats")
    assert json.loads(out)["results"]["disk_entries"] == 0


def test_csv_format():
    out = run_cli("--format", "csv", "bwb", "G2/P2", "O(-6)")
    lines = out.strip().splitlines()
    assert lines[0] == "degree,dim,multiplicity,weight"
    assert lines[1] == '5,273,1,"[0,3]"'


def test_main_entrypoint_direct():
    assert main(["dim", "G2/P1"]) == 0
    assert main(["dex", "G2/P1", "[1,-1]"]) == 1  # not P-dominant


def test_classify_d4_pairs_via_cli():
    out = run_cli("--format", "json", "classify", "--d", "4", "--no-hodge")
    payload = json.loads(out)
    got = {(r["space"], r["bundle"]) for r in payload["results"]["rows"]}
    assert got == {
        ("E6/P1", "O(1)^12"),
        ("E6/P2", "w6^2 + O(1)^5"),
        ("E6/P2", "w6 + O(1)^5 + w1"),
        ("E6/P2", "O(1)^5 + w1^2"),
        ("E6/P3", "w6^4 + O(1)"),
        ("E6/P3", "w6^3 + w1^3"),
        ("E7/P1", "w7^2 + O(1)^5"),
        ("F4/P1", "w4 + O(1)^5"),
        ("F4/P4", "O(1)^11"),
        ("F4/P4", "O(1)^4 + w1"),
        ("G2/P1", "O(5)"),
        ("G2/P2", "O(3)"),
    }
    assert payload["results"]["dedup_count"] == 10
    assert len(payload["results"]["pruned"]) == 17


def test_classify_family_all_labels_classical_rows():
    out = run_cli("--format", "json", "classify", "--d", "4", "--no-hodge",
                  "--family", "all", "--max-rank", "5")
    payload = json.loads(out)
    rows = payload["results"]["rows"]
    classical = [r for r in rows if r["space"].startswith(("A", "B", "C", "D"))]
    assert classical, "rank <= 5 classical spaces admit fourfold candidates"
    assert all("not cross-validated" in r["note"] for r in classical)
    assert all(r["note"] == "" for r in rows if r["space"][0] in "EFG")
    # the hyperkaehler fourfold pair is among the classical candidates
    assert ("A5/P2", "[3,-3,0,0,0](3)") in {
        (r["space"], r["bundle"]) for r in rows
    } or ("A5/P2", "w111") in {(r["space"], r["bundle"]) for r in rows}


def test_classify_csv_format():
    out = run_cli("--format", "csv", "classify", "--d", "3", "--no-hodge")
    lines = out.strip().splitlines()
    assert lines[0].startswith("bundle,")
    assert len(lines) == 7


@pytest.mark.parametrize("twist", ["-40000", "33000"])
def test_packed_weight_overflow_exits_1(twist):
    # a 16-bit packed coordinate would wrap into a wrong H^0; refuse instead
    out = run_cli("cohomology", "G2/P2", "O(3)", "--restrict", f"O({twist})", expect=1)
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["hodge", "G2/P1", "O(-1)", "--d", "4"],
        ["cohomology", "G2/P1", "O(-1)", "--restrict", "O(0)"],
    ],
)
def test_bundle_without_sections_exits_1(argv, capsys):
    # O(-1) has no sections, so there is no Koszul resolution to push through
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "G2-dominant" in err


# -- golden output --------------------------------------------------------------

# Exit code, sha256 of stdout and the stderr text of each argv, pinned: any
# byte that moves in any subcommand's output fails here.  ``cache stats`` and
# ``-v`` are left out, their output depends on process state and time; the
# ``cache clear`` cases run last since they empty the memo tables.
GOLDEN = [
    (['--format', 'table', 'roots', 'G2'], 0, 'adbb181abeb99c88f292bb95f3019bea2464984870b76f4efcd0a1bd764d1a99', ''),
    (['--format', 'table', 'dim', 'E7/P1'], 0, '1d9b0f4ae24beed5f345e67757f3dd460368bc16e680d2d2eddd62063bac972a', ''),
    (['--format', 'table', 'dex', 'F4/P4', 'w3'], 0, '1a9c131c9f32dd853d1dfb1d1d68adfee00ce1ad6fc9d543e1158b3032977f13', ''),
    (['--format', 'table', 'bwb', 'G2/P2', 'O(-6)'], 0, '9c2136b9811524e928a38b43b87a932092299d63a05ead2ef81edb2306db16c0', ''),
    (['--format', 'table', 'ext', 'F4/P4', 'w1 + O(1)^4', '2'], 0, 'e5e402beae4cbbbaf17d959e18fc04a9e375fb07020b9c42bbbb2377b095f954', ''),
    (['--format', 'table', 'cohomology', 'G2/P2', 'O(3)', '--restrict', 'O(-3)'], 0, 'cd74226f760d06863ccad01fcc863075f5cd78a1b0b75a3c450f8878e909cd0b', ''),
    (['--format', 'table', 'hodge', 'G2/P2', 'O(3)', '--d', '4'], 0, 'ba9b12c72480cdc4c90e59244e8849100bdb18bb8d4b1e73830c30397d3b19bb', ''),
    (['--format', 'table', 'classify', '--d', '3'], 0, '8886381bc9918cd6b21ede479b33749b7ff659f3bca33bb23523e106dfa36a91', ''),
    (['--format', 'json', 'roots', 'G2'], 0, '304875c65943a87ce9c7886c8b50849854488c7717c3e896ef79301efb756a52', ''),
    (['--format', 'json', 'dim', 'E7/P1'], 0, 'e2c2717234bd7f3c952d48e04e465d10de9e117c68f9531be02e57bb31deeebb', ''),
    (['--format', 'json', 'dex', 'F4/P4', 'w3'], 0, '17d9bc813ea1a99b063a2596550b9ff40e73f07aef12d7edeb614fd410c30c9c', ''),
    (['--format', 'json', 'bwb', 'G2/P2', 'O(-6)'], 0, 'e1a0a23d294c2e4beca459273cbd6b11bfc159093f9356c0bd8bc0149ee329df', ''),
    (['--format', 'json', 'ext', 'F4/P4', 'w1 + O(1)^4', '2'], 0, 'dab163ef34c2147cb94558a555d38af52b8d2507363a92c8cce50bb8a21a1a77', ''),
    (['--format', 'json', 'cohomology', 'G2/P2', 'O(3)', '--restrict', 'O(-3)'], 0, '96451dca91a1859bf7e5e9a9eb110a0e277aa5548af422f3182d5157a0322ad3', ''),
    (['--format', 'json', 'hodge', 'G2/P2', 'O(3)', '--d', '4'], 0, 'b9078c9961be294a29b8b4bf5f949e6af75103852b6fc427e2c74aab294cc08f', ''),
    (['--format', 'json', 'classify', '--d', '3'], 0, 'ee7f44b5376de7432998510b5c9af6414f0fd6f23efac88153937726a37ddcd9', ''),
    (['--format', 'csv', 'roots', 'G2'], 0, '4665c201771c192c1f46753e8845c6e3c0da44f144568205ad3dd167156844c0', ''),
    (['--format', 'csv', 'dim', 'E7/P1'], 0, 'e939bca571c13f840a11597852c84ecc1d04214e1ef9834713e103acdf8b0994', ''),
    (['--format', 'csv', 'dex', 'F4/P4', 'w3'], 0, 'd585ac3e248cd84ce9349118b7f448632fcba114ff67485fee0fef1623c505dd', ''),
    (['--format', 'csv', 'bwb', 'G2/P2', 'O(-6)'], 0, 'dc22d8e13289a71a5c338e4eb9ad80bf1dc6fff313da5150b7657ad759e09a67', ''),
    (['--format', 'csv', 'ext', 'F4/P4', 'w1 + O(1)^4', '2'], 0, '33a3dbbc2800138ce0d02df228773d918903cb57a37e47813c589967b7ca7522', ''),
    (['--format', 'csv', 'cohomology', 'G2/P2', 'O(3)', '--restrict', 'O(-3)'], 0, '2ac7ab6524455422d2cf9ac33e90b4bd56f0563d764bb44d8d65a652b4d2e55e', ''),
    (['--format', 'csv', 'hodge', 'G2/P2', 'O(3)', '--d', '4'], 0, '9f5f552dae64b9b299e2d95ed99ed020608e3f65be65a8b5b1961338f51ca5e4', ''),
    (['--format', 'csv', 'classify', '--d', '3'], 0, 'f1d32ff7b42121a2cb4e682405bd2a9ea667657606c8b474536c75ea384cf589', ''),
    (['cohomology', 'E6/P2', 'w1^2 + O(1)^5'], 0, '96be0f3a24cde91ed061412ea33c81f4c458f120eb24e591b5ab172b4b2aeddb', ''),
    (['hodge', 'G2/P1', 'O(1) + O(4)', '--d', '3'], 0, '30181e682575bfc3d2a5c377d2d4778af5abfd9f4940061e427f7fde968ea259', ''),
    (['--format', 'json', 'classify', '--d', '4', '--no-hodge', '--family', 'all', '--max-rank', '4'], 0, '58f71b35fe7a4cc3ca5fa3b936640aa365d9c0a16c50946626b40cb85d1ac9ef', ''),
    (['--allow-bounds', '--format', 'json', 'hodge', 'F4/P4', 'w1 + O(1)^4', '--d', '4'], 0, '9ca7aaeea9b7c1902037253ff5ebdf349d6e03c47555e87193423f0ba626c929', ''),
    (['dex', 'G2/P1', '[1,-1]'], 1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: weight (1, -1) is not P1-dominant\n'),
    (['--format', 'table', 'cache', 'clear'], 0, '279971c9c5b47364b7664359c7294c8528d6261b3df1dea2b5e94b4759e32430', ''),
    (['--format', 'json', 'cache', 'clear'], 0, '60a726e93ae78a9ef91f945e156d8ca81c506a4b136a80f18218e7c9668fdd1e', ''),
    (['--format', 'csv', 'cache', 'clear'], 0, '7685a068da35f20a04c95c5e569fe82b6ac88200a4b3527e3e8eb13a047bf8cf', ''),
]


@pytest.mark.parametrize("argv,code,digest,err", GOLDEN,
                         ids=[" ".join(case[0]) for case in GOLDEN])
def test_golden_output(argv, code, digest, err, capsys, monkeypatch):
    monkeypatch.delenv("BWBFORGE_CACHE", raising=False)
    monkeypatch.setattr(_cache, "_dir", None)
    assert main(argv) == code
    out, got_err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert got_err == err


def test_bwb_climbs_without_the_word_climber(monkeypatch, capsys):
    # one Weyl climber in the engine: rootdata.to_dominant_chamber is only the
    # word-returning reference the tests compare repcalc.climb against
    def refuse(*args, **kwargs):
        raise AssertionError("to_dominant_chamber called from the engine")

    for name, module in list(sys.modules.items()):
        if name.startswith("bwbforge") and hasattr(module, "to_dominant_chamber"):
            monkeypatch.setattr(module, "to_dominant_chamber", refuse)
    X = parse_homspace("G2/P2")
    assert bwb(X, (0, -6)).dims() == {5: 273}
    assert bundle_cohomology(X, {(0, 0): 1, (0, -6): 1}).dims() == {0: 1, 5: 273}
    monkeypatch.delenv("BWBFORGE_CACHE", raising=False)
    monkeypatch.setattr(_cache, "_dir", None)
    argvs = (["--format", "json", "bwb", "G2/P2", "O(-6)"], ["cohomology", "E6/P2", "w1^2 + O(1)^5"])
    cases = [case for case in GOLDEN if case[0] in argvs]
    assert len(cases) == len(argvs)
    for argv, code, digest, err in cases:
        assert main(argv) == code
        out, got_err = capsys.readouterr()
        assert (hashlib.sha256(out.encode()).hexdigest(), got_err) == (digest, err)


def test_engine_never_calls_wedge_dual_chars(monkeypatch, capsys):
    # koszul.wedge_dual_chars is kept for the benchmark warm-up and as the
    # tests' per-weight oracle; the E1 page reads only Levi decompositions
    package = os.path.dirname(koszul.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                tree = ast.parse(fh.read())
            calls = [
                node.lineno
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and "wedge_dual_chars" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            ]
            assert calls == [], f"{name} calls wedge_dual_chars at lines {calls}"

    def refuse(*args, **kwargs):
        raise AssertionError("wedge_dual_chars called from the engine")

    monkeypatch.setattr(koszul, "wedge_dual_chars", refuse)
    monkeypatch.delenv("BWBFORGE_CACHE", raising=False)
    monkeypatch.setattr(_cache, "_dir", None)
    _cache.clear()
    argvs = (
        ["--format", "table", "ext", "F4/P4", "w1 + O(1)^4", "2"],
        ["cohomology", "E6/P2", "w1^2 + O(1)^5"],
        ["--format", "json", "hodge", "G2/P2", "O(3)", "--d", "4"],
        ["--allow-bounds", "--format", "json", "hodge", "F4/P4", "w1 + O(1)^4", "--d", "4"],
    )
    cases = [case for case in GOLDEN if case[0] in argvs]
    assert len(cases) == len(argvs)
    for argv, code, digest, err in cases:
        assert main(argv) == code
        out, got_err = capsys.readouterr()
        assert (hashlib.sha256(out.encode()).hexdigest(), got_err) == (digest, err)
