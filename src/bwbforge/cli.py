"""Command-line front end.

Subcommands:

* ``roots G``                      positive roots of a simple group
* ``dim G/Pk``                     dimension, Fano index, minimal embedding
* ``dex G/Pk WEIGHT``              rank and dex of an irreducible bundle
* ``bwb G/Pk WEIGHT``              Borel-Weil-Bott cohomology of E_lambda
* ``ext G/Pk BUNDLE P``            decomposition of Lambda^P F^*
* ``cohomology G/Pk BUNDLE``       H^*(X, F), or H^*(Z_F, E|_Z) with --restrict E
* ``hodge G/Pk BUNDLE --d {3,4}``  Hodge numbers of the zero locus
* ``classify --d {3,4}``           the trivial-canonical-bundle search; with
  ``--family all`` also on classical groups of rank <= ``--max-rank`` (4);
  ``--no-hodge`` lists the candidates without Hodge rows
* ``cache {stats,clear}``          persistent cache control

Shared flags, before or after the subcommand: ``--format {table,json,csv}``,
``--cache DIR`` (a persistent cache), ``--allow-bounds`` (exit 2, not 1, when
results are only bounded), ``-v/--verbose``; ``-h/--help`` prints this text.

Bundle grammar: ``term (+ term)*`` with
``term := ( O(t) | w<indices> | [c1,...,cr] ) [ (twist) ] [ ^mult ]``;
for example ``w6^4 + O(1)`` or ``w1^2 + O(1)^5`` or ``[3,0,0,0,0]``.
One table, ``_COMMANDS``, gives each subcommand its handler, positionals and
options; the handler returns a :class:`Reply`
(results, table lines, status and, where it has them, space, bundle and
citations), and ``main`` alone wraps that in the JSON envelope
``{space, bundle, results, status, citations}`` and writes it out.
Output is deterministic byte-for-byte for fixed inputs and engine version.
Exit codes: 0 exact, 2 ambiguous (with --allow-bounds), 1 error, usage errors included.
"""

from __future__ import annotations

import gc
import io
import json
import re
import sys
import time
from types import SimpleNamespace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import cache as _cache
from . import classify as _classify
from . import hodge as _hodge
from . import repcalc as rc
from .bwbcohom import CohomologyTable, bundle_cohomology, bwb, check_p_dominant
from .homspace import (
    HomSpace,
    bundle_rank,
    dex,
    dimension,
    fano_index,
    minimal_embedding_dim,
    parse_homspace,
)
from .koszul import (
    BundleSum,
    ZeroLocus,
    restricted_cohomology,
    w_digits_ambiguous,
    wedge_decomp,
)
from .rootdata import Weight, parse_root_system, positive_roots


class ParseError(ValueError):
    pass


_TERM_RE = re.compile(
    r"^\s*(?:O\(\s*(-?\d+)\s*\)|w(\d+)|\[([-\d,\s]+)\])"
    r"\s*(?:\(\s*(-?\d+)\s*\))?\s*(?:\^\s*(\d+))?\s*$"
)


def parse_weight_term(X: HomSpace, term: str) -> Tuple[Weight, int]:
    """One bundle term -> (weight, multiplicity)."""
    m = _TERM_RE.match(term)
    if not m:
        raise ParseError(f"cannot parse bundle term {term!r} (at {term.strip()!r})")
    line_t, windices, coords, twist, mult = m.groups()
    r = X.rs.rank
    lam = [0] * r
    if line_t is not None:
        lam[X.k - 1] = int(line_t)
    elif windices is not None:
        if w_digits_ambiguous(windices, r):
            raise ParseError(f"{term.strip()!r} is ambiguous on {X.rs}: write [c1,...,c{r}]")
        for ch in windices:
            i = int(ch)
            if not 1 <= i <= r:
                raise ParseError(f"fundamental weight index {i} out of range in {term!r}")
            lam[i - 1] += 1
    else:
        parts = [p.strip() for p in coords.split(",") if p.strip()]
        if len(parts) != r:
            raise ParseError(f"weight {term!r} needs {r} coordinates for {X.rs}")
        lam = [int(p) for p in parts]
    if twist is not None:
        lam[X.k - 1] += int(twist)
    return tuple(lam), int(mult) if mult else 1


def parse_weight(X: HomSpace, text: str) -> Weight:
    lam, mult = parse_weight_term(X, text)
    if mult != 1:
        raise ParseError("a single weight cannot carry a multiplicity")
    return lam


def parse_bundle(X: HomSpace, expr: str) -> BundleSum:
    if not expr.strip():
        raise ParseError("empty bundle expression")
    weights: Dict[Weight, int] = {}
    for term in expr.split("+"):
        lam, mult = parse_weight_term(X, term)
        weights[lam] = weights.get(lam, 0) + mult
    return BundleSum.make(X, weights)


def _weight_str(w: Weight) -> str:
    return "[" + ",".join(str(c) for c in w) + "]"


def _emit(payload: dict, fmt: str, table_lines: List[str]) -> str:
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if fmt == "csv":
        import csv  # only here: no other path writes CSV

        buf = io.StringIO()
        rows = payload.get("results", {}).get("rows")
        if rows:
            writer = csv.DictWriter(buf, fieldnames=sorted(rows[0]))
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
        else:
            buf.write(json.dumps(payload, sort_keys=True) + "\n")
        return buf.getvalue()
    return "\n".join(table_lines) + "\n"


class Reply(NamedTuple):
    """A subcommand's answer; ``main`` wraps it in the JSON envelope."""

    results: dict
    lines: List[str]
    status: str = "exact"
    space: Optional[str] = None
    bundle: Optional[str] = None
    citations: Sequence[str] = ()


def _table_payload(t: CohomologyTable) -> List[dict]:
    rows = []
    for q in sorted(t.entries):
        for hw, m in sorted(t.entries[q].items()):
            rows.append(
                {
                    "degree": q,
                    "weight": _weight_str(hw),
                    "multiplicity": m,
                    "dim": m * rc.weyl_dim(t.X.group, hw),
                }
            )
    return rows


def _roots(args) -> Reply:
    rs = parse_root_system(args.group)
    roots = positive_roots(rs)
    rows = [{"root": "(" + ",".join(map(str, b)) + ")", "height": sum(b)} for b in roots]
    lines = [f"{rs} root: {r['root']}" for r in rows] + [f"count={len(roots)}"]
    return Reply({"rows": rows, "count": len(roots)}, lines, space=str(rs))


def _dim(args) -> Reply:
    X = parse_homspace(args.space)
    d, i, e = dimension(X), fano_index(X), minimal_embedding_dim(X)
    return Reply({"dim": d, "index": i, "embedding": e},
                 [f"dim={d} index={i} embed=P^{e}"], space=str(X))


def _dex(args) -> Reply:
    X = parse_homspace(args.space)
    lam = parse_weight(X, args.weight)
    check_p_dominant(X, lam)
    rk, dx = bundle_rank(X, lam), dex(X, lam)
    return Reply({"rank": rk, "dex": dx}, [f"rank={rk} dex={dx}"],
                 space=str(X), bundle=_weight_str(lam))


def _bwb(args) -> Reply:
    X = parse_homspace(args.space)
    lam = parse_weight(X, args.weight)
    rows = _table_payload(bwb(X, lam))
    lines = [
        f"H^{r['degree']} = V{r['weight']}^{{x{r['multiplicity']}}} dim {r['dim']}"
        for r in rows
    ] or ["all cohomology vanishes"]
    return Reply({"rows": rows}, lines, space=str(X), bundle=_weight_str(lam))


def _ext(args) -> Reply:
    X = parse_homspace(args.space)
    F = parse_bundle(X, args.bundle)
    if not 0 <= args.p <= F.rank:
        raise ParseError(f"wedge degree {args.p} out of range 0..{F.rank}")
    dec = wedge_decomp(F, args.p)
    rows = [
        {"weight": _weight_str(lam), "multiplicity": m,
         "rank": rc.weyl_dim(X.levi, lam)}
        for lam, m in sorted(dec.items())
    ]
    lines = [f"L^{args.p} F* = " + " + ".join(
        f"E{r['weight']}^{r['multiplicity']}" for r in rows)]
    return Reply({"p": args.p, "rows": rows}, lines, space=str(X), bundle=str(F))


def _cohomology(args) -> Reply:
    X = parse_homspace(args.space)
    F = parse_bundle(X, args.bundle)
    if args.restrict is None:
        rows = _table_payload(bundle_cohomology(X, F.as_dict()))
        lines = [
            f"H^{r['degree']} dim {r['dim']} (V{r['weight']} x{r['multiplicity']})"
            for r in rows
        ] or ["all cohomology vanishes"]
        return Reply({"rows": rows}, lines, space=str(X), bundle=str(F))
    E = parse_bundle(X, args.restrict)
    zc = restricted_cohomology(ZeroLocus(X, F), E)
    results = {
        "restrict": str(E),
        "dims": zc.dims,
        "status": zc.status,
        "bounds": {str(q): list(b) for q, b in sorted(zc.bounds.items())},
    }
    lines = [f"H^{q}(Z, E|_Z) = {v if v is not None else zc.bounds.get(q)}"
             for q, v in enumerate(zc.dims)]
    return Reply(results, lines, zc.status, str(X), str(F))


def _hodge_cmd(args) -> Reply:
    X = parse_homspace(args.space)
    F = parse_bundle(X, args.bundle)
    Z = ZeroLocus(X, F)
    if Z.d != args.d:
        raise ParseError(
            f"rank(F)={F.rank} gives a locus of dimension {Z.d}, not {args.d}"
        )
    dia = _hodge.assemble(Z)
    chi = dia.euler_characteristic()
    diamond = dia.rows()
    if Z.d == 4:
        names = {"h02": dia.get(0, 2), "h11": dia.get(1, 1),
                 "h13": dia.get(1, 3), "h22": dia.get(2, 2),
                 "hyperkaehler": _hodge.is_hyperkaehler(diamond[0])}
    else:
        names = {"h11": dia.get(1, 1), "h12": dia.get(1, 2)}
    results = {"d": Z.d, "dex": F.dex, "iota": fano_index(X),
               "diamond": diamond, "chi": chi, **names}
    status = "exact" if dia.complete() else "ambiguous"
    lines = [f"{k}={v}" for k, v in sorted(names.items())] + [f"chi={chi}"]
    if status == "ambiguous" and dia.blocked:
        results["blocked"] = dict(dia.blocked)
        lines += [f"blocked {k}: {v}" for k, v in sorted(dia.blocked.items())]
    return Reply(results, lines, status, str(X), str(F))


def _classify_cmd(args) -> Reply:
    rep = _classify.classify(
        _classify.search_spaces(args.family, args.max_rank), args.d,
        with_hodge=not args.no_hodge,
    )
    rows = [
        {"space": r.space, "dim": r.dim, "iota": r.iota, "bundle": r.bundle,
         "orbit": r.orbit_tag, "status": r.status, "note": r.note, **r.hodge}
        for r in rep.rows
    ]
    dedup = len(rep.dedup_rows())
    results = {
        "d": args.d,
        "rows": rows,
        "excluded": [
            {"space": e.space, "bundle": repr(e.weights), "reason": e.reason}
            for e in rep.excluded
        ],
        "pruned": [{"space": s, "reason": why} for s, why in rep.pruned],
        "dedup_count": dedup,
    }
    keys = _classify.HODGE_COLUMNS[args.d]
    lines = [f"No. | space | dim | iota | bundle | {' '.join(keys)}"]
    for i, row in enumerate(rows, 1):
        h = "-" if args.no_hodge else " ".join(str(row.get(k)) for k in keys)
        lines.append(
            f"{i} | {row['space']} | {row['dim']} | {row['iota']} | {row['bundle']} | {h}"
        )
    lines.append(f"rows={len(rows)} dedup={dedup} "
                 f"excluded={len(rep.excluded)} pruned={len(rep.pruned)}")
    status = "exact" if all(r.status == "exact" for r in rep.rows) else "ambiguous"
    return Reply(results, lines, status,
                 citations=sorted({e.citation for e in rep.excluded}))


def _cache_cmd(args) -> Reply:
    if args.action == "stats":
        st = _cache.stats()
        return Reply(st, [f"{k}={v}" for k, v in sorted(st.items())])
    _cache.clear(disk=True)
    return Reply({"cleared": True}, ["cache cleared"])


class Arg(NamedTuple):
    """A positional or an option of ``_COMMANDS``; ``type`` None makes a switch."""

    type: Optional[Callable[[str], object]] = str
    choices: Tuple = ()
    default: object = None
    required: bool = False


_TEXT, _SWITCH, _D = Arg(), Arg(None, default=False), Arg(int, (3, 4), required=True)
# accepted before and after the subcommand; the last one given wins
_SHARED = {"--format": Arg(choices=("table", "json", "csv"), default="table"),
           "--cache": _TEXT, "--allow-bounds": _SWITCH, "--verbose": _SWITCH}
# name -> (handler, positionals, options): the one table that parses and dispatches
_COMMANDS: Dict[str, Tuple[Callable[..., Reply], Dict[str, Arg], Dict[str, Arg]]] = {
    "roots": (_roots, {"group": _TEXT}, {}),
    "dim": (_dim, {"space": _TEXT}, {}),
    "dex": (_dex, {"space": _TEXT, "weight": _TEXT}, {}),
    "bwb": (_bwb, {"space": _TEXT, "weight": _TEXT}, {}),
    "ext": (_ext, {"space": _TEXT, "bundle": _TEXT, "p": Arg(int)}, {}),
    "cohomology": (_cohomology, {"space": _TEXT, "bundle": _TEXT}, {"--restrict": _TEXT}),
    "hodge": (_hodge_cmd, {"space": _TEXT, "bundle": _TEXT}, {"--d": _D}),
    "classify": (_classify_cmd, {}, {
        "--d": _D, "--family": Arg(choices=("exceptional", "all"), default="exceptional"),
        "--max-rank": Arg(int, default=4), "--no-hodge": _SWITCH}),
    "cache": (_cache_cmd, {"action": Arg(choices=("stats", "clear"))}, {}),
}
_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")
_HELP = re.compile(r"-v*h[vh]*$|--h(e(lp?)?)?$")
_heap_frozen = False  # whether a main of this process froze the heap


def _option_names(tok: str, known: Dict[str, Arg]) -> List[str]:
    """The options ``tok`` names, or [] when it is a word (a command or a value).

    As argparse read them: a negative number is a word, ``-vv`` is ``-v``
    twice, ``--opt[=value]`` names the option of ``known`` that ``--opt`` is
    or uniquely begins, and an unknown option with a space in it is a word.
    """
    if tok[:1] != "-" or tok == "-" or _NUMBER.match(tok):
        return []
    if tok.strip("v") == "-":
        return ["--verbose"] * (len(tok) - 1)
    name = tok.partition("=")[0]
    found = [name] if name in known else [n for n in known if n.startswith(name)]
    if len(found) > 1 or not found and " " not in tok:
        raise ParseError(f"ambiguous option {name}: {' or '.join(found)}" if found
                         else f"unknown option {name}")
    return found


def _convert(name: str, arg: Arg, text: str):
    try:
        value = arg.type(text)
    except ValueError:
        raise ParseError(f"{name}: invalid {arg.type.__name__} value {text!r}") from None
    if arg.choices and value not in arg.choices:
        raise ParseError(f"{name}: {text!r} is not one of {', '.join(map(str, arg.choices))}")
    return value


def _parse(argv: Sequence[str]) -> Optional[Tuple[Callable, SimpleNamespace]]:
    """Read ``argv`` by ``_SHARED`` and ``_COMMANDS``; None when it asks for help anywhere."""
    if any(map(_HELP.match, argv[:argv.index("--") if "--" in argv else None])):
        return None
    known, given, words, rest = dict(_SHARED), {}, [], False
    tokens = iter(argv)
    for tok in tokens:
        if tok == "--" and not rest:
            rest = True  # every later token is a word
            continue
        options = [] if rest else _option_names(tok, known)
        for opt in options:
            arg = known[opt]
            if arg.type is None:
                if "=" in tok:
                    raise ParseError(f"option {opt} takes no value")
                given[opt] = True
                continue
            text = tok.partition("=")[2] if "=" in tok else next(tokens, None)
            if "=" not in tok and (text in (None, "--") or _option_names(text, known)):
                raise ParseError(f"option {opt} expects a value")
            given[opt] = _convert(opt, arg, text)
        if options:
            continue
        if not words:
            if tok not in _COMMANDS:
                raise ParseError(f"unknown command {tok!r} (choose from {', '.join(_COMMANDS)})")
            known.update(_COMMANDS[tok][2])
        words.append(tok)
    if not words:
        raise ParseError(f"no command given (choose from {', '.join(_COMMANDS)})")
    name, *words = words
    handler, spec, options = _COMMANDS[name]
    if len(words) > len(spec):
        raise ParseError(f"{name}: unexpected argument {words[len(spec)]!r}")
    missing = list(spec)[len(words):] + [
        opt for opt, arg in options.items() if arg.required and opt not in given]
    if missing:
        raise ParseError(f"{name}: missing {', '.join(missing)}")
    values = {opt: given.get(opt, arg.default) for opt, arg in known.items()}
    values.update((pos, _convert(pos, arg, text)) for (pos, arg), text in zip(spec.items(), words))
    return handler, SimpleNamespace(**{k.lstrip("-").replace("-", "_"): v
                                       for k, v in values.items()})


def main(argv: Optional[List[str]] = None) -> int:
    """Run one subcommand; return the exit code.

    A usage error, like any other, prints one ``error:`` line and returns 1;
    ``-h`` or ``--help`` anywhere prints the module docstring and returns 0.

    The first call in a process freezes the heap the imports left behind, so
    the cyclic collector, its collections at interpreter exit included, no
    longer walks the engine's modules, which live until exit anyway: the
    time from import to exit of a one-shot ``hodge`` call falls by a third.
    Everything a call builds stays collectable, and importing the module
    freezes nothing; a later call reads a flag, not the frozen heap's count.
    """
    global _heap_frozen
    if not _heap_frozen:
        gc.freeze()
        _heap_frozen = True
    t0 = time.perf_counter()
    try:
        parsed = _parse(sys.argv[1:] if argv is None else argv)
        if parsed is None:
            sys.stdout.write(__doc__ or "")
            return 0
        handler, args = parsed
        if args.cache:
            _cache.set_cache_dir(args.cache)
        reply = handler(args)
        payload = {"space": reply.space, "bundle": reply.bundle,
                   "results": reply.results, "status": reply.status,
                   "citations": list(reply.citations)}
        out = _emit(payload, args.format, reply.lines)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    if args.verbose:
        st = _cache.stats()
        per_namespace = ", ".join(
            f"{ns} {n}" for ns, n in sorted(_cache.namespace_entries().items())
        )
        print(
            f"[{time.perf_counter() - t0:.2f}s, cache: {st['memory_entries']} in memory "
            f"({per_namespace}), {st['hits']} hits, {st['misses']} misses]",
            file=sys.stderr,
        )
    if reply.status == "ambiguous":
        return 2 if args.allow_bounds else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
