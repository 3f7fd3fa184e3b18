"""Outside-in tracer for bwbforge: spans around the public functions of each module.

The tracer wraps functions from the benchmark's side; no engine file knows about
it.  A wrapped function is replaced at *every* binding site, i.e. in each
``bwbforge`` module whose globals hold the original object, because names taken
in with ``from .x import f`` bypass an attribute patched on the defining module.

Each call to a wrapped function records one span ``(name, start, end, parent)``
in flat in-memory arrays; :meth:`Tracer.dump` writes them out when the job ends
and :func:`aggregate` turns them into per-function totals and self times.

Hot inner helpers (``reflect``, ``pack``/``unpack``, ``_climb_signed``) are left
alone: they run millions of times per fourfold classification and a Python
wrapper would dominate them.  ``repcalc.weyl_dim`` is counted but gets no span
for the same reason.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from collections import Counter
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

# module -> public functions that get a span
SPANNED: Dict[str, Tuple[str, ...]] = {
    "rootdata": ("to_dominant_chamber",),
    "repcalc": (
        "conv",
        "decompose_character",
        "exterior_char_table",
        "symmetric_char_table",
        "char_irr",
        "sum_of_weights",
    ),
    "homspace": ("dex",),
    "bwbcohom": ("bwb", "bundle_cohomology"),
    "koszul": ("wedge_dual_chars", "restricted_cohomology"),
    "hodge": ("h0_row", "h1_row", "h22_chase_report", "solve_exact_system"),
    "classify": ("enumerate_candidates", "admissible_summands"),
    "cache": ("memo",),
    "cli": ("main",),
}
# module -> functions that are only counted (too hot for a span each)
COUNTED: Dict[str, Tuple[str, ...]] = {"repcalc": ("weyl_dim",)}

CACHE_NAMESPACES = ("char", "tensor", "sumwts", "wedge_chars", "wedge_decomps")
COMPUTE = "cache.compute"  # span around the compute callback handed to memo


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._patched: List[Tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn: Callable, on_call: Callable = None) -> Callable:
        """Return ``fn`` wrapped so that each call records a span."""
        nid = self._id(name)
        clock, stack = self.clock, self._stack
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function at every binding site inside ``bwbforge``."""
        mods = {m: importlib.import_module(f"bwbforge.{m}") for m in SPANNED}
        replace: Dict[int, object] = {}
        for m, names in SPANNED.items():
            for n in names:
                orig = getattr(mods[m], n)
                replace[id(orig)] = self._wrap_one(f"{m}.{n}", orig)
        for m, names in COUNTED.items():
            for n in names:
                orig = getattr(mods[m], n)
                replace[id(orig)] = self.counter(f"{m}.{n}.calls", orig)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                wrapped = replace.get(id(value))
                if wrapped is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap_one(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        if name == "repcalc.conv":
            def on_call(args, kwargs):
                counts["repcalc.conv.products"] += len(args[0]) * len(args[1])
            return self.span(name, fn, on_call)
        if name == "repcalc.decompose_character":
            def on_call(args, kwargs):
                counts["repcalc.decompose_character.weights"] += len(args[1])
            return self.span(name, fn, on_call)
        if name == "cache.memo":
            return self._wrap_memo(fn)
        if name == "koszul.restricted_cohomology":
            inner = self.span(name, fn)

            def restricted(*args, **kwargs):
                result = inner(*args, **kwargs)
                counts["koszul.exact"] += result.status == "exact"
                return result
            return restricted
        if name == "classify.enumerate_candidates":
            inner = self.span(name, fn)

            def enumerate_candidates(*args, **kwargs):
                search = inner(*args, **kwargs)
                counts["classify.candidates.count"] += len(search.candidates)
                return search
            return enumerate_candidates
        return self.span(name, fn)

    def _wrap_memo(self, memo: Callable) -> Callable:
        """Span the memo and its compute callback; classify each call by namespace.

        A call that runs ``compute`` is a miss; otherwise it is a disk hit when
        the engine's own disk-hit counter moved, and an in-memory hit if not.
        """
        counts = self.counts
        stats = importlib.import_module("bwbforge.cache")._stats
        spanned = self.span("cache.memo", memo)
        span = self.span

        def traced_memo(namespace, key_obj, compute):
            ran = []

            def once():
                ran.append(True)
                return compute()

            disk_before = stats["disk_hits"]
            value = spanned(namespace, key_obj, span(COMPUTE, once))
            if ran:
                outcome = "misses"
            elif stats["disk_hits"] > disk_before:
                outcome = "disk_hits"
            else:
                outcome = "hits"
            counts[f"cache.{namespace}.{outcome}"] += 1
            return value

        return traced_memo

    # -- output --------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write spans as a JSON header line followed by the raw arrays."""
        header = {"names": self.names, "n": len(self.starts), "counts": dict(self.counts)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_ids, self.starts, self.ends, self.parents):
                arr.tofile(fh)


def per_call_cost(n: int = 200_000) -> Tuple[float, float]:
    """Seconds that a span wrapper and a counting wrapper add to one call, measured now."""
    probe = Tracer()

    def noop():
        return None

    spanned, counted = probe.span("probe", noop), probe.counter("probe", noop)

    def seconds(fn) -> float:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        return time.perf_counter() - start

    base = seconds(noop)
    return (seconds(spanned) - base) / n, (seconds(counted) - base) / n


def load(path: str):
    """Read a file written by :meth:`Tracer.dump` back into arrays."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["n"]
        cols = []
        for code in ("i", "d", "d", "i"):
            arr = array(code)
            arr.fromfile(fh, n)
            cols.append(arr)
    return header, cols


def aggregate(names: Sequence[str], name_ids: Iterable[int], starts: Sequence[float],
              ends: Sequence[float], parents: Sequence[int]) -> Dict[str, Dict[str, float]]:
    """Per-name calls, total time and self time from a flat span list.

    A span's self time is its duration minus the durations of its direct
    children; the engine is single-threaded, so children never overlap.
    ``root_s`` sums the spans without a parent.  Time of a name nested in
    itself counts once in ``s`` (only outermost spans of that name add up).
    """
    name_ids = list(name_ids)
    n = len(name_ids)
    dur = [ends[i] - starts[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child[p] += dur[i]
    out: Dict[str, Dict[str, float]] = {
        name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in names
    }
    root_s = 0.0
    for i in range(n):
        rec = out[names[name_ids[i]]]
        rec["calls"] += 1
        rec["self_s"] += dur[i] - child[i]
        if not _has_ancestor(name_ids, parents, i):
            rec["s"] += dur[i]
        if parents[i] < 0:
            root_s += dur[i]
    out["<root>"] = {"calls": sum(1 for p in parents if p < 0), "s": root_s, "self_s": 0.0}
    return out


def _has_ancestor(name_ids: Sequence[int], parents: Sequence[int], i: int) -> bool:
    nid = name_ids[i]
    p = parents[i]
    while p >= 0:
        if name_ids[p] == nid:
            return True
        p = parents[p]
    return False
