"""One benchmark job in a fresh interpreter.

Usage: ``python3 bench/child.py SPEC`` where SPEC is a JSON object:

* ``{"job": "import"}`` only imports the engine (a set-up probe);
* ``{"job": "cli", "argv": [...]}`` runs ``bwbforge.cli.main(argv)``, the
  console entry point, with its standard output captured;
* ``{"job": "mix", "seed": n, "duality": bool}`` runs a ``restrict-mix``
  session of library calls.

``"trace": true`` with ``"spans": PATH`` wraps the engine with
:class:`tracing.Tracer` after the import, writes the spans to PATH and
reports what one wrapped call costs.  The
result is one JSON line on standard output.  Times are ``time.monotonic()``
readings, which the parent process shares, so it can take the set-up time
from its own spawn time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cli(spec: dict, tracer) -> dict:
    from bwbforge import cache, cli

    if tracer is not None:
        tracer.install()
    t_start = time.monotonic()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(spec["argv"])
    t_done = time.monotonic()
    stats = cache.stats()
    return {
        "t_start": t_start,
        "t_done": t_done,
        "exit_code": code,
        "output": buf.getvalue(),
        "disk_hits": stats["disk_hits"],
        "peak_rss_mb": _peak_rss_mb(),
    }


def answer_record(zc) -> list:
    """A restricted-cohomology answer as plain JSON data."""
    return [zc.dims, zc.status, sorted([q, list(b)] for q, b in zc.bounds.items())]


def run_mix(spec: dict, tracer) -> dict:
    import mix
    from bwbforge import koszul

    queries = mix.generate(spec["seed"])
    built = [mix.build(q) for q in queries]
    if tracer is not None:
        tracer.install()
    t_start = time.monotonic()
    # wedge tables of every locus before timing: queries then measure E1
    # assembly, BWB climbs and the spectral solve
    for Z in dict.fromkeys(Z for Z, _ in built):
        koszul.wedge_dual_chars(Z)
    t_ready = time.monotonic()
    latencies = []
    answers = []
    clock = time.perf_counter
    for Z, E in built:
        t0 = clock()
        zc = koszul.restricted_cohomology(Z, E)
        latencies.append(clock() - t0)
        answers.append(zc)
    t_done = time.monotonic()
    peak = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
    records = [answer_record(zc) for zc in answers]
    out = {
        "t_start": t_start,
        "t_ready": t_ready,
        "t_done": t_done,
        "latencies": latencies,
        "queries_digest": hashlib.sha256(json.dumps(queries).encode()).hexdigest(),
        "answers": records,
        "peak_rss_mb": peak,
    }
    if spec.get("duality"):
        t_check = time.monotonic()
        out["duality"] = serre_duality_check(queries, built, answers)
        out["check_s"] = time.monotonic() - t_check
    return out


def serre_duality_check(queries, built, answers) -> dict:
    """Check H^q(Z, E|_Z) = H^{d-q}(Z, E^*|_Z) on the exact completely reducible queries.

    Every locus has trivial canonical bundle, so Serre duality takes this
    form.  A dual query that is itself only bounded cannot be compared and is
    skipped.
    """
    from bwbforge import koszul

    checked = skipped = 0
    mismatches = []
    for i, ((Z, E), zc) in enumerate(zip(built, answers)):
        if queries[i][2][0] != "sum" or zc.status != "exact":
            continue
        dual = koszul.restricted_cohomology(Z, E.dual())
        if dual.status != "exact":
            skipped += 1
            continue
        checked += 1
        if zc.dims != dual.dims[::-1]:
            mismatches.append(i)
    return {"checked": checked, "skipped": skipped, "mismatches": mismatches}


def main() -> int:
    spec = json.loads(sys.argv[1])
    import bwbforge.cli  # noqa: F401  (the whole engine: every module)

    out = {}
    tracer = None
    if spec.get("trace"):
        import tracing

        # measured before the job's clock starts, so it stays out of wall_s
        out["span_cost_s"], out["count_cost_s"] = tracing.per_call_cost()
        tracer = tracing.Tracer()
    out["t_imported"] = time.monotonic()
    if spec["job"] == "cli":
        out.update(run_cli(spec, tracer))
    elif spec["job"] == "mix":
        out.update(run_mix(spec, tracer))
    elif spec["job"] != "import":
        raise ValueError(f"unknown job {spec['job']!r}")
    if tracer is not None:
        tracer.dump(spec["spans"])
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
