"""Benchmark for bwbforge: end-to-end times and an outside-in per-layer trace.

Usage, from the root of a checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seconds S      # every workload, in turn

Each job runs in a fresh single-threaded interpreter, one at a time (a closed
loop with one client), with ``BWBFORGE_CACHE`` removed from its environment.
A run repeats its workload's pass for about ``--seconds`` (at least three
passes) and reports the median pass time and set-up time, both scaled to a
reference machine speed, and the median memory.
With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it runs one traced pass and reports its
per-layer metrics and the tracing overhead.

Every output is checked against ``reference.json``; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only when every answer was right.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CHILD = os.path.join(BENCH, "child.py")
CALIBRATE = os.path.join(BENCH, "calibrate.py")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, BENCH)

import tracing  # noqa: E402

WORKLOADS = ("classify-d3", "hodge-e6p2", "restrict-mix")
CLASSIFY_D3 = ["classify", "--d", "3", "--format", "json"]
HODGE_E6P2 = ["hodge", "E6/P2", "w6 + O(1)^5 + w1", "--d", "4", "--format", "json"]

END_TO_END_UNITS = {"scaled_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 3
MIN_PASSES = 3
JOB_TIMEOUT_S = 170
# The speed of a shared 2-core host drifts by half within minutes, so two sets
# of runs of the same code disagree by more than any bound.  Times are
# therefore scaled by the time of fixed reference work (calibrate.py) run just
# before and after each pass, to what they would read where that work takes
# REFERENCE_CALIBRATION_S; a program that does more work still reads slower.
REFERENCE_CALIBRATION_S = 0.35

# per-layer metric -> unit; "<fn>.calls|s|self_s" come from the spans, the
# rest from counters taken at the same boundaries
PER_LAYER_UNITS: Dict[str, str] = {
    "repcalc.conv.calls": "count", "repcalc.conv.s": "s", "repcalc.conv.products": "count",
    "repcalc.decompose_character.calls": "count", "repcalc.decompose_character.s": "s",
    "repcalc.decompose_character.weights": "count",
    "repcalc.exterior_char_table.s": "s", "koszul.wedge_dual_chars.s": "s",
    "repcalc.char_irr.calls": "count", "repcalc.char_irr.s": "s",
    "repcalc.symmetric_char_table.s": "s",
    "homspace.dex.calls": "count", "homspace.dex.s": "s",
    "repcalc.sum_of_weights.s": "s", "repcalc.weyl_dim.calls": "count",
    "classify.enumerate_candidates.s": "s", "classify.admissible_summands.s": "s",
    "classify.candidates.count": "count",
    "cache.memo.calls": "count", "cache.memo.self_s": "s",
    **{f"cache.{ns}.{kind}": "count" for ns in tracing.CACHE_NAMESPACES
       for kind in ("hits", "misses", "disk_hits")},
    "cache.disk_mb": "MB",
    "koszul.restricted_cohomology.calls": "count", "koszul.restricted_cohomology.s": "s",
    "koszul.restricted_cohomology.self_s": "s",
    "koszul.restricted_cohomology.p50_ms": "ms", "koszul.restricted_cohomology.p90_ms": "ms",
    "bwbcohom.bwb.calls": "count", "bwbcohom.bwb.self_s": "s",
    "bwbcohom.bundle_cohomology.s": "s",
    "rootdata.to_dominant_chamber.calls": "count", "rootdata.to_dominant_chamber.s": "s",
    "koszul.exact_ratio.count": "ratio",
    "hodge.h0_row.s": "s", "hodge.h1_row.s": "s", "hodge.h22_chase_report.s": "s",
    "hodge.solve_exact_system.s": "s",
    "cli.main.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.covered_ratio": "ratio",
    "trace.spans": "count",
}


class JobError(RuntimeError):
    """A child process failed or printed no result."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    # a user's cache directory would silently turn a cold run warm
    env.pop("BWBFORGE_CACHE", None)
    return env


def spawn(spec: dict) -> dict:
    """Run one job in a fresh interpreter; add spawn and exit times to its result."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, json.dumps(spec)], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=JOB_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise JobError(f"job {spec} exceeded {JOB_TIMEOUT_S} s") from exc
    t_exit = time.monotonic()
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise JobError(f"job {spec} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["t_spawn"] = t_spawn
    result["t_exit"] = t_exit
    result["setup_s"] = result["t_imported"] - t_spawn
    return result


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference() -> dict:
    with open(os.path.join(BENCH, "reference.json")) as fh:
        return json.load(fh)


# -- correctness gate ---------------------------------------------------------


def check_cli_output(workload: str, output: str, reference: dict) -> List[str]:
    """Problems with one CLI job's output; an empty list means it is right.

    The digest pins the whole output; the spot checks name what moved.
    """
    ref = reference[workload]
    problems = []
    if digest(output) != ref["digest"]:
        problems.append("output digest differs from the recorded one")
    try:
        data = json.loads(output)
    except json.JSONDecodeError:
        return problems + ["output is not JSON"]
    if data.get("status") != "exact":
        problems.append(f"status {data.get('status')!r}, expected 'exact'")
    results = data.get("results", {})
    if "rows" in ref:
        fields = ref["row_fields"]
        rows = [[row.get(f) for f in fields] for row in results.get("rows", [])]
        if rows != ref["rows"]:
            problems.append(f"rows {rows} differ from {ref['rows']}")
    for key, value in ref.get("values", {}).items():
        if results.get(key) != value:
            problems.append(f"{key} = {results.get(key)!r}, expected {value!r}")
    return problems


def check_disk_hits(job: dict, warm: bool) -> List[str]:
    if warm and job["disk_hits"] == 0:
        return ["warm run read nothing from the disk cache"]
    if not warm and job["disk_hits"] != 0:
        return [f"cold run read {job['disk_hits']} entries from disk"]
    return []


def check_mix(session: dict, seed: int, reference: dict, first: dict = None) -> int:
    """Number of wrong answers in one session.

    On the recorded seed every answer is compared with the recorded one; on
    any seed, exact completely reducible answers must satisfy Serre duality,
    and a repeated session must give the first session's answers.
    """
    ref = reference["restrict-mix"]
    answers = session["answers"]
    wrong = set()
    if seed == ref["seed"]:
        if session["queries_digest"] != ref["queries_digest"]:
            wrong.update(range(len(answers)))
        wrong.update(i for i, (a, b) in enumerate(zip(answers, ref["answers"])) if a != b)
    if first is not None:
        wrong.update(i for i, (a, b) in enumerate(zip(answers, first["answers"])) if a != b)
    duality = session.get("duality")
    if duality is not None:
        wrong.update(duality["mismatches"])
    return len(wrong)


# -- machine speed ------------------------------------------------------------


def calibration_seconds() -> float:
    """Wall time of ``calibrate.py`` in a fresh interpreter, measured now."""
    start = time.perf_counter()
    subprocess.run([sys.executable, CALIBRATE], cwd=ROOT, env=child_env(), check=True,
                   timeout=JOB_TIMEOUT_S)
    return time.perf_counter() - start


def speed_scale(before_s: float, after_s: float) -> float:
    """Factor that brings a time measured between two calibrations to reference speed."""
    return REFERENCE_CALIBRATION_S / ((before_s + after_s) / 2)


# -- passes -------------------------------------------------------------------


class Run:
    """State of one benchmark run: operation counts and scratch directories."""

    def __init__(self, workload: str, seed: int, reference: dict):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.workdir = os.path.join(WORK, f"{workload}-{os.getpid()}")
        os.makedirs(self.workdir)
        self._dirs = 0
        self.first_session = None

    def fresh_dir(self, kind: str) -> str:
        self._dirs += 1
        path = os.path.join(self.workdir, f"{kind}{self._dirs}")
        os.makedirs(path)
        return path

    def _cli(self, argv: List[str], warm: bool, trace_to: str = None) -> dict:
        spec = {"job": "cli", "argv": argv}
        if trace_to:
            spec.update(trace=True, spans=trace_to)
        job = spawn(spec)
        job["wall_s"] = job["t_exit"] - job["t_imported"]
        job["t_end"] = job["t_exit"]
        problems = check_cli_output(self.workload, job["output"], self.reference)
        problems += check_disk_hits(job, warm)
        if job["exit_code"] != 0:
            problems.append(f"exit code {job['exit_code']}")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return job

    def one_pass(self, trace_to: str = None) -> dict:
        """One pass of the workload: its jobs and what they add up to.

        ``wall_s`` sums the jobs' times, ``peak_rss_mb`` is the largest job's.
        With ``trace_to``, job ``i`` writes its spans to ``trace_to.i``.
        """
        w = self.workload
        traces = [f"{trace_to}.{i}" if trace_to else None for i in range(2)]
        out = {}
        if w == "restrict-mix":
            jobs = [self._mix_job(traces[0])]
        elif w == "classify-d3":
            # a cold run fills a new cache directory, a warm run reads it back
            cache_dir = self.fresh_dir("cache")
            argv = CLASSIFY_D3 + ["--cache", cache_dir]
            jobs = [self._cli(argv, warm=False, trace_to=traces[0]),
                    self._cli(argv, warm=True, trace_to=traces[1])]
            out["disk_mb"] = _mb(cache_dir)
            shutil.rmtree(cache_dir)
        else:
            jobs = [self._cli(HODGE_E6P2, warm=False, trace_to=traces[0])]
        for job, path in zip(jobs, traces):
            job["spans"] = path
        check_s = sum(job.get("check_s", 0.0) for job in jobs)
        out.update(
            jobs=jobs,
            wall_s=sum(job["wall_s"] for job in jobs),
            peak_rss_mb=max(job["peak_rss_mb"] for job in jobs),
            check_s=check_s,
            duration_s=jobs[-1]["t_exit"] - jobs[0]["t_spawn"] - check_s,
        )
        return out

    def _mix_job(self, trace_to: str = None) -> dict:
        spec = {"job": "mix", "seed": self.seed, "duality": self.first_session is None}
        if trace_to:
            spec.update(trace=True, spans=trace_to)
        job = spawn(spec)
        job["wall_s"] = job["t_done"] - job["t_ready"]
        job["t_end"] = job["t_done"]
        job["warmup_s"] = job["t_ready"] - job["t_imported"]
        wrong = check_mix(job, self.seed, self.reference, self.first_session)
        if self.first_session is None:
            self.first_session = job
        self.attempted += len(job["answers"])
        self.failed += wrong
        if wrong:
            self.problems.append(f"{wrong} wrong restricted-cohomology answers")
        return job

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _mb(path: str) -> float:
    return sum(os.path.getsize(os.path.join(path, n)) for n in os.listdir(path)) / 2**20


def end_to_end(run: Run, seconds: float) -> Dict[str, float]:
    before = calibration_seconds()
    probes = [spawn({"job": "import"})["setup_s"] for _ in range(SETUP_PROBES)]
    calibrations = [before, calibration_seconds()]
    setups = [x * speed_scale(*calibrations) for x in probes]
    start = time.monotonic()
    passes = []
    # start a pass only if a typical pass still ends within the run, so that a
    # run lasts about ``seconds`` whatever its pass length; the untimed Serre
    # duality check of restrict-mix does not use up the run
    while len(passes) < MIN_PASSES or (
            time.monotonic() - start + statistics.median(p["duration_s"] for p in passes)
            <= seconds + sum(p["check_s"] for p in passes)):
        p = run.one_pass()
        calibrations.append(calibration_seconds())
        p["scale"] = speed_scale(calibrations[-2], calibrations[-1])
        passes.append(p)
    setups += [job["setup_s"] * p["scale"] for p in passes for job in p["jobs"]]
    setup_s = statistics.median(setups)
    jobs = [job for p in passes for job in p["jobs"]]
    if run.workload == "restrict-mix":
        setup_s += statistics.median(p["jobs"][0]["warmup_s"] * p["scale"] for p in passes)
        latencies = sorted(x for job in jobs for x in job["latencies"])
        bounded = sum(a[1] != "exact" for a in jobs[0]["answers"])
        print(f"# restrict-mix: {len(latencies)} queries, "
              f"p50 {quantile(latencies, 0.5) * 1e3:.1f} ms, "
              f"p90 {quantile(latencies, 0.9) * 1e3:.1f} ms, "
              f"{bounded} bounded answers per session")
    if run.workload == "classify-d3":
        cold, warm = (statistics.median(p["jobs"][i]["wall_s"] for p in passes) for i in (0, 1))
        print(f"# classify-d3: unscaled cold job median {cold:.4f} s, warm job median {warm:.4f} s")
    walls = [p["wall_s"] for p in passes]
    scaled_wall_s = statistics.median(p["wall_s"] * p["scale"] for p in passes)
    if run.workload == "restrict-mix":
        # the session with every query at its median over the passes: a slow
        # moment of the host then costs one query a vote, not a whole session
        per_query = zip(*([x * p["scale"] for x in p["jobs"][0]["latencies"]] for p in passes))
        scaled_wall_s = sum(statistics.median(q) for q in per_query)
    print(f"# {run.workload}: {len(passes)} passes, unscaled wall_s median "
          f"{statistics.median(walls):.4f} min {min(walls):.4f} max {max(walls):.4f}, "
          f"calibration {min(calibrations):.4f}-{max(calibrations):.4f} s, "
          f"{len(setups)} set-up samples")
    print(f"# {run.workload}: output_digest {output_digest(jobs[0])}")
    return {
        "scaled_wall_s": scaled_wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def output_digest(job: dict) -> str:
    """SHA-256 of what a job answered: CLI output, or the session's answers."""
    if "answers" in job:
        return digest(json.dumps(job["answers"]))
    return digest(job["output"])


def quantile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted, non-empty list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def per_layer(run: Run) -> Dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its jobs."""
    traced = run.one_pass(trace_to=os.path.join(run.workdir, "spans"))
    totals: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    durations: List[float] = []
    spans = root_s = job_s = overhead_s = 0.0
    for job in traced["jobs"]:
        header, cols = tracing.load(job["spans"])
        names = header["names"]
        agg = tracing.aggregate(names, *cols)
        for fn, rec in agg.items():
            for field, value in rec.items():
                key = f"{fn}.{field}"
                totals[key] = totals.get(key, 0) + value
        for key, value in header["counts"].items():
            counts[key] = counts.get(key, 0) + value
        rc_id = names.index("koszul.restricted_cohomology")
        durations += [e - s for n, s, e in zip(cols[0], cols[1], cols[2]) if n == rc_id]
        spans += header["n"]
        root_s += agg["<root>"]["s"]
        # from the tracer's install to the job's end (process exit for a CLI job)
        job_s += job["t_end"] - job["t_start"]
        overhead_s += (header["n"] * job["span_cost_s"]
                       + header["counts"].get("repcalc.weyl_dim.calls", 0) * job["count_cost_s"])
    metrics: Dict[str, float] = {}
    for name in PER_LAYER_UNITS:
        metrics[name] = totals[name] if name in totals else counts.get(name, 0)
    durations.sort()
    # every workload calls restricted_cohomology, so none of these is empty
    metrics["koszul.restricted_cohomology.p50_ms"] = quantile(durations, 0.5) * 1e3
    metrics["koszul.restricted_cohomology.p90_ms"] = quantile(durations, 0.9) * 1e3
    metrics["koszul.exact_ratio.count"] = (counts.get("koszul.exact", 0)
                                           / totals["koszul.restricted_cohomology.calls"])
    metrics["cache.disk_mb"] = traced.get("disk_mb", 0.0)
    # the traced pass's wall_s minus the plain runs' wall_s is the overhead, but
    # one pair of runs differs by more than that on a noisy machine, so the
    # run also reports wrapped calls times the measured cost of one wrapper
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead_s"] = overhead_s
    # share of the traced jobs' time that lies inside top-level spans
    metrics["trace.covered_ratio"] = root_s / job_s
    metrics["trace.spans"] = spans
    print(f"# {run.workload}: output_digest {output_digest(traced['jobs'][0])}")
    return metrics


# -- entry point --------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    run = Run(workload, seed, reference)
    try:
        values = per_layer(run) if trace else end_to_end(run, seconds)
    finally:
        run.close()
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    for problem in run.problems:
        print(f"# WRONG ({workload}): {problem}", file=sys.stderr)
    return {
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def main(argv: List[str] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running job
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "bwbforge", "cli.py")):
        print("error: no engine sources under src/bwbforge; run from a bwbforge checkout",
              file=sys.stderr)
        return 2
    reference = load_reference()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), reference)
        except JobError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for metric, m in results[name]["metrics"].items():
            print(f"{name:18s} {metric:40s} {m['value']:14.6f} {m['unit']}")
    if args.workload == "all":
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    result = results[args.workload]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
