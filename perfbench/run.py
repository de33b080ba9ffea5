"""sclforge benchmark runner (stdlib only).

    python3 perfbench/run.py --workload c16-family --seed 1 --seconds 10 --trace 0

Builds a workload's seeded job list (see workloads.py), then runs it in a
closed loop from this one process: one job at a time, each a ``sclforge``
command line through ``sclforge.cli.main`` with stdout and stderr captured,
or a public library call. Whole passes over the list repeat until
``--seconds`` have passed. Every job's output is checked outside its timed
interval. The last stdout line is one JSON object with the end-to-end
metrics (``--trace 0``) or, from untraced passes and one traced pass, the
per-layer metrics (``--trace 1``). See README.md for the metric list.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 9
MIN_PASSES = 3
SETUP_CODE = "import sys; import sclforge.cli as cli; cli.build_parser().parse_args(sys.argv[1:])"
SETUP_ARGV = ["rc", "monotone", "--set", "evens", "--depth", "1"]


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def _rank(p: float, count: int) -> int:
    """1-based nearest rank of percentile ``p``, computed exactly."""
    return max(1, math.ceil(Fraction(str(p)) / 100 * count))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(count: int, choices=(99.9, 99, 95, 90, 75, 50)):
    """The highest percentile with at least ten samples beyond it, or None."""
    for p in choices:
        if count - _rank(p, count) >= 10:
            return p
    return None


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------


def run_job(cli, job, state):
    """Run one job; returns (seconds, Outcome). Never raises."""
    from workloads import Outcome

    outcome = Outcome()
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        if job.argv is not None:
            with redirect_stdout(out), redirect_stderr(err):
                outcome.code = cli.main(job.argv)
        else:
            outcome.value = job.call(state)
    except Exception as exc:  # a crashing job is a failed job, not a crashed benchmark
        outcome.error = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    outcome.out, outcome.err = out.getvalue(), err.getvalue()
    return seconds, outcome


def judge(job, outcome):
    """Reason the job's output is wrong, or None."""
    if outcome.error is not None:
        return outcome.error
    try:
        return job.check(outcome)
    except Exception as exc:  # a malformed output must count, not stop the run
        return f"output check raised {type(exc).__name__}: {exc}"


class Pass:
    """One pass over a job list: latencies, failures, wall time."""

    def __init__(self, cli, jobs, tracer=None):
        self.latencies = []
        self.failures = []
        state = {}
        t0 = perf_counter()
        for index, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = index
                tracer.enabled = True
            seconds, outcome = run_job(cli, job, state)
            if tracer is not None:
                tracer.enabled = False
            self.latencies.append(seconds)
            reason = judge(job, outcome)
            if reason is not None:
                self.failures.append(f"{job.name}: {reason}")
        self.wall = perf_counter() - t0


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing sclforge.cli and
    parsing one command line; every CLI invocation pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE] + SETUP_ARGV
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if i:  # the first run may compile bytecode
            times.append(perf_counter() - t0)
    return statistics.median(times)


def end_to_end(latencies, setup_s):
    return {
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_p90_s": (percentile(latencies, 90), "s"),
        "jobs_per_s": (len(latencies) / sum(latencies), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, jobs, traced_wall, untraced_wall):
    rows = tracer.summary()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def get(name, key):
        return rows.get(name, zero)[key]

    counts = tracer.counts
    relator_calls = get("presentations.relator", "calls")
    oracle = get("rc.oracle_query", "calls")
    entries = sum(job.rc_rows for job in jobs)
    search_s = get("bounds.cl_search", "s")
    normalize_calls = get("diagrams.normalized", "calls")
    m = {
        "cli.main.self_s": (get("cli.main", "self_s"), "s"),
        "presentations.parse_presentation.s": (get("presentations.parse_presentation", "s"), "s"),
        "diagrams.parse_diagram.s": (get("diagrams.parse_diagram", "s"), "s"),
        "words.max_common_piece.calls": (get("words.max_common_piece", "calls"), "count"),
        "words.max_common_piece.s": (get("words.max_common_piece", "s"), "s"),
        "words.cyclic_reduce.calls": (get("words.cyclic_reduce", "calls"), "count"),
        "words.cyclic_reduce.s": (get("words.cyclic_reduce", "s"), "s"),
        "words.cyclic_inverse.s": (get("words.cyclic_inverse", "s"), "s"),
        "words.mul.calls": (get("words.mul", "calls"), "count"),
        "words.mul.s": (get("words.mul", "s"), "s"),
        "words.inverse.calls": (get("words.inverse", "calls"), "count"),
        "presentations.family_relator.calls": (get("presentations.family_relator", "calls"), "count"),
        "presentations.family_relator.s": (get("presentations.family_relator", "s"), "s"),
        "presentations.relator.calls": (relator_calls, "count"),
        "presentations.relator_hit_ratio": (
            counts["presentations.relator.hits"] / relator_calls if relator_calls else 0.0, "ratio"),
        "presentations.check_small_cancellation.self_s": (
            get("presentations.check_small_cancellation", "self_s"), "s"),
        "presentations.piece_pairs": (counts["presentations.piece_pairs"], "count"),
        "rc.specker_partial.calls": (get("rc.specker_partial", "calls"), "count"),
        "rc.specker_partial.s": (get("rc.specker_partial", "s"), "s"),
        "rc.oracle_queries": (oracle, "count"),
        "rc.oracle_queries_per_entry": (oracle / entries if entries else 0.0, "ratio"),
        "rc.pair.calls": (get("rc.pair", "calls"), "count"),
        "rc.decimal_digits.s": (get("rc.decimal_digits", "s"), "s"),
        "bounds.cl_search.s": (search_s, "s"),
        "bounds.candidates": (counts["bounds.candidates"], "count"),
        "bounds.candidates_per_s": (counts["bounds.candidates"] / search_s if search_s else 0.0, "1/s"),
        "bounds.product.calls": (get("bounds.product", "calls"), "count"),
        "bounds.product.s": (get("bounds.product", "s"), "s"),
        "bounds.wasted_candidates": (counts["bounds.wasted_candidates"], "count"),
        "bounds.abelianization_warning.s": (get("bounds.abelianization_warning", "s"), "s"),
        "bounds.verify_certificate.calls": (get("bounds.verify_certificate", "calls"), "count"),
        "bounds.verify_certificate.s": (get("bounds.verify_certificate", "s"), "s"),
        "bounds.derive_bound.calls": (get("bounds.derive_bound", "calls"), "count"),
        "bounds.scl_report.s": (get("bounds.scl_report", "s"), "s"),
        "diagrams.validate.calls": (get("diagrams.validate", "calls"), "count"),
        "diagrams.validate.s": (get("diagrams.validate", "s"), "s"),
        "diagrams.validate_per_normalize": (
            tracer.calls_within("diagrams.validate", "diagrams.normalized") / normalize_calls
            if normalize_calls else 0.0, "ratio"),
        "diagrams.normalized.s": (get("diagrams.normalized", "s"), "s"),
        "diagrams.subdivide_dart.s": (get("diagrams.subdivide_dart", "s"), "s"),
        "diagrams.claims_check.s": (get("diagrams.claims_check", "s"), "s"),
        "diagrams.curvature_report.s": (get("diagrams.curvature_report", "s"), "s"),
        "diagrams.contact_weight.s": (get("diagrams.contact_weight", "s"), "s"),
        "trace.overhead_ratio": (traced_wall / untraced_wall, "ratio"),
    }
    return m


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description="sclforge benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import sclforge from this checkout's src/, refusing any other copy."""
    if not (SRC / "sclforge" / "__init__.py").is_file():
        raise SystemExit(f"error: no sclforge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sclforge.cli

    if Path(sclforge.cli.__file__).resolve().parent != (SRC / "sclforge").resolve():
        raise SystemExit(f"error: imported sclforge from {sclforge.cli.__file__}, not {SRC}")
    return sclforge.cli


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = load_program()
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = workloads.build(args.workload, args.seed, workdir)
        jobs = wl.jobs
        if args.trace:
            # two untraced passes, the first of which pays warm-up: the
            # faster one is the base of the overhead ratio and probe times
            untraced = [Pass(cli, jobs), Pass(cli, jobs)]
            tracer = tracing.Tracer(modules=[workloads])
            tracer.install()
            try:
                traced = Pass(cli, jobs, tracer)
            finally:
                tracer.restore()
            passes = untraced + [traced]
            metrics = per_layer(tracer, jobs, traced.wall, min(p.wall for p in untraced))
            spans_path = WORK / f"trace-{args.workload}-seed{args.seed}.tsv"
            tracer.write(spans_path)
            for i, job in enumerate(jobs):
                if job.probe:
                    print(f"probe\t{job.probe}\t{min(p.latencies[i] for p in untraced):.4f} s")
            print(f"spans\t{len(tracer.starts)} written to {spans_path.relative_to(ROOT)}")
        else:
            setup_s = setup_seconds()
            passes = []
            deadline = perf_counter() + args.seconds
            while len(passes) < MIN_PASSES or perf_counter() < deadline:
                passes.append(Pass(cli, jobs))
            # each job's latency is its best time over the passes, as timeit
            # does: a shared machine's speed swings by a fifth over seconds,
            # and the first pass pays the interpreter's warm-up
            latencies = [min(p.latencies[i] for p in passes) for i in range(len(jobs))]
            metrics = end_to_end(latencies, setup_s)
            tail = tail_percentile(len(latencies))
            print(f"jobs\t{len(jobs)}, each timed as its best of {len(passes)} passes")
            if tail is not None:
                print(f"job_p{tail:g}_s\t{percentile(latencies, tail):.6f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    for reason in sorted(set(failures))[:20]:
        print(f"failed\t{reason}", file=sys.stderr)
    print(f"failed_ratio\t{len(failures) / attempted:.6f} ({len(failures)}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name}\t{value:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
