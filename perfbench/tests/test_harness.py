"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

cli = run.load_program()

import sclforge.presentations  # noqa: E402
import sclforge.words  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(99) == 75
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(9999) == 99
    assert run.tail_percentile(10000) == 99.9
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(19) is None


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 50) == 50
    assert run.percentile([7.0], 90) == 7.0


def test_self_time_on_synthetic_span_tree():
    # 0: root [0, 10]; 1: [1, 3] and 2: [2, 5] overlap, covering [1, 5];
    # 3: [6, 7] with grandchild 4: [6.5, 6.8]; 5: [9, 12] runs past the root
    starts = [0.0, 1.0, 2.0, 6.0, 6.5, 9.0]
    ends = [10.0, 3.0, 5.0, 7.0, 6.8, 12.0]
    parents = [-1, 0, 0, 0, 3, 0]
    selfs = tracing.self_times(starts, ends, parents)
    assert selfs == pytest.approx([10 - 4 - 1 - 1, 2.0, 3.0, 0.7, 0.3, 3.0])
    # time from summed leaf calls counts as covered too
    selfs = tracing.self_times(starts, ends, parents, covered=[0.5, 0, 0, 0, 0.1, 0])
    assert selfs[0] == pytest.approx(3.5)
    assert selfs[4] == pytest.approx(0.2)


def _jobs(name, tmp_path, pick):
    wl = workloads.build(name, 7, tmp_path)
    return [j for j in wl.jobs if pick(j)]


def test_flipped_certificate_letter_fails(tmp_path):
    job = _jobs("cl-search", tmp_path, lambda j: j.name.startswith("cl-search [a,b]^2 halt w=1"))[0]
    _, outcome = run.run_job(cli, job, {})
    assert run.judge(job, outcome) is None
    a, b = Path(job.argv[job.argv.index("--pres") + 1]).read_text().split()[1:3]
    lines = outcome.out.splitlines()
    comm = next(i for i, x in enumerate(lines) if x.startswith("comm:"))
    tokens = lines[comm].split()
    name, _, power = tokens[1].partition("^")
    tokens[1] = {a: b, b: a}[name] + ("^" + power if power else "")
    lines[comm] = " ".join(tokens)
    outcome.out = "\n".join(lines) + "\n"
    assert run.judge(job, outcome) == "certificate does not verify"


def test_non_monotone_rc_row_fails(tmp_path):
    job = _jobs("rc-report", tmp_path, lambda j: j.name == "rc monotone evens d=100")[0]
    _, outcome = run.run_job(cli, job, {})
    assert run.judge(job, outcome) is None
    rows = outcome.out.splitlines()
    rows[10], rows[11] = rows[11], rows[10]
    outcome.out = "\n".join(rows) + "\n"
    assert run.judge(job, outcome) is not None


def test_wrong_bound_and_crashing_jobs_fail(tmp_path):
    job = _jobs("rc-report", tmp_path, lambda j: j.name == "bound derive")[0]
    _, outcome = run.run_job(cli, job, {})
    assert run.judge(job, outcome) is None
    outcome.out = outcome.out.replace("bound\t", "bound\t1+", 1)
    assert run.judge(job, outcome) is not None

    def boom(state):
        raise RuntimeError("boom")

    crashing = workloads.Job("crash", check=lambda o: None, call=boom)
    p = run.Pass(cli, [crashing])
    assert p.failures == ["crash: RuntimeError: boom"]


def test_tracer_patches_every_site_and_restores(tmp_path):
    mul = sclforge.words.PowerWord.__dict__["__mul__"]
    piece = sclforge.words.max_common_piece
    check = sclforge.presentations.check_small_cancellation
    jobs = _jobs("c16-family", tmp_path, lambda j: j.name in ("check-c16 (1,i) k=4", "prefix check k=3"))
    tracer = tracing.Tracer(modules=[workloads])
    tracer.install()
    try:
        assert sclforge.presentations.max_common_piece is not piece
        assert sclforge.presentations.max_common_piece is sclforge.words.max_common_piece
        assert cli.check_small_cancellation is not check
        assert workloads.check_small_cancellation is not check
        traced = run.Pass(cli, jobs, tracer)
    finally:
        tracer.restore()
    assert not traced.failures
    assert sclforge.words.PowerWord.__mul__ is mul
    assert sclforge.words.max_common_piece is piece
    assert sclforge.presentations.max_common_piece is piece
    assert cli.check_small_cancellation is check
    assert workloads.check_small_cancellation is check
    summary = tracer.summary()
    assert summary["words.max_common_piece"]["calls"] == tracer.counts["presentations.piece_pairs"] > 0
    assert summary["presentations.check_small_cancellation"]["calls"] == len(jobs)


def test_traced_counts_repeat_on_one_seed(tmp_path):
    def counts():
        jobs = _jobs("cl-search", tmp_path, lambda j: "halt w=2" in j.name and "free3" not in j.name)
        tracer = tracing.Tracer(modules=[workloads])
        tracer.install()
        try:
            run.Pass(cli, jobs, tracer)
        finally:
            tracer.restore()
        return dict(tracer.counts), dict(tracer.leaf_calls)

    first = counts()
    assert first[0]["bounds.candidates"] > 0
    assert first == counts()
