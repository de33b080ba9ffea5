"""Seeded job lists for the four benchmark workloads.

``build(workload, seed, workdir)`` writes every input file a workload needs
into ``workdir`` and returns its job list. A job is one user operation: a
``sclforge`` command line run in-process through ``sclforge.cli.main``, or a
public library call where the CLI has no command (growing-prefix checks and
``normalized`` round trips). Each job carries the check that its output is
correct; checks run outside the timed region and return a reason on failure.

The seed changes generator names, exponents, pair streams, sets, expression
trees and job order (for cl-search only names and order). It does not
change the size parameters (k, m, depth, genus, budgets), so every seed
costs about the same.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from sclforge.bounds import parse_certificate, verify_certificate
from sclforge.diagrams import (
    Markers,
    SurfaceDiagram,
    chi_minus,
    euler_characteristic,
    normalized,
    parse_diagram,
    print_diagram,
    subdivide_dart,
    total_curvature,
)
from sclforge.presentations import (
    SeqPair,
    check_small_cancellation,
    family_alphabet,
    family_presentation,
    parse_presentation,
    print_presentation,
)
from sclforge.rc_numbers import (
    EVEN_NUMBERS,
    ODD_NUMBERS,
    cut_to_monotone,
    oracle_from_list,
    specker_cut,
)
from sclforge.words import Alphabet, CyclicWord, commutator, print_word

WORKLOADS = ("c16-family", "cl-search", "rc-report", "diagrams")


@dataclass
class Outcome:
    """What one job produced: exit code and captured streams, or a value."""

    code: Optional[int] = None
    out: str = ""
    err: str = ""
    value: object = None
    error: Optional[str] = None


@dataclass
class Job:
    name: str
    check: Callable[[Outcome], Optional[str]]
    argv: Optional[list[str]] = None
    call: Optional[Callable[[dict], object]] = None
    probe: Optional[str] = None  # ROADMAP baseline probe label
    rc_rows: int = 0  # rows this job prints from an rc stream
    group: Optional[str] = None  # jobs of one group keep their order


@dataclass
class Workload:
    name: str
    jobs: list[Job] = field(default_factory=list)

    def add(self, job: Job):
        self.jobs.append(job)


def build(workload: str, seed: int, workdir: Path) -> Workload:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    make_jobs = {
        "c16-family": _c16_family,
        "cl-search": _cl_search,
        "rc-report": _rc_report,
        "diagrams": _diagrams,
    }[workload]
    wl = Workload(workload)
    make_jobs(wl, rng, workdir)
    shuffled = list(wl.jobs)
    rng.shuffle(shuffled)
    # a group (a growing prefix) keeps its own order inside the shuffled slots
    for group in {j.group for j in wl.jobs if j.group}:
        slots = [i for i, j in enumerate(shuffled) if j.group == group]
        for i, job in zip(slots, [j for j in wl.jobs if j.group == group]):
            shuffled[i] = job
    wl.jobs = shuffled
    return wl


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _lines(text: str) -> list[str]:
    return text.rstrip("\n").split("\n") if text.strip() else []


# ---------------------------------------------------------------------------
# c16-family
# ---------------------------------------------------------------------------


def _increasing(rng: random.Random, k: int, step: int, jitter: bool) -> list[int]:
    """Strictly increasing n_1..n_k, near ``i * step``."""
    if not jitter:
        return [i * step for i in range(1, k + 1)]
    return [i * step + rng.randrange(step) for i in range(1, k + 1)]


def _family_file(workdir: Path, name: str, ms: list[int], ns: list[int]) -> str:
    pres = family_presentation(SeqPair.from_lists(ms, ns))
    return _write(workdir, name, print_presentation(pres, k=len(ms)))


def _c16_check(k: int) -> Callable[[Outcome], Optional[str]]:
    def check(o: Outcome) -> Optional[str]:
        lines = _lines(o.out)
        if len(lines) < 3 or lines[0] != "pair\tpiece\tshorter\tratio":
            return "missing header"
        rows = [x for x in lines[1:] if not x.startswith(("worst\t", "verdict\t"))]
        if len(rows) != k * (2 * k + 1):
            return f"{len(rows)} rows, expected {k * (2 * k + 1)}"
        worst = lines[-2].split("\t")
        verdict = lines[-1].split("\t")
        if worst[0] != "worst" or verdict[0] != "verdict":
            return "missing worst/verdict lines"
        ratios = [Fraction(r.split("\t")[3]) for r in rows]
        if Fraction(worst[1]) != max(ratios):
            return "worst is not the largest ratio"
        passed = Fraction(worst[1]) < Fraction(worst[3])
        if verdict[1] != ("pass" if passed else "fail") or o.code != (0 if passed else 1):
            return f"verdict {verdict[1]} with exit {o.code} disagrees with worst ratio"
        return None

    return check


def _prefix_check(k: int) -> Callable[[Outcome], Optional[str]]:
    def check(o: Outcome) -> Optional[str]:
        report = o.value
        if len(report.rows) != k * (2 * k + 1):
            return f"{len(report.rows)} rows, expected {k * (2 * k + 1)}"
        if report.passed != (max(r.ratio for r in report.rows) < Fraction(1, 6)):
            return "passed disagrees with the worst ratio"
        return None

    return check


def _c16_family(wl: Workload, rng: random.Random, workdir: Path):
    serial = 0

    def cli_job(label, ms, ns, probe=None):
        nonlocal serial
        serial += 1
        k = len(ms)
        path = _family_file(workdir, f"fam{serial}.pres", ms, ns)
        wl.add(Job(label, _c16_check(k), argv=["check-c16", "--pres", path, "--k", str(k)], probe=probe))

    # long relators (m, i*m) at k=4: the w^(2m) block makes the piece scans cubic in m
    for m, count in ((4, 10), (8, 4), (16, 1)):
        for rep in range(count):
            exact = rep == 0 and m in (4, 16)
            ns = _increasing(rng, 4, m, jitter=not exact)
            probe = f"c16 (m,i*m) m={m} k=4" if exact else None
            cli_job(f"check-c16 (m,i*m) m={m} k=4", [m] * 4, ns, probe)
    # many short relators (1, i): k(2k+1) piece pairs
    for k, count in ((2, 22), (4, 14), (8, 10), (16, 6), (24, 2), (32, 1)):
        for rep in range(count):
            exact = rep == 0 and k in (4, 8, 16)
            ns = list(range(1, k + 1)) if exact else _increasing(rng, k, 2, jitter=True)
            probe = f"c16 (1,i) k={k}" if exact else None
            cli_job(f"check-c16 (1,i) k={k}", [1] * k, ns, probe)
    # growing prefix: k = 1..K in turn on one shared family presentation
    for group in range(2):
        K = 16
        ns = _increasing(rng, K, 2, jitter=True)
        key = f"prefix{group}"

        def make(ns=ns):
            return family_presentation(SeqPair.from_lists([1] * len(ns), ns))

        for k in range(1, K + 1):

            def call(state, k=k, key=key, make=make):
                if key not in state:
                    state[key] = make()
                return check_small_cancellation(state[key], k)

            wl.add(Job(f"prefix check k={k}", _prefix_check(k), call=call, group=key))


# ---------------------------------------------------------------------------
# cl-search
# ---------------------------------------------------------------------------


_HALT = re.compile(r"^HALT after (\d+) candidates$", re.M)
_EXHAUSTED = re.compile(r"^BUDGET_EXHAUSTED after (\d+) candidates$", re.M)


class _WitnessBook:
    """First certificate seen per search; other worker counts must agree."""

    def __init__(self):
        self.seen: dict[tuple, str] = {}

    def agree(self, key: tuple, text: str) -> bool:
        return self.seen.setdefault(key, text) == text


def _names(rng: random.Random, count: int) -> list[str]:
    pool = list("abcdefghjkmnpqruvwxyz")
    rng.shuffle(pool)
    return sorted(pool[:count])


def _search_check(pres_text, word, power, q_count, budget, key, book, halts):
    def check(o: Outcome) -> Optional[str]:
        if not halts:
            found = _EXHAUSTED.search(o.err)
            if o.code != 1 or o.out or not found:
                return f"expected BUDGET_EXHAUSTED, got exit {o.code}"
            if int(found.group(1)) != budget:
                return f"exhausted after {found.group(1)} candidates, budget {budget}"
            return None
        if o.code != 0 or not _HALT.search(o.err):
            return f"expected HALT, got exit {o.code}"
        pres = parse_presentation(pres_text)
        cert = parse_certificate(o.out, pres.alphabet)
        if print_word(cert.target) != word or cert.power != power:
            return "certificate target or power differs from the query"
        if cert.commutator_count() != q_count:
            return f"certificate has {cert.commutator_count()} commutators, asked {q_count}"
        if not verify_certificate(cert, pres).ok:
            return "certificate does not verify"
        if not book.agree(key, o.out):
            return "witness differs between worker counts"
        return None

    return check


def _random_reduced(rng: random.Random, gens: int, length: int) -> list[tuple[int, int]]:
    runs: list[tuple[int, int]] = []
    while len(runs) < length:
        letter = (rng.randrange(gens), rng.choice((1, -1)))
        if runs and runs[-1][0] == letter[0] and runs[-1][1] != letter[1]:
            continue
        runs.append(letter)
    return runs


def _cl_search(wl: Workload, rng: random.Random, workdir: Path):
    # The search instances come from one fixed catalogue: a search's cost is
    # the witness's place in the enumeration order, so random instances would
    # make each seed cost differently. The seed picks generator names (sorted,
    # so the order is kept) and the job order.
    catalogue = random.Random("cl-search catalogue")
    book = _WitnessBook()
    serial = 0

    def job(label, pres_text, word, power, q, *, max_len=2, relfac=0, budget,
            halts, workers=1, q_count, probe=None):
        nonlocal serial
        serial += 1
        path = _write(workdir, f"search{serial}.pres", pres_text)
        argv = ["cl-search", "--pres", path, "--word", word, "--power", str(power),
                "--q", q, "--max-len", str(max_len), "--max-relfac", str(relfac),
                "--budget", str(budget), "--workers", str(workers)]
        key = (pres_text, word, power, q, max_len, relfac)
        check = _search_check(pres_text, word, power, q_count, budget, key, book, halts)
        wl.add(Job(label, check, argv=argv, probe=probe))

    two = _names(rng, 2)
    three = _names(rng, 3)
    free2 = f"gens: {' '.join(two)}\n"
    free3 = f"gens: {' '.join(three)}\n"
    a, b = two
    comm_ab = f"{a} {b} {a}^-1 {b}^-1"
    a3, b3 = three[0], three[1]
    comm3 = f"{a3} {b3} {a3}^-1 {b3}^-1"

    # HALT with known witnesses, at 1 and 2 workers
    for workers in (1, 2):
        for _ in range(4):
            job(f"cl-search [a,b]^2 halt w={workers}", free2, comm_ab, 2, "1",
                budget=200000, halts=True, workers=workers, q_count=2)
        job(f"cl-search [a,b]^2 free3 halt w={workers}", free3, comm3, 2, "1",
            budget=200000, halts=True, workers=workers, q_count=2)
    # single commutators of random short words: halt within max-len 2
    alpha2, alpha3 = Alphabet(two), Alphabet(three)
    for i in range(48):
        alphabet, text = (alpha2, free2) if i % 2 else (alpha3, free3)
        lx, ly = ((1, 1), (1, 2), (2, 1), (2, 2))[i // 2 % 4]
        while True:
            x = alphabet.word(_random_reduced(catalogue, len(alphabet), lx))
            y = alphabet.word(_random_reduced(catalogue, len(alphabet), ly))
            target = commutator(x, y)
            if target:
                break
        workers = 2 if i % 3 == 0 else 1
        job(f"cl-search [x,y] halt w={workers}", text, print_word(target), 1, "1",
            budget=200000, halts=True, workers=workers, q_count=1)
    # fixed-budget exhaustion
    for workers in (1, 2):
        job(f"cl-search [a,b]^3 budget 10000 w={workers}", free2, comm_ab, 3, "1",
            budget=10000, halts=False, workers=workers, q_count=3,
            probe=f"cl-search [a,b]^3 exhausted, 10000 candidates, {workers} worker(s)")
    for _ in range(3):
        job("cl-search [a,b]^3 budget 3000", free2, comm_ab, 3, "1",
            budget=3000, halts=False, q_count=3)
    for _ in range(5):
        job("cl-search a^2b^2 budget 3000", free2, f"{a}^2 {b}^2", 1, "2",
            budget=3000, halts=False, q_count=2)
    # relator-factor searches over a one-relator presentation
    rel = print_word(commutator(alpha2.gen(a), alpha2.gen(b)) * alpha2.gen(a))
    one_rel = f"gens: {a} {b}\nrel: {rel}\n"
    rel_word = alpha2.word(parse_presentation(one_rel).relator(1).runs)
    for i in range(36):
        relfac = 1 + i % 2
        conj = alpha2.word(_random_reduced(catalogue, 2, i // 2 % (3 if relfac == 1 else 2)))
        sign = catalogue.choice((1, -1))
        word = rel_word.conjugate(conj) if sign == 1 else rel_word.inverse().conjugate(conj)
        if relfac == 2:
            word = word * rel_word.conjugate(alpha2.word(_random_reduced(catalogue, 2, 1)))
        if not word:
            word = rel_word
        job(f"cl-search relfac={relfac}", one_rel, print_word(word), 1, "0",
            max_len=2 if relfac == 1 else 1, relfac=relfac, budget=200000,
            halts=True, q_count=0)


# ---------------------------------------------------------------------------
# rc-report
# ---------------------------------------------------------------------------


def _set_members(spec: str, depth: int) -> set[int]:
    if spec == "evens":
        return {i for i in range(1, depth + 1) if i % 2 == 0}
    if spec == "odds":
        return {i for i in range(1, depth + 1) if i % 2 == 1}
    if spec == "all":
        return set(range(1, depth + 1))
    return {int(x) for x in spec[len("list:"):].split(",")}


def _decimal(value: Fraction, digits: int = 40) -> str:
    whole, rem = divmod(value.numerator, value.denominator)
    return f"{whole}.{rem * 10 ** digits // value.denominator:0{digits}d}"


def _rc_check(kind: str, spec: str, depth: int) -> Callable[[Outcome], Optional[str]]:
    def check(o: Outcome) -> Optional[str]:
        members = _set_members(spec, depth)
        rows = _lines(o.out)
        if o.code != 0 or len(rows) != depth:
            return f"{len(rows)} rows with exit {o.code}, expected {depth}"
        running = Fraction(0)
        prev = None
        for i, row in enumerate(rows, start=1):
            cols = row.split("\t")
            if len(cols) != 5 or int(cols[0]) != i:
                return f"row {i} is malformed"
            m, n = int(cols[1]), int(cols[2])
            value = Fraction(m, n)
            if cols[4] != f"{m}/{n}" or cols[3] != _decimal(value):
                return f"row {i} columns disagree"
            if i not in members:
                running += Fraction(1, 2 ** i)
            if kind == "specker":
                if value != running:
                    return f"row {i} is not the partial sum"
            elif value <= running:
                return f"row {i} value {value} is not above the partial sum"
            if kind == "monotone" and prev is not None:
                pm, pn = prev
                if n <= pn or value > Fraction(pm, pn):
                    return f"row {i} breaks monotonicity"
            prev = (m, n)
        return None

    return check


def _report_check(pairs: list[tuple[int, int]]) -> Callable[[Outcome], Optional[str]]:
    def check(o: Outcome) -> Optional[str]:
        lines = _lines(o.out)
        rows = [x.split("\t") for x in lines[1:] if x[:1].isdigit()]
        if o.code != 0 or len(rows) != len(pairs):
            return f"{len(rows)} rows with exit {o.code}, expected {len(pairs)}"
        for (m, n), row in zip(pairs, rows):
            if (int(row[1]), int(row[2])) != (m, n) or Fraction(row[3]) <= 0:
                return f"row {row[0]} does not match its pair"
        trend = [x.split("\t") for x in lines if x.startswith("trend\t")]
        if not trend or Fraction(trend[0][3]) != Fraction(*pairs[-1]):
            return "trend is not the last pair's value"
        return None

    return check


def _random_expr(rng: random.Random, size: int) -> tuple[str, Fraction, Fraction]:
    """Expression text with its bound without and with the half rule."""
    names = "ghkpq"
    if size <= 1:
        pick = rng.randrange(3)
        if pick == 0:
            x, y = rng.sample(names, 2)
            return f"comm({x},{y})", Fraction(1, 2), Fraction(1, 2)
        if pick == 1:
            b = Fraction(rng.randint(0, 9), rng.randint(1, 6))
            return f"atom({rng.choice(names)}, {b})", b, b
        return f"rel({rng.choice(names)})", Fraction(0), None
    shape = rng.randrange(3)
    if shape == 0:
        text, plain, half = _random_expr(rng, size - 1)
        e = rng.choice((-3, -2, 2, 3, 4))
        half = Fraction(0) if half is None else half
        return f"pow({text}, {e})", abs(e) * plain, abs(e) * half
    if shape == 1:
        text, plain, half = _random_expr(rng, size - 1)
        return f"inv({text})", plain, Fraction(0) if half is None else half
    parts = [_random_expr(rng, max(1, (size - 1) // 2)) for _ in range(rng.randint(2, 3))]
    plain = sum((p for _, p, _ in parts), Fraction(0)) + Fraction(len(parts) - 1, 2)
    kept = [h for _, _, h in parts if h is not None]
    half = sum(kept, Fraction(0)) + Fraction(len(kept) - 1, 2) if kept else Fraction(0)
    return "prod(" + ", ".join(t for t, _, _ in parts) + ")", plain, half


def _derive_check(expected: Fraction) -> Callable[[Outcome], Optional[str]]:
    def check(o: Outcome) -> Optional[str]:
        lines = _lines(o.out)
        if o.code != 0 or not lines or not lines[-1].startswith("bound\t"):
            return f"no bound line, exit {o.code}"
        got = Fraction(lines[-1].split("\t")[1])
        root = Fraction(lines[0].split(": ", 1)[1].split("  [")[0])
        if got != expected or root != expected:
            return f"bound {got}, expected {expected}"
        return None

    return check


def _family_check(pres_path: str, cert_path: str, m: int, n: int):
    def check(o: Outcome) -> Optional[str]:
        lines = _lines(o.out)
        if o.code != 0 or "certificate\tverified" not in lines:
            return f"certificate not verified, exit {o.code}"
        bound = [x.split("\t") for x in lines if x.startswith("bound\t")]
        # the family tree: three commutators, (2m) * 1/2, product of 4 counted factors
        expected = (Fraction(3, 2) + m + Fraction(3, 2)) / n
        if not bound or Fraction(bound[0][1]) != expected:
            return f"bound differs from {expected}"
        pres = parse_presentation(Path(pres_path).read_text(encoding="utf-8"))
        cert = parse_certificate(Path(cert_path).read_text(encoding="utf-8"), pres.alphabet)
        if not verify_certificate(cert, pres).ok:
            return "emitted certificate does not verify"
        return None

    return check


def _random_set(rng: random.Random, depth: int) -> str:
    members = sorted(rng.sample(range(1, depth + 1), depth // 3))
    return "list:" + ",".join(map(str, members))


def _rc_report(wl: Workload, rng: random.Random, workdir: Path):
    def rc_job(kind, spec, depth, probe=None):
        argv = ["rc", kind, "--set", spec, "--depth", str(depth)]
        label = f"rc {kind} {spec.split(':')[0]} d={depth}"
        wl.add(Job(label, _rc_check(kind, spec, depth), argv=argv, probe=probe, rc_rows=depth))

    for depth in (100, 300, 600):
        rc_job("monotone", "evens", depth, probe=f"rc monotone evens d={depth}")
    # every (kind, depth) cycles through the same sets, so seeds cost alike
    sets = ("evens", "odds", "all", "list")
    for start, kind in enumerate(("specker", "cut", "monotone")):
        for depth, count in ((25, 8), (50, 4), (100, 4), (200, 1)):
            for rep in range(count):
                spec = sets[(start + rep) % len(sets)]
                rc_job(kind, _random_set(rng, depth) if spec == "list" else spec, depth)

    for k, count in ((8, 6), (16, 6), (32, 3)):
        for rep in range(count):
            spec = ("evens", "odds", "list")[rep % 3]
            if spec == "list":
                oracle = oracle_from_list(_set_members(_random_set(rng, k), k))
            else:
                oracle = EVEN_NUMBERS if spec == "evens" else ODD_NUMBERS
            mono = cut_to_monotone(specker_cut(oracle))
            pairs = [mono.pair(i) for i in range(1, k + 1)]
            argv = ["report", "--m", ",".join(str(m) for m, _ in pairs),
                    "--n", ",".join(str(n) for _, n in pairs), "--k", str(k)]
            wl.add(Job(f"report k={k}", _report_check(pairs), argv=argv))

    for i in range(40):
        text, plain, half = _random_expr(rng, rng.randint(4, 9))
        argv = ["bound", "derive", "--expr", text]
        if i % 2:
            argv.append("--half-rule")
        wl.add(Job("bound derive", _derive_check(half if i % 2 else plain), argv=argv))

    K = 6
    ms = [1] * K
    ns = sorted(rng.sample(range(1, 40), K))
    pres_path = _family_file(workdir, "bound-family.pres", ms, ns)
    for rep in range(3):
        for index in range(1, K + 1):
            m, n = ms[index - 1], ns[index - 1]
            cert_path = str(workdir / f"family-{rep}-{index}.cert")
            argv = ["bound", "family", "--m", str(m), "--n", str(n), "--index", str(index),
                    "--pres", pres_path, "--emit-certificate", cert_path]
            wl.add(Job(f"bound family index={index}", _family_check(pres_path, cert_path, m, n), argv=argv))


# ---------------------------------------------------------------------------
# diagrams
# ---------------------------------------------------------------------------


def _surface(rng: random.Random, g: int, boundary: int = 0):
    """A genus-g one-polygon surface ``prod [x_i^e, y_i^f]`` and its
    presentation text; ``boundary`` adds one unpaired side ``t^boundary``."""
    names = [f"{p}{i}" for i in range(1, g + 1) for p in ("x", "y")]
    if boundary:
        names.append("t")
    alphabet = Alphabet(names)
    labels = {}
    pairs = []
    for i in range(g):
        e, f = rng.randint(2, 3), rng.randint(2, 3)
        x, y = alphabet.gen(f"x{i + 1}", e), alphabet.gen(f"y{i + 1}", f)
        base = 4 * i
        labels.update({base + 1: x, base + 2: y, base + 3: x.inverse(), base + 4: y.inverse()})
        pairs += [(base + 1, base + 3), (base + 2, base + 4)]
    if boundary:
        labels[4 * g + 1] = alphabet.gen("t", boundary)
    diag = SurfaceDiagram.from_data(labels, pairs, [(1, 1, sorted(labels), None)])
    word = diag.boundary_word(1)
    pres_text = f"gens: {' '.join(names)}\nrel: {print_word(CyclicWord.of(word).as_word())}\n"
    return diag, pres_text


def _verify_check(kind: str, chi: int, bound: Optional[Fraction] = None):
    def check(o: Outcome) -> Optional[str]:
        lines = _lines(o.out)
        if o.code != 0 or not lines:
            return f"exit {o.code}"
        if kind == "verify":
            want = f"valid, chi={chi}, total_curvature={chi}"
            return None if lines == [want] else f"expected {want!r}"
        if kind == "chi":
            want = [f"chi\t{chi}", f"chi_minus\t{min(chi, 0)}"]
            return None if lines == want else f"expected chi {chi}"
        if kind == "bound":
            cols = lines[0].split("\t")
            return None if Fraction(cols[1]) == bound else f"bound {cols[1]}, expected {bound}"
        values = dict(x.split("\t", 1) for x in lines if x.startswith(("total_curvature", "chi")))
        if Fraction(values.get("total_curvature", "nan")) != chi or values.get("chi") != str(chi):
            return "Gauss-Bonnet or chi fails"
        return None

    return check


_CLAIMS = ("negative_contact", "segment_weight", "disk_curvature", "degree_bound")


def _claims_check(o: Outcome) -> Optional[str]:
    verdicts = {}
    for line in _lines(o.out):
        name, _, verdict = line.partition("\t")
        if name in _CLAIMS:
            verdicts[name] = verdict
    if set(verdicts) != set(_CLAIMS):
        return "not all four claims printed"
    all_pass = all(v == "pass" for v in verdicts.values())
    if o.code != (0 if all_pass else 1):
        return f"exit {o.code} disagrees with the claim verdicts"
    return None


def _contact_union(rng: random.Random, workdir: Path, name: str, parts: int) -> tuple[str, str]:
    """Disjoint union of contact diagrams, one per family relator 1..parts,
    at true exponents: each positive disk is glued to its mirror."""
    ns = sorted(rng.sample(range(1, 12), parts))
    ms = [1] * parts
    pres = family_presentation(SeqPair.from_lists(ms, ns))
    alphabet = family_alphabet()
    labels, pairs, disks = {}, [], []
    for index in range(1, parts + 1):
        m, n = ms[index - 1], ns[index - 1]
        runs = pres.relator(index).runs  # canonical rotation starts at t^n
        cut = (1, 1 + 12 * m)
        pieces = [runs[: cut[0]], runs[cut[0]: cut[1]], runs[cut[1]:]]
        words = [alphabet.word(p) for p in pieces]
        base = max(labels, default=0)
        for j, w in enumerate(words):
            labels[base + 1 + j] = w
            labels[base + 6 - j] = w.inverse()
            pairs.append((base + 1 + j, base + 6 - j))
        w_end = n + 12 * m * index
        total = sum(w.letter_length() for w in words)
        markers = Markers((0, n), (n, w_end), (w_end, total))
        disks.append((1, index, [base + 1, base + 2, base + 3], markers))
        disks.append((-1, index, [base + 4, base + 5, base + 6], None))
    diag = SurfaceDiagram.from_data(labels, pairs, disks)
    vkd = _write(workdir, f"{name}.vkd", print_diagram(diag))
    pres_path = _write(workdir, f"{name}.pres", print_presentation(pres, k=parts))
    return vkd, pres_path


def _roundtrip_check(original: SurfaceDiagram, pres):
    def check(o: Outcome) -> Optional[str]:
        result = o.value
        if len(result.darts) != len(original.darts):
            return f"{len(result.darts)} darts after normalising, expected {len(original.darts)}"
        if not original.validate(pres).ok or not result.validate(pres).ok:
            return "round trip does not validate"
        before = (euler_characteristic(original), chi_minus(original), total_curvature(original))
        after = (euler_characteristic(result), chi_minus(result), total_curvature(result))
        return None if before == after else f"invariants {after} differ from {before}"

    return check


def _diagrams(wl: Workload, rng: random.Random, workdir: Path):
    serial = 0

    def surface_files(g, boundary=0):
        nonlocal serial
        serial += 1
        diag, pres_text = _surface(rng, g, boundary)
        pres = _write(workdir, f"surface{serial}.pres", pres_text)
        vkd = _write(workdir, f"surface{serial}.vkd", print_diagram(diag))
        return diag, pres_text, pres, vkd

    _, _, pres, vkd = surface_files(800)
    wl.add(Job("diagram verify g=800", _verify_check("verify", 2 - 2 * 800),
               argv=["diagram", "verify", vkd, "--pres", pres], probe="diagram verify genus 800"))
    for g, count in ((400, 1), (200, 1), (100, 2), (50, 2), (20, 3), (10, 3), (5, 4)):
        for rep in range(count):
            _, _, pres, vkd = surface_files(g)
            for kind in ("verify", "chi", "curvature"):
                wl.add(Job(f"diagram {kind} g={g}", _verify_check(kind, 2 - 2 * g),
                           argv=["diagram", kind, vkd, "--pres", pres]))
            degree = rng.randint(1, 4)
            _, _, bpres, bvkd = surface_files(g, boundary=degree)
            wl.add(Job(f"diagram bound g={g}", _verify_check("bound", 1 - 2 * g, Fraction(2 * g - 1, 2 * degree)),
                       argv=["diagram", "bound", bvkd, "--pres", bpres]))

    # subdivided surfaces: CLI reads, and library subdivide -> normalized round trips
    for g, cuts, count in ((5, 6, 3), (10, 8, 3), (20, 8, 2), (40, 10, 2)):
        for _ in range(count):
            diag, pres_text, pres_path, vkd = surface_files(g)
            steps = []
            sub = diag
            for _ in range(cuts):
                long = [d for d in sorted(sub.darts) if sub.darts[d].label.letter_length() >= 2]
                dart = rng.choice(long)
                offset = rng.randint(1, sub.darts[dart].label.letter_length() - 1)
                steps.append((dart, offset))
                sub = subdivide_dart(sub, dart, offset)
            sub_vkd = _write(workdir, f"surface{serial}-sub.vkd", print_diagram(sub))
            wl.add(Job(f"diagram verify subdivided g={g}", _verify_check("verify", 2 - 2 * g),
                       argv=["diagram", "verify", sub_vkd, "--pres", pres_path]))
            text = Path(vkd).read_text(encoding="utf-8")
            pres = parse_presentation(pres_text)
            original = parse_diagram(text, pres.alphabet)

            def call(state, text=text, pres_text=pres_text, steps=steps):
                p = parse_presentation(pres_text)
                d = parse_diagram(text, p.alphabet)
                for dart, offset in steps:
                    d = subdivide_dart(d, dart, offset)
                return normalized(d, p)

            wl.add(Job(f"normalized round trip g={g} cuts={cuts}", _roundtrip_check(original, pres), call=call))

    # contact unions of family diagrams at true exponents
    for parts, count in ((1, 6), (2, 6), (4, 4), (6, 2)):
        for rep in range(count):
            serial += 1
            vkd, pres_path = _contact_union(rng, workdir, f"contact{serial}", parts)
            wl.add(Job(f"diagram claims union={parts}", _claims_check,
                       argv=["diagram", "claims", vkd, "--pres", pres_path]))
            wl.add(Job(f"diagram curvature union={parts}", _verify_check("curvature", 2 * parts),
                       argv=["diagram", "curvature", vkd, "--pres", pres_path]))
