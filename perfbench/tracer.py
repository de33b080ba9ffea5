"""Run-time span tracing of sclforge's layers, installed from outside.

``Tracer.install()`` replaces each listed function at every module that
imported it, and each listed method on its class, with a wrapper that
records a span: name, start, end, parent span and job id. Spans stay in
memory in flat arrays and are written out by ``write()``. ``restore()`` puts
every original back. Self time is a span's duration minus the part of it
that its child spans cover (``self_times``).

The hottest leaf calls (``LEAVES``: word multiplication and inversion and
oracle queries, millions per pass) are not kept one by one: their count and
time are summed per name, and their time is added to the covered time of
the span that called them, which keeps self times exact.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from array import array
from collections import Counter
from time import perf_counter

# span name -> (module, attribute); "Class.method" patches a method
FUNCTIONS = {
    "cli.main": ("sclforge.cli", "main"),
    "presentations.parse_presentation": ("sclforge.presentations", "parse_presentation"),
    "presentations.family_relator": ("sclforge.presentations", "family_relator"),
    "presentations.check_small_cancellation": ("sclforge.presentations", "check_small_cancellation"),
    "diagrams.parse_diagram": ("sclforge.diagrams", "parse_diagram"),
    "diagrams.normalized": ("sclforge.diagrams", "normalized"),
    "diagrams.subdivide_dart": ("sclforge.diagrams", "subdivide_dart"),
    "diagrams.claims_check": ("sclforge.diagrams", "claims_check"),
    "diagrams.curvature_report": ("sclforge.diagrams", "curvature_report"),
    "diagrams.contact_weight": ("sclforge.diagrams", "contact_weight"),
    "words.max_common_piece": ("sclforge.words", "max_common_piece"),
    "rc.specker_partial": ("sclforge.rc_numbers", "specker_partial"),
    "rc.decimal_digits": ("sclforge.rc_numbers", "decimal_digits"),
    "bounds.cl_search": ("sclforge.bounds", "cl_search"),
    "bounds.abelianization_warning": ("sclforge.bounds", "abelianization_warning"),
    "bounds.verify_certificate": ("sclforge.bounds", "verify_certificate"),
    "bounds.derive_bound": ("sclforge.bounds", "derive_bound"),
    "bounds.scl_report": ("sclforge.bounds", "scl_report"),
    "words.mul": ("sclforge.words", "PowerWord.__mul__"),
    "words.inverse": ("sclforge.words", "PowerWord.inverse"),
    "words.cyclic_reduce": ("sclforge.words", "PowerWord.cyclic_reduce"),
    "words.cyclic_inverse": ("sclforge.words", "CyclicWord.inverse"),
    "presentations.relator": ("sclforge.presentations", "Presentation.relator"),
    "rc.pair": ("sclforge.presentations", "SeqPair.pair"),
    "rc.oracle_query": ("sclforge.rc_numbers", "MembershipOracle.__contains__"),
    "bounds.product": ("sclforge.bounds", "CommutatorCertificate.product"),
    "diagrams.validate": ("sclforge.diagrams", "SurfaceDiagram.validate"),
}

# leaf calls summed per name rather than stored; they call no other listed name
LEAVES = frozenset({"words.mul", "words.inverse", "rc.oracle_query"})


def self_times(starts, ends, parents, covered=None) -> list[float]:
    """Duration of each span minus the union of its children's intervals.

    Spans are indexed in start order within a thread, and a child always
    shares its parent's thread, so each parent's children arrive sorted by
    start; overlapping or out-of-bounds children are clipped. ``covered``
    holds time already known to be covered, such as summed leaf calls.
    """
    n = len(starts)
    covered = [0.0] * n if covered is None else list(covered)
    reach = {}  # parent -> end of the covered prefix of its interval
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], reach.get(p, starts[p]))
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


class Tracer:
    def __init__(self, modules=()):
        self.extra_modules = list(modules)  # non-sclforge modules to patch too
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.span_job = array("i")
        self.leaf_covered = array("d")  # per span: time of leaf calls under it
        self.leaf_calls: Counter = Counter()
        self.leaf_seconds: Counter = Counter()
        self.counts: Counter = Counter()
        self.job = -1
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        if name in LEAVES:
            return self._wrap_leaf(name, fn)
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        tracer = self
        local = self._local
        lock = self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with lock:
                idx = len(tracer.starts)
                tracer.span_name.append(nid)
                tracer.parents.append(stack[-1] if stack else -1)
                tracer.span_job.append(tracer.job)
                tracer.leaf_covered.append(0.0)
                tracer.ends.append(0.0)
                tracer.starts.append(perf_counter())
            stack.append(idx)
            try:
                after = hook(tracer.counts, *args) if hook else None
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = perf_counter()
                stack.pop()
            if after:
                after(tracer.counts, result)
            return result

        return wrapper

    def _wrap_leaf(self, name: str, fn):
        tracer = self
        local = self._local
        lock = self._lock
        calls, seconds, covered = self.leaf_calls, self.leaf_seconds, self.leaf_covered

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack = getattr(local, "stack", None)
                with lock:
                    calls[name] += 1
                    seconds[name] += dt
                    if stack:
                        covered[stack[-1]] += dt

        return wrapper

    # -- installing -----------------------------------------------------------

    def install(self):
        """Patch every listed function at each import site, and each method."""
        modules = [m for n, m in list(sys.modules.items()) if n == "sclforge" or n.startswith("sclforge.")]
        modules += self.extra_modules
        for name, (module_name, attr) in FUNCTIONS.items():
            module = importlib.import_module(module_name)
            hook = _HOOKS.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, hook))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, hook)
            for site in modules:
                for key, value in list(vars(site).items()):
                    if value is original:
                        self._patches.append((site, key, original))
                        setattr(site, key, wrapper)

    def restore(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)
        self.enabled = False

    # -- results --------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, seconds outside same-name spans, self seconds."""
        selfs = self_times(self.starts, self.ends, self.parents, self.leaf_covered)
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for name, calls in self.leaf_calls.items():
            seconds = self.leaf_seconds[name]
            out[name] = {"calls": calls, "s": seconds, "self_s": seconds}
        names, parents = self.span_name, self.parents
        for i in range(len(names)):
            row = out[self.names[names[i]]]
            row["calls"] += 1
            row["self_s"] += selfs[i]
            p = parents[i]
            if p < 0 or names[p] != names[i]:
                row["s"] += self.ends[i] - self.starts[i]
        return out

    def calls_within(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        want, above = self.name_ids.get(name), self.name_ids.get(ancestor)
        count = 0
        for i in range(len(self.span_name)):
            if self.span_name[i] != want:
                continue
            p = self.parents[i]
            while p >= 0 and self.span_name[p] != above:
                p = self.parents[p]
            count += p >= 0
        return count

    def write(self, path):
        """Write spans as TSV: name, start and end in microseconds, parent,
        job, and the leaf-call time inside the span; then the leaf totals."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tname\tstart_us\tend_us\tparent\tjob\tleaf_us\n")
            for i in range(len(self.starts)):
                handle.write(
                    f"{i}\t{self.names[self.span_name[i]]}\t{(self.starts[i] - t0) * 1e6:.1f}\t"
                    f"{(self.ends[i] - t0) * 1e6:.1f}\t{self.parents[i]}\t{self.span_job[i]}\t"
                    f"{self.leaf_covered[i] * 1e6:.1f}\n"
                )
            for name, calls in sorted(self.leaf_calls.items()):
                handle.write(f"# leaf\t{name}\tcalls={calls}\tseconds={self.leaf_seconds[name]:.6f}\n")


# -- counters read from arguments and results at the boundary -----------------


def _relator_hook(counts, pres, i, *rest):
    # a hit is a read of an index the prefix cache already holds
    counts["presentations.relator.hits"] += i <= len(pres._cache)
    return None


def _pieces_hook(counts, *args):
    def after(counts, report):
        counts["presentations.piece_pairs"] += len(report.rows)

    return after


def _search_hook(counts, *args):
    def after(counts, result):
        counts["bounds.candidates"] += result.steps
        if result.witness_index is not None:
            counts["bounds.wasted_candidates"] += result.steps - (result.witness_index + 1)

    return after


_HOOKS = {
    "presentations.relator": _relator_hook,
    "presentations.check_small_cancellation": _pieces_hook,
    "bounds.cl_search": _search_hook,
}
