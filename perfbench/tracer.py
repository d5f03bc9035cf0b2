"""Span tracing for the traced benchmark run, from outside the package.

``Tracer.install`` replaces the module-level names through which each layer
is reached with wrappers that record a span (name, start, end, parent span,
job id) in memory.  Nothing under ``src/`` is changed.  A name that is
missing (removed or renamed by a refactor) is listed in ``missing``; every
metric that depends on it is then reported as absent instead of failing.

``layer_metrics`` turns the spans of one repetition into the per-layer
metrics; self times are a span's duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name) for every name a layer is reached through;
# the pipelines are only those the workloads call
TARGETS = (
    ("soficrank.cli", "sanov_sequence", "groups.quotients"),
    ("soficrank.cli", "grid_sequence", "groups.quotients"),
    ("soficrank.cli", "regular_sequence", "groups.quotients"),
    ("soficrank.cli", "betti_approximants", "invariants"),
    ("soficrank.cli", "euler_identity_check", "invariants"),
    ("soficrank.cli", "finite_group_exact_betti", "invariants"),
    ("soficrank.invariants", "linearize", "linearize"),
    ("soficrank.invariants", "rank_over_rationals", "rank.certify"),
    ("soficrank.rank", "rank_mod_p", "rank.mod_p"),
    ("soficrank.invariants", "rank_dense_bareiss", "rank.bareiss"),
    ("soficrank.rank", "rank_dense_bareiss", "rank.bareiss"),
)
# FiniteTable.from_text is a classmethod, reached as cli.FiniteTable
TABLE_TARGET = ("soficrank.cli", "FiniteTable.from_text", "groups.table")
# counted, not spanned: every certified-rank request, cache hit or miss
REQUEST_TARGET = ("soficrank.invariants", "_certified_rank", "rank_requests")

# per-layer metrics whose value must repeat exactly at a fixed seed
COUNT_METRICS = (
    "linearize.calls", "linearize.nnz_out", "linearize.useful_ratio",
    "rank.mod_p.calls", "rank.mod_p.pivots", "rank.mod_p.initial_nnz",
    "rank.mod_p.peak_nnz", "rank.mod_p.fill_ratio",
    "rank.certify.calls", "rank.certify.mod_p_per_call",
    "rank.certify.uncertified", "rank.certify.dense_fallbacks",
    "rank.bareiss.calls", "invariants.cache_hit_ratio",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.rank_requests = None  # stays None when the name is missing
        self.missing = []

    def wrap(self, fn, name, extra=None):
        """Return fn wrapped in a span; ``extra(args, result)`` adds fields."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = {"name": name, "job": self.job,
                   "parent": self.stack[-1] if self.stack else None}
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec["start"] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = perf_counter()
                self.stack.pop()
            if extra is not None:
                rec.update(extra(args, result))
            return result

        return traced

    def _resolve(self, module, attr):
        try:
            obj = importlib.import_module(module)
        except ImportError:
            obj = None
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            self.missing.append("%s.%s" % (module, attr))
        return obj

    def install(self):
        for module, attr, name in TARGETS:
            fn = self._resolve(module, attr)
            if fn is None:
                continue
            if name == "rank.mod_p":
                fn, extra = self._with_stats(fn)
            else:
                extra = {"linearize": _linearize_extra,
                         "rank.certify": _certify_extra}.get(name)
            setattr(importlib.import_module(module), attr, self.wrap(fn, name, extra))

        module, attr, name = TABLE_TARGET
        if self._resolve(module, attr) is not None:
            cls = importlib.import_module(module).FiniteTable
            fn = cls.__dict__["from_text"].__func__
            cls.from_text = classmethod(self.wrap(fn, name))

        module, attr, _ = REQUEST_TARGET
        fn = self._resolve(module, attr)
        if fn is not None:
            self.rank_requests = 0

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.rank_requests += 1
                return fn(*args, **kwargs)

            setattr(importlib.import_module(module), attr, counted)

    def _with_stats(self, fn):
        """Pass rank_mod_p a stats dict of our own to read pivots and nnz."""
        if "stats" not in inspect.signature(fn).parameters:
            return fn, None
        last = {}

        def with_stats(M, p, stats=None):
            st = {} if stats is None else stats
            rank = fn(M, p, st)
            last.clear()
            last.update(st)
            return rank

        return with_stats, lambda args, result: dict(last)

    def dump(self):
        return {"spans": self.spans, "rank_requests": self.rank_requests,
                "missing": self.missing}


def _linearize_extra(args, result):
    f, q = args[0], args[1]
    return {"nnz": result.nnz, "key": "%d|%s" % (id(f), q.label)}


def _certify_extra(args, result):
    return {"certified": bool(result.certified)}


def layer_metrics(trace):
    """Per-layer metrics of one repetition; None marks an absent metric."""
    spans = trace["spans"]
    child_s = defaultdict(float)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        s["dur"] = s["end"] - s["start"]
        by_name[s["name"]].append(i)
        if s["parent"] is not None:
            child_s[s["parent"]] += s["dur"]

    def total(name):
        return sum(spans[i]["dur"] for i in by_name[name]) if by_name[name] else None

    def self_total(name):
        if not by_name[name]:
            return None
        return sum(spans[i]["dur"] - child_s[i] for i in by_name[name])

    def calls(name):
        return len(by_name[name]) or None

    def ratio(a, b, scale=1):
        return None if a is None or not b else scale * a / b

    def field_sum(name, key):
        vals = [spans[i].get(key) for i in by_name[name]]
        return sum(vals) if vals and None not in vals else None

    m = {
        "groups.table_s": total("groups.table"),
        "groups.quotients_s": total("groups.quotients"),
        "linearize.calls": calls("linearize"),
        "linearize.s": total("linearize"),
        "linearize.nnz_out": field_sum("linearize", "nnz"),
    }
    keys = {(spans[i]["job"], spans[i]["key"]) for i in by_name["linearize"]}
    m["linearize.useful_ratio"] = ratio(len(keys), calls("linearize"))

    mod_p = by_name["rank.mod_p"]
    m["rank.mod_p.calls"] = calls("rank.mod_p")
    m["rank.mod_p.s"] = total("rank.mod_p")
    m["rank.mod_p.pivots"] = field_sum("rank.mod_p", "pivots")
    m["rank.mod_p.us_per_pivot"] = ratio(m["rank.mod_p.s"], m["rank.mod_p.pivots"], 1e6)
    have_nnz = m["rank.mod_p.pivots"] is not None
    # largest working set of any one elimination, and the worst fill factor
    m["rank.mod_p.initial_nnz"] = max(spans[i]["initial_nnz"] for i in mod_p) if have_nnz else None
    m["rank.mod_p.peak_nnz"] = max(spans[i]["peak_nnz"] for i in mod_p) if have_nnz else None
    m["rank.mod_p.fill_ratio"] = (
        max((spans[i]["peak_nnz"] / spans[i]["initial_nnz"]
             for i in mod_p if spans[i]["initial_nnz"]), default=None) if have_nnz else None)

    certify = by_name["rank.certify"]
    m["rank.certify.calls"] = calls("rank.certify")
    m["rank.certify.s"] = total("rank.certify")
    m["rank.certify.self_s"] = self_total("rank.certify")
    certify_set = set(certify)
    m["rank.certify.mod_p_per_call"] = (
        ratio(sum(1 for i in mod_p if spans[i]["parent"] in certify_set), len(certify))
        if mod_p else None)
    m["rank.certify.uncertified"] = (
        sum(1 for i in certify if not spans[i]["certified"]) if certify else None)
    fallback_parents = {spans[i]["parent"] for i in by_name["rank.bareiss"]}
    m["rank.certify.dense_fallbacks"] = (
        sum(1 for i in certify if i in fallback_parents) if certify else None)
    m["rank.bareiss.calls"] = calls("rank.bareiss")
    m["rank.bareiss.s"] = total("rank.bareiss")

    m["invariants.s"] = total("invariants")
    m["invariants.self_s"] = self_total("invariants")
    requests = trace["rank_requests"]
    m["invariants.cache_hit_ratio"] = (
        None if m["rank.certify.calls"] is None or not requests
        else 1 - m["rank.certify.calls"] / requests)
    m["cli.write_s"] = self_total("solve") if by_name["invariants"] else None
    return m
