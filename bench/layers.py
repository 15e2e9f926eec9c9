"""Spans around the calls into each tiltlab module, recorded from outside.

Nothing under src/ is edited.  While a Tracer is installed, the public
entry points each module calls on another are replaced, in the namespace
of the module that calls them, by a wrapper that records a span: name,
start, end, parent id, and counts taken at the same boundary.  Counts
marked computed are derived from the call's arguments and repeat exactly
for a given seed.  A layer's self time is its span's duration minus the
part of that interval covered by its child spans.

A name missing from the checked-out package (renamed or deleted by a
later change) is skipped, and its metrics read 0.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import os
import time

import numpy as np


def _arg(bound, name):
    return bound.arguments[name]


def _count_stream(bound, result):
    return {"stream_samples": int(_arg(bound, "count"))}


def _count_rotation(bound, result):
    return {"cue.haar_matrices": 2 * int(_arg(bound, "trials"))}


def _count_reduce(bound, result):
    draws = int(_arg(bound, "bootstrap")) * int(np.size(_arg(bound, "values")))
    return {"estimator.bootstrap_draws": draws, "ess": float(result.ess), "samples": int(result.sample_count)}


def _count_em(bound, result):
    s = np.asarray(_arg(bound, "s_values"))
    terms = _arg(bound, "terms")
    if terms is None and s.size:
        terms = importlib.import_module("tiltlab.zeta_eval")._em_terms(float(np.max(np.abs(s.imag))))
    return {"zeta_eval.em_points": int(s.size), "zeta_eval.em_terms": int(s.size) * max(int(terms or 0) - 1, 0)}


def _count_output(bound, result):
    argv = _arg(bound, "argv")
    return {"cli.output_bytes": os.path.getsize(argv[argv.index("--out") + 1])}


def _count_cauchy(bound, result):
    return {"zeta_eval.cauchy_points": 1}


def _count_rs(bound, result):
    t = np.asarray(_arg(bound, "t_arr"), dtype=float)
    terms = int(np.floor(np.sqrt(t / (2.0 * math.pi))).sum())
    return {"zeta_eval.rs_points": int(t.size), "zeta_eval.rs_terms": terms}


def _count_rs_deriv(bound, result):
    return {"zeta_eval.rs_deriv_points": int(np.size(_arg(bound, "t_arr")))}


def _count_sieve(bound, result):
    limit = int(_arg(bound, "limit"))
    return {"zeta_lab.sieve_bytes": limit + 1 if limit >= 2 else 0}


def _count_dirichlet(bound, result):
    primes = _arg(bound, "window").primes
    return {"zeta_lab.dirichlet_terms": int(np.size(_arg(bound, "t_arr"))) * int(len(primes))}


def _count_quadrature(bound, result):
    t_lo, t_hi, step = (float(_arg(bound, k)) for k in ("t_lo", "t_hi", "step"))
    return {"shifts.quadrature_nodes": int(math.ceil((t_hi - t_lo) / step / 2)) * 2 + 1}


_SPECIAL = ("digamma", "digamma_diff", "log_barnes_g", "log_gamma", "polygamma", "polygamma_series_vec")

# (calling module, name bound there, span name, counts at the boundary)
ENTRY_POINTS = (
    ("cli", "tilted_moments_mc", "estimator.sample", None),
    ("cli", "rotation_invariance_check", "cue.rotation_check", _count_rotation),
    ("cli", "weighted_central_moments", "rmt_exact.moments", None),
    ("cli", "weighted_scan", "zeta_lab.scan", None),
    ("cli", "mu_alpha", "zeta_lab.mu_alpha", None),
    ("cli", "second_moment_recipe_k1", "shifts.recipe", None),
    ("cli", "second_moment_quadrature_k1", "shifts.quadrature", _count_quadrature),
    ("estimator", "log_char_poly_stream", "cue.stream", _count_stream),
    ("estimator", "reduce_weighted", "estimator.reduce", _count_reduce),
    ("zeta_lab", "reduce_weighted", "estimator.reduce", _count_reduce),
    ("rmt_exact", "exp_derivative", "partitions", None),
    ("shifts", "exp_derivative", "partitions", None),
    *(("rmt_exact", name, "special", None) for name in _SPECIAL),
    ("shifts", "digamma", "special", None),
    ("zeta_eval", "zeta_em_many", "zeta_eval.em", _count_em),
    ("shifts", "zeta_em_many", "zeta_eval.em", _count_em),
    ("zeta_eval", "_derivative_cauchy", "zeta_eval.cauchy", _count_cauchy),
    ("zeta_eval", "zeta_rs_many", "zeta_eval.rs", _count_rs),
    ("zeta_eval", "zeta_derivative_rs_many", "zeta_eval.rs_deriv", _count_rs_deriv),
    ("zeta_lab", "zeta_derivative_rs_many", "zeta_eval.rs_deriv", _count_rs_deriv),
    ("zeta_lab", "sieve_primes", "zeta_lab.sieve", _count_sieve),
    ("zeta_lab", "dirichlet_poly_many", "zeta_lab.dirichlet", _count_dirichlet),
)

# span name -> the metric that sums its self time
SPAN_TIMES = {
    "cue.stream": "cue.stream_s",
    "cue.rotation_check": "cue.rotation_check_s",
    "estimator.sample": "estimator.sample_s",
    "estimator.reduce": "estimator.reduce_s",
    "rmt_exact.moments": "rmt_exact.moments_s",
    "partitions": "partitions.s",
    "special": "special.s",
    "zeta_eval.em": "zeta_eval.em_s",
    "zeta_eval.cauchy": "zeta_eval.cauchy_s",
    "zeta_eval.rs": "zeta_eval.rs_s",
    "zeta_eval.rs_deriv": "zeta_eval.rs_deriv_s",
    "zeta_lab.sieve": "zeta_lab.sieve_s",
    "zeta_lab.dirichlet": "zeta_lab.dirichlet_s",
    "zeta_lab.scan": "zeta_lab.scan_s",
    "zeta_lab.mu_alpha": "zeta_lab.mu_alpha_s",
    "shifts.quadrature": "shifts.quadrature_s",
    "shifts.recipe": "shifts.recipe_s",
    "cli": "cli.self_s",
}
COMPUTED_COUNTS = (
    "cue.haar_matrices",
    "estimator.bootstrap_draws",
    "zeta_eval.em_points",
    "zeta_eval.em_terms",
    "zeta_eval.cauchy_points",
    "zeta_eval.rs_points",
    "zeta_eval.rs_terms",
    "zeta_eval.rs_deriv_points",
    "zeta_lab.sieve_bytes",
    "zeta_lab.dirichlet_terms",
    "shifts.quadrature_nodes",
    "cli.output_bytes",
)
# every per-layer metric: name -> (unit, better)
PER_LAYER = {
    **{name: ("s", "lower") for name in SPAN_TIMES.values()},
    **{name: ("count", "lower") for name in COMPUTED_COUNTS},
    "cue.stream_samples_per_s": ("1/s", "higher"),
    "estimator.bootstrap_draws_per_s": ("1/s", "higher"),
    "estimator.ess_ratio": ("ratio", "higher"),
    # filled by run.py from the run's untraced passes and result files
    "ess_per_s": ("1/s", "higher"),
    "stat_check_fail_share": ("ratio", "lower"),
    "trace_overhead_share": ("ratio", "lower"),
}


class Tracer:
    """In-memory span recorder; install() patches the entry points, uninstall() restores them."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self._signatures = {}
        self._next_id = 0

    def span(self, name, fn, *args, counter=None, **kwargs):
        """Call fn(*args, **kwargs) inside a span; counter(bound arguments, result) gives its counts."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
        counts = {}
        if counter is not None:
            if fn not in self._signatures:
                self._signatures[fn] = inspect.signature(fn)
            bound = self._signatures[fn].bind(*args, **kwargs)
            bound.apply_defaults()
            counts = counter(bound, result)
        self.spans.append((span_id, parent, name, start, end, counts))
        return result

    def call_main(self, main, argv):
        """tiltlab.cli.main(argv) inside the root `cli` span, counting the bytes it wrote."""
        return self.span("cli", main, argv, counter=_count_output)

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, counter=counter, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module_name, attr, name, counter in ENTRY_POINTS:
            module = importlib.import_module(f"tiltlab.{module_name}")
            fn = getattr(module, attr, None)
            if callable(fn):
                self._patched.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, counter))

    def uninstall(self):
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def take(self):
        spans, self.spans = self.spans, []
        return spans

    @staticmethod
    def dump(path, spans, **tags):
        with open(path, "a") as handle:
            for span_id, parent, name, start, end, counts in spans:
                record = {"id": span_id, "parent": parent, "name": name,
                          "start": start, "end": end, "counts": counts, **tags}
                handle.write(json.dumps(record) + "\n")


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals."""
    children = {}
    for span_id, parent, _name, start, end, _counts in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, _parent, _name, start, end, _counts in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span_id] = (end - start) - covered
    return out


def layer_metrics(spans):
    """Per-layer metrics of one traced pass (every PER_LAYER name but the overhead share)."""
    own = self_times(spans)
    times = dict.fromkeys(SPAN_TIMES.values(), 0.0)
    counts = {}
    for span_id, _parent, name, _start, _end, span_counts in spans:
        times[SPAN_TIMES[name]] += own[span_id]
        for key, value in span_counts.items():
            counts[key] = counts.get(key, 0) + value
    out = dict(times)
    for metric in COMPUTED_COUNTS:
        out[metric] = counts.get(metric, 0)
    stream_s = times["cue.stream_s"]
    reduce_s = times["estimator.reduce_s"]
    out["cue.stream_samples_per_s"] = counts.get("stream_samples", 0) / stream_s if stream_s else 0.0
    out["estimator.bootstrap_draws_per_s"] = out["estimator.bootstrap_draws"] / reduce_s if reduce_s else 0.0
    samples = counts.get("samples", 0)
    out["estimator.ess_ratio"] = counts.get("ess", 0.0) / samples if samples else 0.0
    return out
