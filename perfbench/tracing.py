"""In-memory spans around calls into ``amcmc`` modules.

A traced round replaces selected module attributes with wrappers that
record one span per call: an id, the id of the enclosing span on the same
thread, a name (``<module>.<function>``), start and end on
``time.monotonic`` and a small dict of counts taken at the call boundary.
The wrappers call the original function with the same arguments and
return its result unchanged, so a traced round consumes the same variates
and writes the same artifacts as an untraced one.  Spans stay in memory
until :meth:`Tracer.dump` writes them out at the end of the round.

:func:`layer_samples` turns the spans of one round into the per-layer
samples that ``run.py`` pools into medians.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

_now = time.monotonic


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, name, t0, t1, counts]
        self.notes: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, counts: dict | None) -> list:
        stack = self._stack()
        with self._lock:
            span = [len(self.spans), stack[-1] if stack else -1, name, 0.0, 0.0, counts]
            self.spans.append(span)
        stack.append(span[0])
        span[3] = _now()
        return span

    def _close(self, span: list) -> None:
        span[4] = _now()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        """Span around a block in the benchmark's own code."""
        rec = self._open(name, None)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, module, attr: str, name: str, counts=None) -> None:
        """Replace ``module.attr`` by a recording wrapper.

        ``counts(args, kwargs, result)`` returns the counts to store with the
        span; it runs after the call and outside the timed interval.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            rec = self._open(name, None)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(rec)
            if counts is not None:
                rec[5] = counts(args, kwargs, result)
            return result

        self.patch(module, attr, traced)

    def patch(self, module, attr: str, replacement) -> None:
        """Set ``module.attr`` until :meth:`restore`."""
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def merge(self, other: dict) -> None:
        """Append the spans and notes another process dumped, renumbered."""
        base = len(self.spans)
        for sid, parent, name, t0, t1, counts in other["spans"]:
            self.spans.append([sid + base, parent + base if parent >= 0 else -1, name, t0, t1, counts])
        self.notes.update(other["notes"])

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "notes": self.notes}, fh)


def file_bytes(args, kwargs, result) -> dict:
    """Counts for a CSV or manifest writer: size of the file it wrote (the
    path it returned, else its first argument)."""
    return {"bytes": os.path.getsize(result if result is not None else args[0])}


def load(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# per-layer samples from one round's spans
# ---------------------------------------------------------------------------


def _index(spans):
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s)
        children[s[1]].append(s)
    return by_name, children


def _dur(s) -> float:
    return s[4] - s[3]


def _ancestor(span, by_id, name):
    while span[1] >= 0:
        span = by_id[span[1]]
        if span[2] == name:
            return span
    return None


def _self_time(span, children) -> float:
    return _dur(span) - sum(_dur(c) for c in children[span[0]])


def layer_samples(trace: dict) -> dict[str, list[float]]:
    """Per-layer samples of one traced round, keyed by metric name."""
    spans = trace["spans"]
    by_id = {s[0]: s for s in spans}
    by_name, children = _index(spans)
    out: dict[str, list[float]] = defaultdict(list)

    def per_call(metric, name, scale):
        out[metric].extend(_dur(s) * scale for s in by_name[name])

    per_call("cli.import_s", "cli.import", 1.0)
    out["config.write_s"].append(
        sum(_dur(s) for n in ("config.write_csv", "config.write_manifest") for s in by_name[n])
    )
    out["config.bytes_written"].append(
        sum(s[5]["bytes"] for n in ("config.write_csv", "config.write_manifest") for s in by_name[n])
    )

    # logistic
    out["distributions.pg_draw_us"].extend(
        _dur(s) * 1e6 / s[5]["variates"] for s in by_name["distributions.sample_polya_gamma"]
    )
    for s in by_name["pg_logistic.gibbs_step_exact"]:
        out["pg_logistic.exact_sweep_ms"].append(_dur(s) * 1e3)
        out["pg_logistic.beta_draw_ms"].append(_self_time(s, children) * 1e3)
    for s in by_name["pg_logistic.gibbs_step_subset"]:
        chain = _ancestor(s, by_id, "pg_logistic.run_chain")
        out[f"pg_logistic.subset_sweep_ms.v{chain[5]['size']}"].append(_dur(s) * 1e3)
    per_call("pg_logistic.audit_ms", "pg_logistic._audit_tv", 1e3)

    # mixture
    per_call("mixture.exact_sweep_ms", "mixture.gibbs_step_exact", 1e3)
    per_call("mixture.approx_sweep_ms", "mixture.gibbs_step_approx", 1e3)
    per_call("mixture.latent_probs_us", "mixture.latent_class_probs", 1e6)
    per_call("mixture.alloc_approx_us", "mixture.approx_multinomial_draw", 1e6)
    per_call("distributions.multinomial_draw_us", "distributions.sample_multinomial", 1e6)
    per_call("distributions.mvn_draw_us", "distributions.sample_mvn", 1e6)
    for name in ("mixture.gibbs_step_exact", "mixture.gibbs_step_approx"):
        for s in by_name[name]:
            out["mixture.conjugate_ms"].append(_self_time(s, children) * 1e3)
    for s in by_name["mixture.gibbs_step_approx"]:
        if s[5]["burn_in"]:
            continue
        out["mixture.gaussian_cells"].append(
            sum(
                1
                for c in children[s[0]]
                if c[2] == "mixture.approx_multinomial_draw"
                and any(g[2] == "distributions.sample_mvn" for g in children[c[0]])
            )
        )

    # gp
    for s in by_name["gp_lowrank.GPSampler"]:
        role = s[5]["role"]
        out[f"gp_lowrank.factor_{role}_s"].append(_dur(s))
        out[f"gp_lowrank.mean_rank_{role}"].append(s[5]["mean_rank"])
    if by_name["gp_lowrank.GPSampler"]:
        out["gp_lowrank.full_rank_factors"].append(
            sum(s[5]["full_rank"] for s in by_name["gp_lowrank.GPSampler"])
        )
    for s in by_name["gp_lowrank.marginal_loglik"]:
        run = _ancestor(s, by_id, "gp_lowrank.GPSampler.run")
        out[f"gp_lowrank.loglik_{run[5]['role']}_us"].append(_dur(s) * 1e6)
    for s in by_name["gp_lowrank.mh_griddy_step"]:
        out["gp_lowrank.mh_step_us"].append(_self_time(s, children) * 1e6)
    per_call("gp_lowrank.pred_draw_us", "gp_lowrank.predictive_f_draw", 1e6)

    # diagnostics
    per_call("diagnostics.w1_ms", "diagnostics.w1_kernel_distance", 1e3)
    per_call("diagnostics.read_trace_s", "diagnostics.read_trace_csv", 1.0)
    per_call("diagnostics.ess_ms", "diagnostics.effective_sample_size", 1e3)
    per_call("diagnostics.geweke_ms", "diagnostics.geweke_z", 1e3)
    per_call("diagnostics.phi_max_ms", "diagnostics.phi_max", 1e3)

    # calculus
    per_call("bounds.tv_eval_us", "bounds.tv_eval", 1e6)
    per_call("bounds.l2_eval_us", "bounds.l2_eval", 1e6)
    if "bounds.variance_factor_peak_mb" in trace["notes"]:
        out["bounds.variance_factor_peak_mb"].append(trace["notes"]["bounds.variance_factor_peak_mb"])
    for s in by_name["compminimax.curve_epsilon_vs_budget"]:
        out[f"compminimax.curve_{s[5]['discrepancy']}_s"].append(_dur(s))
    per_call("finite_chain.verify_suite_s", "cli.finite_chain_checks", 1.0)
    out["finite_chain.path_steps_per_s"].extend(
        s[5]["steps"] / _dur(s) for s in by_name["finite_chain.simulate_path"]
    )
    return {k: v for k, v in out.items() if v}
