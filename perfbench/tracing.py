"""Spans around the package's public functions, and the per-layer metrics.

The wrappers are installed from outside the package, only for traced rounds:
each public function listed in ``TARGETS`` is replaced, in every
``lqgcodesign`` module that holds a reference to it, by a wrapper that
records a span (name, start, end, parent span, command id).  Spans are kept
in memory and written once, at the end of the run.  Every per-layer metric
is derived from the span records alone, so it can be recomputed from a span
file.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

# (module, attribute, span name, attributes recorded from the result)
TARGETS = (
    ("model", "load_scenario", "model.load_scenario", None),
    ("riccati", "solve_riccati", "riccati.solve_riccati", None),
    ("kalman", "ObjectiveCache.__init__", "kalman.cache_init", None),
    ("kalman", "ObjectiveCache.f", "kalman.f", None),
    ("kalman", "ObjectiveCache.logdet", "kalman.logdet", None),
    ("kalman", "ObjectiveCache.trajectory", "kalman.trajectory", None),
    ("kalman", "propagate_covariance", "kalman.propagate_covariance", None),
    ("selection", "greedy_budget", "selection.greedy_budget", "iterations"),
    ("selection", "greedy_mincost", "selection.greedy_mincost", "iterations"),
    ("selection", "baseline_logdet", "selection.baseline_logdet", "iterations"),
    ("selection", "oracle_budget", "selection.oracle_budget", None),
    ("selection", "oracle_mincost", "selection.oracle_mincost", None),
    ("analysis", "exact_supermodularity_ratio", "analysis.exact_ratio", None),
    ("analysis", "ratio_lower_bound", "analysis.ratio_lower_bound", None),
    ("analysis", "budget_certificate", "analysis.budget_certificate", None),
    ("analysis", "mincost_certificate", "analysis.mincost_certificate", None),
    ("simulate", "monte_carlo", "simulate.monte_carlo", "rollouts"),
    ("cli", "main", "cli.main", None),
)

PROPAGATE = ("kalman.trajectory", "kalman.propagate_covariance")
OBJECTIVE = ("kalman.f", "kalman.logdet")
GREEDY = ("selection.greedy_budget", "selection.greedy_mincost", "selection.baseline_logdet")
ORACLE = ("selection.oracle_budget", "selection.oracle_mincost")
CERT = ("analysis.budget_certificate", "analysis.mincost_certificate")

# name -> unit, in report order; every traced run emits all of them
PER_LAYER_UNITS = {
    "kalman.propagate_s": "s",
    "kalman.propagate_us": "us",
    "kalman.propagations": "count",
    "kalman.f_calls": "count",
    "kalman.hit_ratio": "ratio",
    "kalman.cache_init_s": "s",
    "selection.greedy_s": "s",
    "selection.greedy_self_s": "s",
    "selection.iterations": "count",
    "selection.iter_ms": "ms",
    "selection.oracle_s": "s",
    "selection.oracle_self_s": "s",
    "analysis.ratio_s": "s",
    "analysis.reduce_s": "s",
    "analysis.bound_s": "s",
    "analysis.cert_s": "s",
    "simulate.mc_s": "s",
    "simulate.rollouts": "count",
    "simulate.rollout_us": "us",
    "model.load_s": "s",
    "model.loads": "count",
    "riccati.solve_s": "s",
    "riccati.solves": "count",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def _result_attrs(kind, result) -> dict:
    if kind == "iterations":
        return {"iterations": len(result.iterations)}
    if kind == "rollouts":
        return {"rollouts": result.run_count}
    return {}


class Tracer:
    """Records spans while installed; restores the package when removed."""

    def __init__(self):
        self.spans: list[dict] = []
        self.command = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    def _call(self, name, kind, fn, args, kwargs):
        index = len(self.spans)
        span = {"id": index, "name": name, "start": 0.0, "end": 0.0,
                "parent": self._stack[-1] if self._stack else None,
                "command": self.command}
        self.spans.append(span)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            span["start"] = start - self._origin
            span["end"] = end - self._origin
        if kind is not None:
            span.update(_result_attrs(kind, result))
        return result

    def _wrap(self, name, kind, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, kind, fn, args, kwargs)
        return wrapper

    def install(self) -> None:
        """Put a wrapper in place of every target, wherever it is referenced."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "lqgcodesign" or n.startswith("lqgcodesign."))]
        for module_name, attr, name, kind in TARGETS:
            module = importlib.import_module(f"lqgcodesign.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patches.append((cls, method, original))
                setattr(cls, method, self._wrap(name, kind, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, kind, original)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def remove(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def write(self, path, header: dict) -> None:
        """Write the header and every span as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "spans": self.spans}, fh)
            fh.write("\n")


def _self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _per(total: float, count: int, scale: float) -> float:
    return total / count * scale if count else 0.0


def round_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced round (every span of its commands)."""
    own = _self_times(spans)
    with_child: set[int] = set()
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["name"] in OBJECTIVE and s["name"] in PROPAGATE:
            with_child.add(parent["id"])

    def total(names):
        return sum(s["end"] - s["start"] for s in spans if s["name"] in names)

    def self_total(names):
        return sum(own[s["id"]] for s in spans if s["name"] in names)

    def count(names):
        return sum(1 for s in spans if s["name"] in names)

    def attr(names, key):
        return sum(s.get(key, 0) for s in spans if s["name"] in names)

    propagate_s = total(PROPAGATE)
    propagations = count(PROPAGATE)
    objective_calls = [s for s in spans if s["name"] in OBJECTIVE]
    hits = sum(1 for s in objective_calls if s["id"] not in with_child)
    greedy_s = total(GREEDY)
    iterations = attr(GREEDY, "iterations")
    rollouts = attr(("simulate.monte_carlo",), "rollouts")
    return {
        "kalman.propagate_s": propagate_s,
        "kalman.propagate_us": _per(propagate_s, propagations, 1e6),
        "kalman.propagations": propagations,
        "kalman.f_calls": len(objective_calls),
        "kalman.hit_ratio": _per(hits, len(objective_calls), 1.0),
        "kalman.cache_init_s": total(("kalman.cache_init",)),
        "selection.greedy_s": greedy_s,
        "selection.greedy_self_s": self_total(GREEDY),
        "selection.iterations": iterations,
        "selection.iter_ms": _per(greedy_s, iterations, 1e3),
        "selection.oracle_s": total(ORACLE),
        "selection.oracle_self_s": self_total(ORACLE),
        "analysis.ratio_s": total(("analysis.exact_ratio",)),
        "analysis.reduce_s": self_total(("analysis.exact_ratio",)),
        "analysis.bound_s": total(("analysis.ratio_lower_bound",)),
        "analysis.cert_s": total(CERT),
        "simulate.mc_s": total(("simulate.monte_carlo",)),
        "simulate.rollouts": rollouts,
        "simulate.rollout_us": _per(self_total(("simulate.monte_carlo",)), rollouts, 1e6),
        "model.load_s": total(("model.load_scenario",)),
        "model.loads": count(("model.load_scenario",)),
        "riccati.solve_s": total(("riccati.solve_riccati",)),
        "riccati.solves": count(("riccati.solve_riccati",)),
        "cli.main_s": total(("cli.main",)),
        "cli.self_s": self_total(("cli.main",)),
    }


def layer_metrics(spans: list[dict], commands: list[dict], untraced_wall: list[float],
                  traced_wall: list[float]) -> dict[str, float]:
    """Median over traced rounds of each round's per-layer metrics.

    ``commands`` maps each span's command id to its round; the tracing
    overhead is the median traced round over the median untraced round.
    """
    round_of = {c["id"]: c["round"] for c in commands}
    rounds: dict[int, list[dict]] = {}
    for s in spans:
        rounds.setdefault(round_of[s["command"]], []).append(s)
    per_round = [round_metrics(r) for _, r in sorted(rounds.items())]
    out = {}
    for name in per_round[0]:
        median = statistics.median_low if PER_LAYER_UNITS[name] == "count" else statistics.median
        out[name] = median(m[name] for m in per_round)
    out["trace.overhead_frac"] = (statistics.median(traced_wall)
                                  / statistics.median(untraced_wall) - 1.0)
    return out
