"""Layer spans recorded from outside the library.

``Tracer.install`` replaces the public names that ``phasorflow.cli`` and
``phasorflow.experiments`` import (plus ``phasorflow.model.NetworkIndex``)
with wrappers that record a span per call: name, layer, start, end,
parent span and op id. Spans stay in memory until ``write``. ``uninstall``
restores the original objects, so untraced ops run unwrapped code.

A layer is one module of the package. Its self time is the summed
duration of its spans minus the time covered by their direct children.
"""

from __future__ import annotations

import functools
import json
import time

# (module, attribute, layer). The layer names the module that defines the
# wrapped callable; feeders is split into document loading and modification.
TARGETS = (
    ("cli", "load_feeder", "feeders.load"),
    ("cli", "build_scenario_network", "experiments"),
    ("cli", "load_scenario", "experiments"),
    ("cli", "monte_carlo", "experiments"),
    ("cli", "run_switch_scenario", "experiments"),
    ("cli", "run_sequential_switching", "experiments"),
    ("cli", "report_to_dict", "experiments"),
    ("cli", "solve_exact", "exact"),
    ("cli", "solve_linear", "linear"),
    ("cli", "build_opf", "opf.build"),
    ("cli", "solve_opf", "opf.solve"),
    ("cli", "apply_modifications", "feeders.modify"),
    ("experiments", "network_from_dict", "feeders.load"),
    ("experiments", "apply_modifications", "feeders.modify"),
    ("experiments", "relabel_nodes", "feeders.modify"),
    ("experiments", "merge_with_switch", "feeders.modify"),
    ("experiments", "build_scenario_network", "experiments"),
    ("experiments", "error_metrics", "experiments.error_metrics"),
    ("experiments", "replace", "model.network"),
    ("experiments", "solve_exact", "exact"),
    ("experiments", "solve_linear", "linear"),
    ("experiments", "build_opf", "opf.build"),
    ("experiments", "solve_opf", "opf.solve"),
    ("model", "NetworkIndex", "model.index"),
)

# Per-layer metrics, in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("cli.self_ms", "ms"),
    ("feeders.load_ms", "ms"),
    ("feeders.modify_ms", "ms"),
    ("model.network_builds", "count"),
    ("model.network_ms", "ms"),
    ("model.index_builds", "count"),
    ("model.index_ms", "ms"),
    ("exact.solves", "count"),
    ("exact.solve_ms", "ms"),
    ("exact.newton_steps", "count"),
    ("exact.nonconverged", "count"),
    ("linear.solves", "count"),
    ("linear.solve_ms", "ms"),
    ("opf.builds", "count"),
    ("opf.build_ms", "ms"),
    ("opf.solves", "count"),
    ("opf.solve_ms", "ms"),
    ("opf.admm_iterations", "count"),
    ("experiments.self_ms", "ms"),
    ("experiments.error_metrics_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
)


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "count", "error")

    def __init__(self, name, layer, parent, op):
        self.name = name
        self.layer = layer
        self.start = self.end = 0.0
        self.parent = parent
        self.op = op
        self.count = None
        self.error = None


def _count(layer: str, result) -> int | None:
    """Work count a span's result reports through public fields."""
    if layer == "exact":
        return result.iterations
    if layer == "opf.solve":
        return int(result.solver_stats["iterations"])
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op = -1

    def span(self, name: str, layer: str, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        sp = Span(name, layer, parent, self.op)
        self.spans.append(sp)
        self._stack.append(idx)
        sp.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            sp.end = time.perf_counter()
            sp.error = type(exc).__name__
            raise
        else:
            sp.end = time.perf_counter()
            sp.count = _count(layer, result)
            return result
        finally:
            self._stack.pop()

    def _wrap(self, name: str, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, layer, fn, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        import importlib

        wrappers: dict[int, object] = {}
        for mod_name, attr, layer in TARGETS:
            mod = importlib.import_module(f"phasorflow.{mod_name}")
            orig = getattr(mod, attr)
            # One wrapper per original object, whichever module imports it.
            wrapped = wrappers.setdefault(id(orig), self._wrap(attr, layer, orig))
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps({
                    "name": sp.name, "layer": sp.layer, "start": sp.start,
                    "end": sp.end, "parent": sp.parent, "op": sp.op,
                    "count": sp.count, "error": sp.error}) + "\n")


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: spans, self seconds, summed counts and non-converged spans."""
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            child_time[sp.parent] += sp.end - sp.start
    out: dict[str, dict[str, float]] = {}
    for i, sp in enumerate(spans):
        agg = out.setdefault(sp.layer, {"spans": 0, "self_s": 0.0, "count": 0,
                                         "nonconverged": 0})
        agg["spans"] += 1
        agg["self_s"] += sp.end - sp.start - child_time[i]
        agg["count"] += sp.count or 0
        agg["nonconverged"] += sp.error == "NonConvergenceError"
    return out


def layer_metrics(spans: list[Span], units: float, overhead_frac: float) -> dict[str, float]:
    """The per-layer metrics, normalised per unit of work (op or draw)."""
    t = layer_totals(spans)

    def get(layer: str, key: str) -> float:
        return t.get(layer, {}).get(key, 0)

    def ms(layer: str) -> float:
        return get(layer, "self_s") * 1e3 / units

    def per(layer: str, key: str) -> float:
        return get(layer, key) / units

    return {
        "cli.self_ms": ms("cli"),
        "feeders.load_ms": ms("feeders.load"),
        "feeders.modify_ms": ms("feeders.modify"),
        "model.network_builds": per("model.network", "spans"),
        "model.network_ms": ms("model.network"),
        "model.index_builds": per("model.index", "spans"),
        "model.index_ms": ms("model.index"),
        "exact.solves": per("exact", "spans"),
        "exact.solve_ms": ms("exact"),
        "exact.newton_steps": per("exact", "count"),
        "exact.nonconverged": per("exact", "nonconverged"),
        "linear.solves": per("linear", "spans"),
        "linear.solve_ms": ms("linear"),
        "opf.builds": per("opf.build", "spans"),
        "opf.build_ms": ms("opf.build"),
        "opf.solves": per("opf.solve", "spans"),
        "opf.solve_ms": ms("opf.solve"),
        "opf.admm_iterations": per("opf.solve", "count"),
        "experiments.self_ms": ms("experiments"),
        "experiments.error_metrics_ms": ms("experiments.error_metrics"),
        "trace.overhead_frac": overhead_frac,
    }
