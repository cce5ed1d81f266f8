"""Per-module numbers for a traced pass.

The tracer replaces a public strongodd function with a timing wrapper in
every strongodd module that binds it, so calls made from inside the
library's own recursion are timed as well.  Each wrapper opens a span
(name, start, end, parent); when it closes, its duration goes to its
function's totals and to its parent's child time, and its self time is the
duration minus that child time.  Spans are folded into per-function totals
as they close rather than kept: ``canonical_key`` alone opens millions.
"""

from __future__ import annotations

import inspect
import sys
import time
from typing import Callable, Optional

from strongodd import canon, experiments, graphs, ktree, outerplanar, rowtw, solver
from strongodd import sumcolor, sums, treewidth, verify

# (module, function name, metric prefix, distinct-key of the result or None)
TRACED = (
    (ktree, "build_ktree", "ktree.build_ktree", None),
    (ktree, "layer_completion", "ktree.layer_completion", lambda comp: comp.seq),
    (ktree, "bfs_layering", "ktree.bfs_layering", None),
    (sums, "build_sum", "sums.build_sum", None),
    (sums, "natural_layering", "sums.natural_layering", None),
    (sums, "layer_sum_desc", "sums.layer_sum_desc", lambda wit: wit.desc),
    (treewidth, "color_tw", "treewidth.color_tw", None),
    (sumcolor, "color_sum", "sumcolor.color_sum", None),
    (sumcolor, "tag_cliques", "sumcolor.tag_cliques", None),
    (sumcolor, "color_summand", "sumcolor.color_summand", None),
    (rowtw, "color_rtw", "rowtw.color_rtw", None),
    (canon, "canonical_key", "canon.canonical_key", None),
    (outerplanar, "color_outerplanar", "outerplanar.color_outerplanar", None),
    (outerplanar, "validate_outerplanar_structure",
     "outerplanar.validate_outerplanar_structure", None),
    (solver, "enumerate_oracle", "solver.enumerate_oracle", None),
)
VERIFIERS = (
    "is_proper", "is_strong_odd", "is_strong_odd_on_set", "is_strong_odd_directed",
    "is_odd_coloring", "is_hypergraph_strong_odd", "is_facially_odd", "plane_to_strong_odd",
)
SOLVERS = ("chi_so_exact", "chi_iso_exact", "chi_odd_exact", "chi_exact", "chi_so_constrained")
CRITERIA = tuple(fn.__name__ for fn in experiments.CRITERIA) + ("crit_gk3_attempt",)

# metric name -> (span name, statistic)
SPAN_METRICS = {
    "ktree.build_ktree.calls": ("ktree.build_ktree", "calls"),
    "ktree.build_ktree.self_s": ("ktree.build_ktree", "self_s"),
    "ktree.layer_completion.calls": ("ktree.layer_completion", "calls"),
    "ktree.layer_completion.distinct": ("ktree.layer_completion", "distinct"),
    "ktree.layer_completion.self_s": ("ktree.layer_completion", "self_s"),
    "ktree.bfs_layering.calls": ("ktree.bfs_layering", "calls"),
    "ktree.bfs_layering.self_s": ("ktree.bfs_layering", "self_s"),
    "sums.build_sum.calls": ("sums.build_sum", "calls"),
    "sums.build_sum.self_s": ("sums.build_sum", "self_s"),
    "sums.natural_layering.self_s": ("sums.natural_layering", "self_s"),
    "sums.layer_sum_desc.calls": ("sums.layer_sum_desc", "calls"),
    "sums.layer_sum_desc.distinct": ("sums.layer_sum_desc", "distinct"),
    "sums.layer_sum_desc.self_s": ("sums.layer_sum_desc", "self_s"),
    "treewidth.color_tw.s": ("treewidth.color_tw", "s"),
    "treewidth.color_tw.self_s": ("treewidth.color_tw", "self_s"),
    "sumcolor.color_sum.s": ("sumcolor.color_sum", "s"),
    "sumcolor.color_sum.self_s": ("sumcolor.color_sum", "self_s"),
    "sumcolor.tag_cliques.calls": ("sumcolor.tag_cliques", "calls"),
    "sumcolor.tag_cliques.self_s": ("sumcolor.tag_cliques", "self_s"),
    "sumcolor.color_summand.s": ("sumcolor.color_summand", "s"),
    "rowtw.color_rtw.s": ("rowtw.color_rtw", "s"),
    "graphs.Coloring.from_values.s": ("graphs.Coloring.from_values", "s"),
    "canon.canonical_key.calls": ("canon.canonical_key", "calls"),
    "canon.canonical_key.self_s": ("canon.canonical_key", "self_s"),
    "outerplanar.color_outerplanar.s": ("outerplanar.color_outerplanar", "s"),
    "outerplanar.color_outerplanar.self_s": ("outerplanar.color_outerplanar", "self_s"),
    "outerplanar.validate_outerplanar_structure.s":
        ("outerplanar.validate_outerplanar_structure", "s"),
    "solver.enumerate_oracle.s": ("solver.enumerate_oracle", "s"),
}
SPAN_METRICS.update(
    {f"experiments.{name}.s": (f"experiments.{name}", "s") for name in CRITERIA}
)
OTHER_METRICS = (
    ("solver.nodes", "count"),
    ("solver.nodes_per_s", "1/s"),
    ("solver.nodes_infeasible", "count"),
    ("solver.nodes_feasible", "count"),
    ("verify.calls", "count"),
    ("verify.s", "s"),
    ("trace.overhead_s", "s"),
)


def unit_of(statistic: str) -> str:
    return "count" if statistic in ("calls", "distinct") else "s"


def metric_units() -> dict[str, str]:
    """Every per-module metric the traced run prints, with its unit."""
    units = {name: unit_of(stat) for name, (_, stat) in SPAN_METRICS.items()}
    units.update(OTHER_METRICS)
    return units


def _strongodd_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "strongodd" or name.startswith("strongodd.")) and m is not None]


class Tracer:
    """Installs timing wrappers on ``install`` and removes them on ``remove``."""

    def __init__(self):
        self.totals: dict[str, list] = {}  # span name -> [calls, s, self_s]
        self.seen: dict[str, set] = {}  # span name -> distinct result keys
        self.solver_calls: list[tuple[Callable, inspect.BoundArguments, int]] = []
        self.nodes = 0
        self.solver_s = 0.0
        self._stack: list[list[float]] = []  # child seconds of each open span
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, key: Optional[Callable] = None) -> Callable:
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        seen = self.seen.setdefault(name, set()) if key is not None else None
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - child[0]
                if stack:
                    stack[-1][0] += duration
            if seen is not None:
                seen.add(key(result))
            return result

        return traced

    def _wrap_solver(self, name: str, fn: Callable) -> Callable:
        signature = inspect.signature(fn)

        def counted(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            if bound.arguments.get("stats") is None:
                bound.arguments["stats"] = solver.SolveStats()
            stats = bound.arguments["stats"]
            start = time.perf_counter()
            try:
                value, witness = fn(*bound.args, **bound.kwargs)
            except solver.BudgetExceeded as exc:
                self.nodes += exc.nodes
                raise
            finally:
                self.solver_s += time.perf_counter() - start
            self.nodes += stats.nodes
            self.solver_calls.append((fn, bound, value))
            return value, witness

        return self._wrap(name, counted)

    # -- patching ------------------------------------------------------------

    def _patch_everywhere(self, original: object, replacement: object) -> None:
        for module in _strongodd_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        for module, attr, name, key in TRACED:
            fn = getattr(module, attr)
            self._patch_everywhere(fn, self._wrap(name, fn, key))
        for attr in VERIFIERS:
            fn = getattr(verify, attr)
            self._patch_everywhere(fn, self._wrap(f"verify.{attr}", fn))
        for attr in SOLVERS:
            fn = getattr(solver, attr)
            self._patch_everywhere(fn, self._wrap_solver(f"solver.{attr}", fn))
        for attr in CRITERIA:
            fn = getattr(experiments, attr)
            self._patch_everywhere(fn, self._wrap(f"experiments.{attr}", fn))
        descriptor = graphs.Coloring.__dict__["from_values"]
        self._patches.append((graphs.Coloring, "from_values", descriptor))
        graphs.Coloring.from_values = classmethod(
            self._wrap("graphs.Coloring.from_values", descriptor.__func__))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def infeasible_nodes(self) -> tuple[int, list[str]]:
        """Nodes each recorded solve spends below its value: the count carried
        by ``BudgetExceeded`` when the same solve is capped at value - 1.
        Also returns the solves that found fewer colors when capped."""
        total = 0
        errors = []
        for fn, bound, value in self.solver_calls:
            if value < 2:
                continue
            budget = bound.arguments.get("budget") or solver.SolverBudget()
            args = inspect.signature(fn).bind(*bound.args, **bound.kwargs)
            args.arguments["budget"] = solver.SolverBudget(
                max_colors=value - 1, node_limit=budget.node_limit,
                time_limit=budget.time_limit)
            args.arguments["stats"] = None
            try:
                fn(*args.args, **args.kwargs)
            except solver.BudgetExceeded as exc:
                total += exc.nodes
            else:
                errors.append(f"{fn.__name__} found fewer than {value} colors when capped")
        return total, errors

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for metric, (span, stat) in SPAN_METRICS.items():
            calls, s, self_s = self.totals.get(span, (0, 0.0, 0.0))
            out[metric] = {
                "calls": calls,
                "s": s,
                "self_s": self_s,
                "distinct": len(self.seen.get(span, ())),
            }[stat]
        verifiers = [self.totals.get(f"verify.{attr}", (0, 0.0, 0.0)) for attr in VERIFIERS]
        out["verify.calls"] = sum(t[0] for t in verifiers)
        out["verify.s"] = sum(t[2] for t in verifiers)
        out["solver.nodes"] = self.nodes
        out["solver.nodes_per_s"] = self.nodes / self.solver_s if self.solver_s else 0.0
        return out
