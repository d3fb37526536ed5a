"""Tracing of calls into each ``leeway`` module, from outside the package.

A :class:`Tracer` replaces chosen public functions with wrappers at every
place a caller looks them up: the defining module's attribute and every
other module that imported the name (``counterfactual`` holds its own
binding of ``solver.leeway``, while ``solver`` reaches ``nature.exp_court``
through the module). Two kinds of wrapper share one timing stack:

* a *leaf* only updates its counters: calls, called time (time inside the
  function, whoever called it) and self time (called time minus the time of
  any wrapped function it called). The hot functions are leaves, so tracing
  does not swamp the work.
* a *span* does the same and also records (name, start, end, parent span,
  operation) in memory; :meth:`Tracer.write_spans` writes them once.

Nothing in the package is edited; :meth:`Tracer.remove` restores every
binding.
"""

from __future__ import annotations

import json
import os
import sys
import time

MODULES = ("codebook", "nature", "solver", "metrics", "inference", "counterfactual", "cli")
SUBCOMMANDS = ("codebook", "leeway", "paths", "metrics", "did", "counterfactual")

# Layer entry points that record spans, as "module.function".
SPANS = (
    *(f"cli._cmd_{name}" for name in SUBCOMMANDS),
    "cli.save_draws_csv", "cli.load_draws_csv",
    "codebook.parse_codebook",
    "solver.leeway_table", "solver.path_table",
    "counterfactual.counterfactual_doses", "counterfactual.predict_national",
    "inference.fit_posterior",
)

# Counter-only leaves. The nature functions are the ones the solver calls
# plus cauchy_quantile, which nature calls on every challenge probability.
LEAVES = (
    "nature.exp_court", "nature.cauchy_quantile", "nature.sample_parameters",
    "nature.stalemate_default", "nature.pr_veto_nonpartisan",
    "nature.round2_nonpartisan_proposal",
    "solver.solve", "solver.leeway",
    "metrics.expected_seats", "metrics.responsiveness", "metrics.competitive_share",
    "metrics.efficiency_gap", "metrics.partisan_bias", "metrics.dilution_asymmetry",
    "metrics.seat_share_at_vote", "metrics.simulation_adjust",
    "inference.cate_draws", "inference.acr", "inference.build_design",
)

CALLS, CALLED, SELF, EXTRA = range(4)


class Tracer:
    """Counters per wrapped function, spans per layer entry point."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.solve_keys: set = set()
        self.spans: list[dict] = []
        self.operation = ""
        self._child_time: list[float] = []
        self._open_spans: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self):
        """Start fresh counters; spans are kept."""
        self.stats = {}
        self.solve_keys = set()

    # -- wrappers ------------------------------------------------------------

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def _measure(self, name: str):
        """Extra per-call measurement for a few functions, or None."""
        if name == "nature.exp_court":
            def points(stat, args, kwargs, result):
                x = args[0] if args else kwargs["x"]
                stat[EXTRA] += getattr(x, "size", 1)
            return points
        if name == "solver.solve":
            def unique(stat, args, kwargs, result):
                self.solve_keys.add(args + tuple(sorted(kwargs.items())))
            return unique
        if name in ("cli.save_draws_csv", "cli.load_draws_csv"):
            def size(stat, args, kwargs, result):
                path = args[1] if name == "cli.save_draws_csv" else args[0]
                stat[EXTRA] += os.path.getsize(path)
            return size
        if name == "inference.fit_posterior":
            def min_ess(stat, args, kwargs, result):
                stat[EXTRA] = min(result.diagnostics.ess.values())
            return min_ess
        return None

    def _wrap(self, name: str, fn, span: bool):
        child_time = self._child_time
        open_spans = self._open_spans
        clock = time.perf_counter
        measure = self._measure(name)

        def wrapper(*args, **kwargs):
            if span:
                span_id = len(self.spans)
                record = {"id": span_id, "name": name, "operation": self.operation,
                          "parent": open_spans[-1] if open_spans else None}
                self.spans.append(record)
                open_spans.append(span_id)
            child_time.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                elapsed = t1 - t0
                stat = self._stat(name)
                stat[CALLS] += 1
                stat[CALLED] += elapsed
                stat[SELF] += elapsed - child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
                if span:
                    open_spans.pop()
                    record["start"], record["end"] = t0, t1
            if measure is not None:
                measure(self._stat(name), args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        modules = {name: sys.modules[f"leeway.{name}"] for name in MODULES}
        for names, span in ((SPANS, True), (LEAVES, False)):
            for qualified in names:
                module_name, attr = qualified.split(".")
                original = getattr(modules[module_name], attr)
                wrapper = self._wrap(qualified, original, span)
                for module in (*modules.values(), sys.modules["leeway"]):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, original))
                            setattr(module, key, wrapper)

    def remove(self):
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the counters since the last reset."""
        stats = self.stats

        def get(name, index):
            return stats.get(name, [0, 0.0, 0.0, 0])[index]

        def total(prefix, index):
            return sum(s[index] for name, s in stats.items() if name.startswith(prefix))

        solves = get("solver.solve", CALLS)
        out = {
            "nature.exp_court.calls": get("nature.exp_court", CALLS),
            "nature.exp_court.points": get("nature.exp_court", EXTRA),
            "nature.cauchy_quantile.calls": get("nature.cauchy_quantile", CALLS),
            "nature.sample_parameters.calls": get("nature.sample_parameters", CALLS),
            "nature.exp_court.self_s": get("nature.exp_court", SELF),
            "nature.self_s": total("nature.", SELF),
            "solver.solve.calls": solves,
            "solver.solve.unique_ratio": len(self.solve_keys) / solves if solves else 0.0,
            "solver.solve.self_s": get("solver.solve", SELF),
            "solver.leeway_table.s": get("solver.leeway_table", CALLED),
            "solver.path_table.s": get("solver.path_table", CALLED),
            "codebook.parse_codebook.s": get("codebook.parse_codebook", CALLED),
            "metrics.calls": total("metrics.", CALLS),
            "metrics.self_s": total("metrics.", SELF),
            "inference.fit_posterior.s": get("inference.fit_posterior", CALLED),
            "inference.fit_posterior.min_ess": get("inference.fit_posterior", EXTRA),
            "inference.cate_draws.s": get("inference.cate_draws", CALLED),
            "counterfactual.counterfactual_doses.s":
                get("counterfactual.counterfactual_doses", CALLED),
            "counterfactual.predict_national.s": get("counterfactual.predict_national", CALLED),
            "cli.save_draws_csv.s": get("cli.save_draws_csv", CALLED),
            "cli.save_draws_csv.bytes": get("cli.save_draws_csv", EXTRA),
            "cli.load_draws_csv.s": get("cli.load_draws_csv", CALLED),
            "cli.load_draws_csv.bytes": get("cli.load_draws_csv", EXTRA),
        }
        for name in SUBCOMMANDS[1:]:
            out[f"cli.{name}.self_s"] = get(f"cli._cmd_{name}", SELF)
        return out

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)
            fh.write("\n")
