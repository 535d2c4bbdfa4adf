"""Layer tracing for the mmqvi benchmark, measured from outside the package.

The tracer measures the package's layers from outside: it replaces the
module-level names each layer calls with timing wrappers for the duration of
a ``with tracer.installed():`` block, then restores them.  No source file of
the package changes.  Wrapped names and the span each one records:

    solver.iterate                         policy_iteration.iterate
    policy_iteration.improve_policy        policy_iteration.improve_policy
    policy_iteration.verify_theorem_...    policy_iteration.verify
    scheme.assemble_system                 scheme.assemble_system
    linsolve.solve                         linsolve.solve
    scipy.sparse.linalg.splu (linsolve)    linsolve.splu
    grid/solver.build_grid                 grid.build_grid
    grid/solver.build_stencils             grid.build_stencils

The public entry points the benchmark calls, ``mmqvi.solve_backward`` and
``mmqvi.estimate_performance``, are wrapped the same way (spans
``solver.solve_backward`` and ``montecarlo.estimate_performance``), and the
benchmark opens a ``setup`` span around its own set-up.  Spans live in memory as [name, start, end, parent, attrs];
``layer_metrics`` turns them into per-operation layer figures.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

SOLVE_SPAN = "solver.solve_backward"
ESTIMATE_SPAN = "montecarlo.estimate_performance"
SETUP_SPAN = "setup"

# Unit of every per-layer metric, in report order.
LAYER_METRICS = {
    "linsolve.solve_s": "s",
    "linsolve.factor_s": "s",
    "linsolve.calls": "count",
    "linsolve.lu_fill_mean": "nnz",
    "linsolve.fallbacks": "count",
    "linsolve.max_residual": "inf-norm",
    "policy_iteration.linear_solves": "count",
    "policy_iteration.repeat_policy_solves": "count",
    "policy_iteration.sweeps": "count",
    "policy_iteration.policy_repeat_levels": "count",
    "policy_iteration.improve_s": "s",
    "policy_iteration.verify_s": "s",
    "policy_iteration.self_s": "s",
    "scheme.assemble_s": "s",
    "scheme.assemble_calls": "count",
    "scheme.nnz_mean": "nnz",
    "scheme.impulse_rows_mean": "rows",
    "solver.levels": "count",
    "solver.self_s": "s",
    "grid.build_s": "s",
    "montecarlo.estimate_s": "s",
    "montecarlo.paths": "count",
    "montecarlo.events_per_path": "count/path",
    "montecarlo.own_orders_per_path": "count/path",
    "montecarlo.chatter_capped": "count",
    "trace.overhead_s": "s",
}


def _observe_splu(lu):
    # SuperLU's own count of stored L and U entries; reading lu.L / lu.U
    # would build both factors as new matrices on every call.
    return {"fill": int(lu.nnz)}


def _observe_solve(report):
    return {"method": report.method, "residual": float(report.residual_norm)}


def _observe_assemble(system):
    return {"nnz": int(system.matrix.nnz),
            "impulse_rows": int(system.impulse_mask.sum())}


def _observe_iterate(result):
    trace = result[2]
    return {"digests": list(trace.policy_digests),
            "converged_by": trace.converged_by}


def _patch_table():
    """(module, attribute, span name, observer) of every wrapped name."""
    import scipy.sparse.linalg as spla

    import mmqvi
    from mmqvi import grid, linsolve, policy_iteration, scheme, solver

    return [
        (mmqvi, "solve_backward", SOLVE_SPAN, None),
        (mmqvi, "estimate_performance", ESTIMATE_SPAN, None),
        (solver, "iterate", "policy_iteration.iterate", _observe_iterate),
        (policy_iteration, "improve_policy", "policy_iteration.improve_policy", None),
        (policy_iteration, "verify_theorem_conditions", "policy_iteration.verify", None),
        (scheme, "assemble_system", "scheme.assemble_system", _observe_assemble),
        (linsolve, "solve", "linsolve.solve", _observe_solve),
        (spla, "splu", "linsolve.splu", _observe_splu),
        (grid, "build_grid", "grid.build_grid", None),
        (grid, "build_stencils", "grid.build_stencils", None),
        (solver, "build_grid", "grid.build_grid", None),
        (solver, "build_stencils", "grid.build_stencils", None),
    ]


class Tracer:
    """In-memory span recorder with a patch table over the package modules."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, fn, name: str, observe=None):
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if observe is not None:
                rec[4] = observe(out)
            return out

        return wrapper

    @contextmanager
    def installed(self):
        """Swap every wrapped name for its timing wrapper; restore on exit."""
        saved = []
        try:
            for module, attr, name, observe in _patch_table():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, observe))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _subtree(spans: list[list], i: int) -> range:
    """Indices of the spans nested in span ``i`` (contiguous: one thread)."""
    end = spans[i][2]
    j = i + 1
    while j < len(spans) and spans[j][1] < end:
        j += 1
    return range(i + 1, j)


def _child_time(spans: list[list]) -> list[float]:
    """Total duration of the direct children of every span."""
    out = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            out[s[3]] += s[2] - s[1]
    return out


def _solve_figures(spans: list[list], child: list[float], i: int) -> dict:
    """Layer figures of one traced solve_backward span."""
    inner = [(j, spans[j]) for j in _subtree(spans, i)]

    def named(name):
        return [(j, s) for j, s in inner if s[0] == name]

    def total(name):
        return sum(s[2] - s[1] for _, s in named(name))

    iterates = named("policy_iteration.iterate")
    digests = [d for _, s in iterates for d in (s[4] or {}).get("digests", [])]
    solves = [s[4] for _, s in named("linsolve.solve") if s[4]]
    fills = [s[4]["fill"] for _, s in named("linsolve.splu") if s[4]]
    systems = [s[4] for _, s in named("scheme.assemble_system") if s[4]]
    return {
        "linsolve.solve_s": total("linsolve.solve"),
        "linsolve.factor_s": total("linsolve.splu"),
        "linsolve.calls": len(named("linsolve.solve")),
        "linsolve.lu_fill_mean": _mean(fills),
        "linsolve.fallbacks": sum(r["method"] != "direct-lu" for r in solves),
        "linsolve.max_residual": max((r["residual"] for r in solves), default=0.0),
        "policy_iteration.linear_solves": len(digests),
        "policy_iteration.repeat_policy_solves": sum(
            a == b for a, b in zip(digests, digests[1:])
        ),
        "policy_iteration.sweeps": len(named("policy_iteration.improve_policy")),
        "policy_iteration.policy_repeat_levels": sum(
            (s[4] or {}).get("converged_by") == "policy-repeat" for _, s in iterates
        ),
        "policy_iteration.improve_s": total("policy_iteration.improve_policy"),
        "policy_iteration.verify_s": total("policy_iteration.verify"),
        "policy_iteration.self_s": sum(s[2] - s[1] - child[j] for j, s in iterates),
        "scheme.assemble_s": total("scheme.assemble_system"),
        "scheme.assemble_calls": len(systems),
        "scheme.nnz_mean": _mean([s["nnz"] for s in systems]),
        "scheme.impulse_rows_mean": _mean([s["impulse_rows"] for s in systems]),
        "solver.levels": len(iterates),
        "solver.self_s": spans[i][2] - spans[i][1] - child[i],
    }


def _mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def layer_metrics(spans: list[list], mc_counts: dict | None) -> dict:
    """Per-operation layer figures: the median over every traced operation.

    Solve-layer figures come from each ``solver.solve_backward`` span (the
    timed solves, or on mc-replay the set-up solve), ``grid.build_s`` from
    the grid builds inside the one set-up span, and the Monte Carlo figures from
    each ``montecarlo.estimate_performance`` span plus ``mc_counts``, the
    event counts of the replayed paths.  Layers a workload bypasses report 0.
    """
    out = dict.fromkeys(LAYER_METRICS, 0.0)
    child = _child_time(spans)
    per_solve = [_solve_figures(spans, child, i) for i, s in enumerate(spans)
                 if s[0] == SOLVE_SPAN]
    for name in per_solve[0] if per_solve else ():
        out[name] = statistics.median(f[name] for f in per_solve)

    setup = next(i for i, s in enumerate(spans) if s[0] == SETUP_SPAN)
    out["grid.build_s"] = sum(
        spans[j][2] - spans[j][1] for j in _subtree(spans, setup)
        if spans[j][0] in ("grid.build_grid", "grid.build_stencils")
    )

    estimates = [s for s in spans if s[0] == ESTIMATE_SPAN]
    if estimates:
        out["montecarlo.estimate_s"] = statistics.median(s[2] - s[1] for s in estimates)
        out.update(mc_counts or {})
    for name, unit in LAYER_METRICS.items():
        if unit == "count":
            out[name] = int(out[name])
    return out
