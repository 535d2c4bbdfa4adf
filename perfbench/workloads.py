"""Workload definitions, set-up, timed operations and output checks.

Every workload drives the public API of ``mmqvi`` at the reference model
parameters.  The solve workloads are fixed problems (the seed does not change
them); mc-replay draws its paths from the benchmark seed.  Importing this
module imports ``mmqvi``, so it counts towards set-up time.

Why these workloads (the figures were measured on the reference parameters):

* ref-solve - the CLI default, 200 steps x 101 alpha x 9 q = 909 nodes.
  Small systems: factorization, assembly and verification share the time,
  and 197 of 350 linear solves repeat the previous solve's policy.
* fine-solve - 100 steps x 401 alpha (3,609 nodes), the refine-sized
  system.  splu dominates and only 96 of 363 solves repeat the policy, so an
  ordering or LU change shows most here and a reuse cache's misses show first.
* mc-replay - replays the ref-solve policy from y0 = (0, 100, 0, 0).  The
  solve sits in set-up, so the timed work is the montecarlo layer alone.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

import mmqvi
from mmqvi import grid as grid_mod

Y0 = (0.0, 100.0, 0.0, 0)
MODE = "clamp"
# Largest accepted |v - v_ref| on the t = 0 surface, relative to
# max(1, max |v_ref|): the policy-iteration stopping rule (tol 1e-8, relative
# change of the iterate) lets a solve that takes another but equally valid
# path end this far from the recorded one.
SURFACE_RTOL = 1e-8
ENVELOPE_TOL = 1e-8
Z_LIMIT = 3.0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str              # "solve" or "replay"
    n_time_steps: int
    n_alpha_points: int
    n_paths: int = 0
    reference: str = ""    # reference-surface key of the solve it checks

    def spec(self) -> mmqvi.GridSpec:
        p = mmqvi.default_params()
        return mmqvi.GridSpec(self.n_time_steps, self.n_alpha_points,
                              p.alpha_cap, p.q_bar)


WORKLOADS = {
    "full": {
        "ref-solve": Workload("ref-solve", "solve", 200, 101, reference="ref-solve"),
        "fine-solve": Workload("fine-solve", "solve", 100, 401, reference="fine-solve"),
        "mc-replay": Workload("mc-replay", "replay", 200, 101, n_paths=500,
                              reference="ref-solve"),
    },
    # Same layers at a size that runs in well under a second; self-test only.
    "tiny": {
        "ref-solve": Workload("ref-solve", "solve", 20, 21, reference="ref-solve"),
        "fine-solve": Workload("fine-solve", "solve", 10, 41, reference="fine-solve"),
        "mc-replay": Workload("mc-replay", "replay", 20, 21, n_paths=20,
                              reference="ref-solve"),
    },
}


@dataclass(eq=False)
class State:
    """What set-up leaves for the timed operations."""

    workload: Workload
    params: mmqvi.ModelParams
    spec: mmqvi.GridSpec
    solution: mmqvi.Solution | None = None
    solve_s: float = 0.0


def solve(state: State) -> mmqvi.Solution:
    return mmqvi.solve_backward(state.params, state.spec, mode=MODE,
                                piter=mmqvi.PiterConfig())


def setup(workload: Workload) -> State:
    """Params, grid and stencils; on replay workloads also the solve.

    Set-up builds the grid and stencils a caller inspects before solving, so
    their cost shows in set-up time.  They go through the module attribute
    so a tracer sees them.
    """
    p = mmqvi.default_params()
    spec = workload.spec()
    grid_mod.build_stencils(grid_mod.build_grid(p, spec), p, MODE)
    state = State(workload, p, spec)
    if workload.kind == "replay":
        started = time.perf_counter()
        state.solution = solve(state)
        state.solve_s = time.perf_counter() - started
    return state


def surface_digest(sol: mmqvi.Solution) -> str:
    return hashlib.sha256(np.ascontiguousarray(sol.surfaces[0].values).tobytes()
                          ).hexdigest()[:16]


def check_solution(sol: mmqvi.Solution, reference: dict) -> list[str]:
    """Failures of one solve: reference surface, envelope, monotone sweeps."""
    problems = []
    v0 = sol.surfaces[0].values
    ref = np.asarray(reference["values"], dtype=float)
    if v0.shape != ref.shape:
        problems.append(f"t=0 surface has {v0.size} nodes, reference {ref.size}")
    else:
        tol = SURFACE_RTOL * max(1.0, float(np.max(np.abs(ref))))
        worst = float(np.max(np.abs(v0 - ref)))
        if not worst <= tol:
            problems.append(f"t=0 surface off reference by {worst:.3e} > {tol:.1e}")
    for surface in sol.surfaces:
        lo, hi = mmqvi.stability_bounds(sol.params, surface.t)
        v = surface.values
        if not (np.isfinite(v).all() and v.min() >= lo - ENVELOPE_TOL
                and v.max() <= hi + ENVELOPE_TOL):
            problems.append(f"level {surface.n} leaves the envelope [{lo:.6g}, {hi:.6g}]")
            break
    floor = -10.0 * mmqvi.PiterConfig().solver_tol
    worst_inc = min(lv["min_increment"] for lv in sol.metadata["per_level"])
    if worst_inc < floor:
        problems.append(f"min_increment {worst_inc:.3e} < {floor:.1e}")
    return problems


def replay(state: State, seed: int) -> mmqvi.EstimateReport:
    return mmqvi.estimate_performance(state.params, state.solution, Y0,
                                      n_paths=state.workload.n_paths, seed=seed)


def check_report(report: mmqvi.EstimateReport, n_paths: int) -> list[str]:
    problems = []
    if report.n_paths != n_paths:
        problems.append(f"replayed {report.n_paths} paths, asked for {n_paths}")
    if not (math.isfinite(report.mean) and abs(report.zscore) <= Z_LIMIT):
        problems.append(f"z-score {report.zscore:.3f} outside +/-{Z_LIMIT}")
    return problems


def path_counts(state: State, seed: int) -> dict:
    """Event counts of the replayed paths, through the public simulate_path.

    estimate_performance spawns one child seed per path from the master seed;
    simulate_path replays a path from such a child with the full event log.
    """
    n = state.workload.n_paths
    events = own = capped = 0
    for child in np.random.SeedSequence(seed).spawn(n):
        rec = mmqvi.simulate_path(state.params, state.solution, Y0, child)
        events += (len(rec.ext_buy_times) + len(rec.ext_sell_times)
                   + len(rec.jump_up_times) + len(rec.jump_down_times))
        own += len(rec.own_order_cash)
        capped += rec.chatter_capped
    return {
        "montecarlo.paths": n,
        "montecarlo.events_per_path": events / n,
        "montecarlo.own_orders_per_path": own / n,
        "montecarlo.chatter_capped": capped,
    }
