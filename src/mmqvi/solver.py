"""Backward time-stepping of the dynamic programming inequality.

Starting from the terminal surface, every level solves one implicit step by
policy iteration and is checked against the a-priori stability envelope
before stepping further back; the loop includes the n = 0 level so the
policy at t = 0 is available.  An explicit one-step baseline with the same
spatial stencils is provided for cross-checks: it is subject to a CFL
restriction and is expected to blow up when that restriction is violated,
which it signals instead of returning garbage.  Its impulse step is closed
form: the obstacle max_j' v(j') - upsilon |j - j'| over inventory indices j'
comes from running maxima of v + upsilon j and v - upsilon j; ties go up.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import scheme
from .grid import Grid, GridSpec, StencilSet, build_grid, build_stencils
from .linsolve import SolveError
from .model import ModelParams, inventory_units, stability_bounds, terminal_value
from .policy_iteration import (
    PHASES,
    PiterConfig,
    PolicyIterationError,
    SystemCache,
    VerificationError,
    iterate,
)
from .scheme import D, Policy

log = logging.getLogger(__name__)

# How far a surface may leave the stability envelope before a solve fails.
ENVELOPE_TOL = 1e-8


class StabilityEnvelopeError(RuntimeError):
    """A computed surface left the a-priori bounds; names level and node."""

    def __init__(self, level: int, node: int, value: float, bounds: tuple[float, float]):
        super().__init__(
            f"value {value:.6g} at node {node}, time level {level} leaves the "
            f"stability envelope [{bounds[0]:.6g}, {bounds[1]:.6g}]"
        )
        self.level = level
        self.node = node
        self.value = value
        self.bounds = bounds


class ExplicitInstabilityError(RuntimeError):
    """The explicit baseline went unstable; carries level and CFL factor."""

    def __init__(self, level: int, reason: str, cfl_factor: float):
        super().__init__(
            f"explicit step unstable at time level {level} ({reason}); "
            f"CFL factor {cfl_factor:.4g}"
        )
        self.level = level
        self.reason = reason
        self.cfl_factor = cfl_factor


@dataclass(frozen=True)
class ValueSurface:
    """Reduced values on the node lattice at one time level."""

    n: int
    t: float
    values: np.ndarray


@dataclass(eq=False)
class Solution:
    """Backward solve output: surfaces for n = 0..N, policies for n = 0..N-1."""

    params: ModelParams
    grid: Grid
    surfaces: list[ValueSurface]
    policies: list[Policy]
    metadata: dict = field(default_factory=dict)

    def value_at(self, n: int, alpha: float, q: int) -> float:
        """Surface value at time level n, linear in alpha between nodes;
        raises ValueError for a level outside 0..N, a non-finite alpha and an
        inventory that is not integral or outside [-q_bar, q_bar]."""
        if not 0 <= n < len(self.surfaces):
            raise ValueError(f"time level {n} outside 0..{len(self.surfaces) - 1}")
        if not np.isfinite(alpha):
            raise ValueError(f"alpha must be finite, got {alpha}")
        g = self.grid
        jj = inventory_units(q) + g.qs[-1]
        if not 0 <= jj < g.n_q:
            raise ValueError(f"inventory {q} outside [-q_bar, q_bar]")
        pos = (alpha - g.alphas[0]) / g.d_alpha
        i0 = int(np.clip(np.floor(pos), 0, g.n_alpha - 2))
        w = min(max(pos - i0, 0.0), 1.0)
        row = self.surfaces[n].values.reshape(g.n_q, g.n_alpha)[jj]
        return float((1.0 - w) * row[i0] + w * row[i0 + 1])


def terminal_vector(grid: Grid, p: ModelParams) -> np.ndarray:
    g_by_q = np.array([terminal_value(p, float(q)) for q in grid.qs])
    return np.repeat(g_by_q, grid.n_alpha)


def _check_envelope(p: ModelParams, grid: Grid, level: int, v: np.ndarray) -> None:
    if not np.isfinite(v).all():
        node = int(np.flatnonzero(~np.isfinite(v))[0])
        raise StabilityEnvelopeError(level, node, float(v[node]), (np.nan, np.nan))
    lo, hi = stability_bounds(p, grid.times[level])
    bad = (v < lo - ENVELOPE_TOL) | (v > hi + ENVELOPE_TOL)
    if bad.any():
        node = int(np.flatnonzero(bad)[0])
        raise StabilityEnvelopeError(level, node, float(v[node]), (lo, hi))


def solve_backward(
    p: ModelParams,
    spec: GridSpec,
    mode: str = "clamp",
    piter: PiterConfig = PiterConfig(),
) -> Solution:
    """Solve all time levels backward from the terminal surface.

    The last level starts policy iteration from the improvement at v^N;
    every other level n starts from level n + 1's final policy, and from
    v^{n+1} raised by the least v^{n+1} - v^{n+2} over that policy's
    continuation rows, a subsolution of its system at level n.

    A PolicyIterationError, VerificationError or SolveError raised while
    solving a level is raised on, the same object with the time level put
    in front of its message.  ``metadata["per_level"]`` records each level's
    policy iteration, its ``sweeps`` counting those of the full solves and
    the ``sweep_steps`` (single-sweep steps) alike, and
    ``metadata["phase_s"]`` the seconds all levels spent in improvement, in
    ``SystemCache.load`` and in the sweeps and solves.

    ``mode`` accepts only ``"clamp"``, as ``grid.build_stencils`` does; the
    argument stays only because ``perfbench/workloads.py`` still passes it.
    """
    started = time.perf_counter()
    grid = build_grid(p, spec)
    st = build_stencils(grid, p, mode)
    n_levels = spec.n_time_steps

    v = terminal_vector(grid, p)
    _check_envelope(p, grid, n_levels, v)
    surfaces: list[ValueSurface | None] = [None] * (n_levels + 1)
    surfaces[n_levels] = ValueSurface(n_levels, grid.times[-1], v)
    policies: list[Policy | None] = [None] * n_levels
    per_level = []
    phase_s = dict.fromkeys(PHASES, 0.0)
    # The policy that ends one level usually starts the next, so its
    # splitting carries over.
    cache = SystemCache(grid, p, st)

    policy = v_after = None
    for n in range(n_levels - 1, -1, -1):
        start = v
        if policy is not None:
            # A(P) of the last policy is the same at this level, and its
            # continuation rows sum to 1 and impulse rows to 0: v^{n+1}
            # raised by the least rise v^{n+1} - v^{n+2} over the
            # continuation rows is a subsolution of this level's system.
            # A negative rise lowers the start, which keeps it one.
            rise = np.min(v - v_after, where=(policy.code & D) == 0, initial=np.inf)
            start = v + (rise if np.isfinite(rise) else 0.0)
        v_after = v
        try:
            v, policy, trace = iterate(cache, start, v, piter, policy)
        except (PolicyIterationError, VerificationError, SolveError) as exc:
            exc.args = (f"time level {n}: {exc}",)
            raise
        _check_envelope(p, grid, n, v)
        surfaces[n] = ValueSurface(n, grid.times[n], v)
        policies[n] = policy
        for phase, seconds in trace.phase_s.items():
            phase_s[phase] += seconds
        per_level.append(
            {
                "level": n,
                "iterations": trace.iterations,
                "metric": trace.stop_metrics[-1] if trace.stop_metrics else 0.0,
                "min_increment": min(trace.min_increments, default=0.0),
                "converged_by": trace.converged_by,
                "sweeps": sum(trace.sweeps) + trace.sweep_steps,
                "sweep_steps": trace.sweep_steps,
                "fallbacks": trace.fallbacks,
                "reused_solves": trace.routes.count("reused"),
                "switched_nodes": sum(trace.switched),
                "min_interior_margin": min(r.min_interior_margin for r in trace.reports),
                "min_boundary_margin": min(r.min_boundary_margin for r in trace.reports),
            }
        )
        if n % 50 == 0:
            log.debug("level %d done in %d iterations", n, trace.iterations)

    q0_rows = np.array([s.values.reshape(grid.n_q, grid.n_alpha)[grid.qs[-1]]
                        for s in surfaces])
    metadata = {
        "method": "implicit",
        "per_level": per_level[::-1],
        "horizon_monotone_q0": bool(np.all(np.diff(q0_rows, axis=0) <= 1e-9)),
        "phase_s": phase_s,
        "wall_time": time.perf_counter() - started,
    }
    return Solution(params=p, grid=grid, surfaces=surfaces, policies=policies,
                    metadata=metadata)


def explicit_cfl_factor(p: ModelParams, grid: Grid) -> float:
    """dt times the largest continuation-row rate; stability needs < 1."""
    return grid.d_t * (
        p.k * p.alpha_cap / grid.d_alpha
        + p.rho**2 / grid.d_alpha**2
        + p.lambda_a
        + p.lambda_b
    )


def _project_impulses(grid: Grid, p: ModelParams, v2d: np.ndarray):
    """Raise values to the impulse obstacle max_j' v(j') - upsilon |j - j'|.

    That is the L1 distance transform of v along inventory index j, which
    two running maxima give exactly (Felzenszwalb & Huttenlocher 2012):
    with c = upsilon * j, the source below is max_{j' < j} (v + c) - c and
    the one above max_{j' > j} (v - c) + c, -inf where there is none.
    Returns the raised values, d where the obstacle beats v, and up (z = +1)
    where d = 0 or the source above is at least as good as the one below:
    an exact tie goes up, however near the one below is.
    """
    c = p.upsilon * np.arange(grid.n_q)[:, None]
    below = np.full_like(v2d, -np.inf)
    below[1:] = np.maximum.accumulate(v2d + c)[:-1] - c[1:]
    above = np.full_like(v2d, -np.inf)
    above[:-1] = np.maximum.accumulate((v2d - c)[::-1])[::-1][1:] + c[:-1]
    best = np.maximum(above, below)
    d = best > v2d
    return np.where(d, best, v2d), d, ~d | (above >= below)


def solve_explicit_baseline(
    p: ModelParams,
    spec: GridSpec,
) -> Solution:
    """Explicit one-step scheme with the impulse max as a post-projection.

    Uses the same spatial stencils as the implicit solver.  Raises
    ExplicitInstabilityError as soon as a level leaves the stability
    envelope or stops being finite, which is the expected outcome whenever
    the CFL factor exceeds one.
    """
    started = time.perf_counter()
    grid = build_grid(p, spec)
    st = build_stencils(grid, p)
    cfl = explicit_cfl_factor(p, grid)
    n_levels = spec.n_time_steps

    v = terminal_vector(grid, p)
    surfaces: list[ValueSurface | None] = [None] * (n_levels + 1)
    surfaces[n_levels] = ValueSurface(n_levels, grid.times[-1], v)
    policies: list[Policy | None] = [None] * n_levels

    tables = scheme.StepTables(grid, p, st)
    for n in range(n_levels - 1, -1, -1):
        cont, la, lb, _, _ = scheme._branches(tables, v, v)
        v2d = v.reshape(grid.n_q, grid.n_alpha) + grid.d_t * cont
        v2d, d, up = _project_impulses(grid, p, v2d)
        v = v2d.ravel()
        if not np.isfinite(v).all():
            raise ExplicitInstabilityError(n, "non-finite values", cfl)
        lo, hi = stability_bounds(p, grid.times[n])
        if v.min() < lo - ENVELOPE_TOL or v.max() > hi + ENVELOPE_TOL:
            raise ExplicitInstabilityError(n, "stability envelope violated", cfl)
        surfaces[n] = ValueSurface(n, grid.times[n], v)
        # admissible as packed: no outward fill, and a cap's source is inward
        policies[n] = Policy(scheme._pack(la, lb, d, up).ravel())

    metadata = {
        "method": "explicit",
        "cfl_factor": cfl,
        "wall_time": time.perf_counter() - started,
    }
    return Solution(params=p, grid=grid, surfaces=surfaces, policies=policies,
                    metadata=metadata)


@dataclass(eq=False)
class RefinementResult:
    """Probe values across grid refinements and their successive differences."""

    specs: list[GridSpec]
    probes: list[tuple[float, int]]
    values: np.ndarray            # (n_grids, n_probes)
    diffs: np.ndarray             # (n_grids - 1, n_probes)

    @property
    def max_diffs(self) -> np.ndarray:
        return self.diffs.max(axis=1)


def refine_spec(spec: GridSpec) -> GridSpec:
    """Halve both steps: double the time steps, halve the alpha spacing."""
    return GridSpec(
        n_time_steps=2 * spec.n_time_steps,
        n_alpha_points=2 * spec.n_alpha_points - 1,
        alpha_cap=spec.alpha_cap,
        q_bar=spec.q_bar,
    )


def refinement_table(
    p: ModelParams,
    base_spec: GridSpec,
    probe_alphas,
    probe_qs,
    rounds: int = 3,
    piter: PiterConfig = PiterConfig(),
) -> RefinementResult:
    """Solve on ``rounds + 1`` nested grids and tabulate t = 0 probe values.

    ``rounds`` must be an integer >= 1.  Probe alphas must be nodes of the
    base grid (they then stay nodes on every refinement); probe inventories
    must be integers in [-q_bar, q_bar].  All are checked before any round
    is solved.
    """
    if isinstance(rounds, bool) or not isinstance(rounds, (int, np.integer)) or rounds < 1:
        raise ValueError(f"rounds must be an integer >= 1, got {rounds!r}")
    specs = [base_spec]
    for _ in range(rounds):
        specs.append(refine_spec(specs[-1]))
    probes = [(float(a), inventory_units(q)) for q in probe_qs for a in probe_alphas]

    base_grid = build_grid(p, base_spec)
    for a, q in probes:
        if abs(q) > base_spec.q_bar:
            raise ValueError(f"probe inventory {q} outside [-q_bar, q_bar]")
        i = base_grid.nearest_alpha_index(a)
        if abs(base_grid.alphas[i] - a) > 1e-9 * max(1.0, abs(a)):
            raise ValueError(f"probe alpha {a} is not a node of the base grid")

    values = np.empty((len(specs), len(probes)))
    for r, s in enumerate(specs):
        sol = solve_backward(p, s, piter=piter)
        g = sol.grid
        v0 = sol.surfaces[0].values.reshape(g.n_q, g.n_alpha)
        for c, (a, q) in enumerate(probes):
            values[r, c] = v0[q + g.qs[-1], g.nearest_alpha_index(a)]
        # free this round's surfaces before the next, larger solve
        del sol, v0
        log.debug("refinement round %d (N=%d, n_alpha=%d) done", r,
                  s.n_time_steps, s.n_alpha_points)

    diffs = np.abs(np.diff(values, axis=0))
    return RefinementResult(specs=specs, probes=probes, values=values, diffs=diffs)
