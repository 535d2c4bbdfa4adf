"""Policy evaluation by regular splitting: the splitting gathered from the
split row types, impulse-chain closure, monotone sweeps, the residual
contract, agreement with sparse LU, and the bounded LU fallback."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as hst  # noqa: E402

import mmqvi  # noqa: E402
import mmqvi.linsolve  # noqa: E402
import mmqvi.policy_iteration  # noqa: E402
import mmqvi.solver  # noqa: E402
from conftest import (  # noqa: E402
    SPLIT_MATCH_FACTOR,
    admissible,
    first_sweep_meeting,
    quiet_params,
    residual_norm,
    residual_rounding,
    split_match_ratio,
    splitting_of,
)
from mmqvi import (  # noqa: E402
    GridSpec,
    PiterConfig,
    assemble_system,
    build_grid,
    build_stencils,
    iterate,
    solve_backward,
)
from mmqvi.linsolve import SolveError, Splitting, solve  # noqa: E402
from mmqvi.policy_iteration import SystemCache  # noqa: E402
from mmqvi.solver import terminal_vector  # noqa: E402

TOL = PiterConfig().solver_tol


@hst.composite
def step_problems(draw, min_q_bar=1):
    """A small random valid model, grid and policy in clamp mode (so A(P) is
    an M-matrix); returns (grid, p, st, policy, seed).  When q_bar >= 2 the
    policy impulses from q = +/-2 through q = +/-1 at one alpha node, an
    impulse chain of 2 links."""
    rate = hst.floats(0.1, 5.0)
    alpha_cap = draw(hst.floats(0.5, 5.0))
    q_bar = draw(hst.integers(min_q_bar, 3))
    p = quiet_params(
        T=draw(hst.floats(0.05, 5.0)), sigma=draw(hst.floats(1e-3, 1.0)),
        theta=0.1, delta=draw(hst.floats(0.0, 0.05)), eps=0.005,
        lambda_a=draw(rate), lambda_b=draw(rate), k=draw(rate), rho=draw(rate),
        gamma_a=draw(hst.floats(0.05, alpha_cap)),
        gamma_b=draw(hst.floats(0.05, alpha_cap)),
        phi=draw(hst.floats(0.0, 0.1)), psi=draw(hst.floats(0.0, 0.1)),
        q_bar=q_bar, alpha_cap=alpha_cap,
    )
    # at least T*(lambda_a + lambda_b)/2 steps, so dt*(lambda_a + lambda_b) <= 2
    n_steps = max(draw(hst.integers(1, 5)), math.ceil(p.T * (p.lambda_a + p.lambda_b) / 2))
    spec = GridSpec(n_steps, draw(hst.sampled_from([3, 5, 7, 9])), alpha_cap, q_bar)
    grid = build_grid(p, spec)
    seed = draw(hst.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    la, lb, d, zbit = rng.integers(0, 2, (4, grid.n_nodes))
    if q_bar >= 2:
        q = rng.choice([1, -1]) * np.array([1, 2])
        d[(q + q_bar) * grid.n_alpha + rng.integers(grid.n_alpha)] = 1
    policy = admissible(grid, la, lb, d, zbit)
    return grid, p, build_stencils(grid, p, "clamp"), policy, seed


@hst.composite
def step_systems(draw):
    """The step system of ``step_problems``; returns (A, b, seed)."""
    grid, p, st, policy, seed = draw(step_problems())
    system = assemble_system(grid, p, st, policy, terminal_vector(grid, p))
    return system.matrix, system.rhs, seed


@settings(max_examples=60, deadline=None)
@given(step_systems())
def test_sweeps_rise_from_a_subsolution_to_the_lu_solution(case):
    a, b, seed = case
    exact = solve(a, b).solution
    # A x0 = b - c <= b with c >= 0: x0 is a subsolution
    c = np.random.default_rng(seed).uniform(0.0, 10.0, b.size)
    x0 = solve(a, b - c).solution
    split = splitting_of(a)
    assert split.n_part.min() >= 0.0  # a regular splitting

    x = x0
    for _ in range(12):
        x_new = split.sweep(x, b)
        assert (x_new - x).min() >= -10.0 * TOL
        x = x_new

    report = split.solve(b, x0)
    assert report.method == "splitting"
    assert (report.solution - x0).min() >= -10.0 * TOL
    assert abs(report.residual_norm - residual_norm(a, b, report.solution)) <= (
        residual_rounding(a, b, report.solution)
    )
    assert report.residual_norm <= TOL * (1.0 + np.abs(b).max())
    assert split_match_ratio(report.solution, exact, b) <= SPLIT_MATCH_FACTOR


def gathered_splitting(grid, p, st, policy):
    """The splitting a solve's cache gathers for ``policy``."""
    cache = SystemCache(grid, p, st)
    cache.load(policy)
    return cache.split


@settings(max_examples=60, deadline=None)
@given(step_problems(min_q_bar=2))
def test_gathered_closed_sweeps_rise_to_the_lu_solution(case):
    grid, p, st, policy, seed = case
    system = assemble_system(grid, p, st, policy, terminal_vector(grid, p))
    a, b = system.matrix, system.rhs
    split = gathered_splitting(grid, p, st, policy)
    # M - N is A(P) entry for entry, and a chain of 2 links is closed
    assert (split.matrix() - a).nnz == 0
    starts, _, (k, _) = split.chains
    np.testing.assert_array_equal(starts, np.flatnonzero(system.impulse_mask))
    assert np.bincount(k).max() >= 2

    exact = solve(a, b).solution
    c = np.random.default_rng(seed).uniform(0.0, 10.0, b.size)
    x0 = solve(a, b - c).solution  # a subsolution
    x = x0
    for _ in range(12):
        x_new = split.sweep(x, b)
        assert (x_new - x).min() >= -10.0 * TOL
        r = a @ x_new - b
        assert np.abs(r[system.impulse_mask]).max() <= residual_rounding(a, b, x_new)
        x = x_new

    report = split.solve(b, x0)
    assert report.method == "splitting"
    # closing the chains moves the residual next to each chain start, and
    # the solve still stops at the first sweep whose full residual meets
    # the contract
    assert report.iterations == first_sweep_meeting(split, b, x0)
    assert (report.solution - x0).min() >= -10.0 * TOL
    assert residual_norm(a, b, report.solution) <= TOL * (1.0 + np.abs(b).max())
    assert split_match_ratio(report.solution, exact, b) <= SPLIT_MATCH_FACTOR


def test_each_solve_starts_from_a_subsolution_above_the_last(fast_params, fast_spec,
                                                            monkeypatch):
    # a start with A x0 <= b is what makes the sweeps, and so policy
    # iteration, monotone: every solve starts from one, at or above the
    # solution of the level's previous solve
    levels = []
    real_iterate, real_solve = mmqvi.solver.iterate, Splitting.solve

    def recording_iterate(*args, **kwargs):
        levels.append([])
        return real_iterate(*args, **kwargs)

    def recording_solve(self, rhs, x0=None):
        excess = float((self.matrix() @ x0 - rhs).max())
        report = real_solve(self, rhs, x0)
        levels[-1].append((x0.copy(), excess / (1.0 + np.abs(rhs).max()), report.solution))
        return report

    monkeypatch.setattr(mmqvi.solver, "iterate", recording_iterate)
    monkeypatch.setattr(Splitting, "solve", recording_solve)
    solve_backward(fast_params, fast_spec)
    assert len(levels) == fast_spec.n_time_steps
    assert sum(len(solves) >= 2 for solves in levels) >= 5
    for solves in levels:
        assert all(relative_excess <= TOL for _, relative_excess, _ in solves)
        for (_, _, previous), (start, _, _) in zip(solves, solves[1:]):
            assert (start - previous).min() >= -10.0 * TOL


def lu_ratios(sol, p):
    """Per level, ``split_match_ratio`` of the surface against a sparse-LU
    solve of the level's final policy system."""
    st = build_stencils(sol.grid, p, "clamp")
    ratios = []
    for n, policy in enumerate(sol.policies):
        system = assemble_system(sol.grid, p, st, policy, sol.surfaces[n + 1].values)
        exact = solve(system.matrix, system.rhs).solution
        ratios.append(split_match_ratio(sol.surfaces[n].values, exact, system.rhs))
    return ratios


# dt * (lambda_a + lambda_b) = 2 and 20 at the reference parameters
@pytest.mark.parametrize("n_steps", [10, 1])
def test_large_steps_sweep_monotonically_without_fallback(params6, n_steps):
    sol = solve_backward(params6, GridSpec(n_steps, 21, params6.alpha_cap, params6.q_bar))
    levels = sol.metadata["per_level"]
    assert all(e["min_increment"] >= -10.0 * TOL for e in levels)
    assert sum(e["fallbacks"] for e in levels) == 0
    assert sum(e["sweeps"] for e in levels) > 0
    assert max(lu_ratios(sol, params6)) <= SPLIT_MATCH_FACTOR


def test_sweeps_past_the_budget_fall_back_to_lu(params6, monkeypatch):
    lu_calls = []
    monkeypatch.setattr(mmqvi.linsolve, "SWEEP_BUDGET", 4)
    monkeypatch.setattr(
        mmqvi.linsolve, "solve", lambda *a: lu_calls.append(1) or solve(*a)
    )
    sol = solve_backward(params6, GridSpec(1, 21, params6.alpha_cap, params6.q_bar))
    (level,) = sol.metadata["per_level"]
    assert level["fallbacks"] == len(lu_calls) > 0
    assert level["min_increment"] >= -10.0 * TOL
    # the fallback met the contract on the level's final system
    st = build_stencils(sol.grid, params6, "clamp")
    system = assemble_system(sol.grid, params6, st, sol.policies[0], sol.surfaces[1].values)
    res = residual_norm(system.matrix, system.rhs, sol.surfaces[0].values)
    assert res <= TOL * (1.0 + np.abs(system.rhs).max())


def test_a_missed_fallback_raises(toy_grid, toy_params, toy_stencils, monkeypatch):
    def missing_solve(*args):
        raise SolveError("injected miss")

    monkeypatch.setattr(mmqvi.linsolve, "SWEEP_BUDGET", 0)
    monkeypatch.setattr(mmqvi.linsolve, "solve", missing_solve)
    m = toy_grid.n_nodes
    pol = admissible(toy_grid, *np.zeros((4, m), dtype=np.int64))
    monkeypatch.setattr(mmqvi.policy_iteration, "improve_policy", lambda *a: pol)
    v_next = terminal_vector(toy_grid, toy_params)
    with pytest.raises(SolveError, match="injected"):
        iterate(SystemCache(toy_grid, toy_params, toy_stencils), v_next - 1e3, v_next)
