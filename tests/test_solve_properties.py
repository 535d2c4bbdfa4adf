"""Whole backward solves on random small clamp-mode problems: the stability
envelope, monotone policy iteration, complementarity at every level,
reflection symmetry of symmetric models, and one admissible byte per node
for every level's policy."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, example, given, settings  # noqa: E402
from hypothesis import strategies as hst  # noqa: E402

from mmqvi import (  # noqa: E402
    GridSpec, PiterConfig, build_stencils, solve_backward, stability_bounds,
)
from mmqvi.policy_iteration import _check_complementarity  # noqa: E402
from mmqvi.scheme import StepTables  # noqa: E402

from conftest import quiet_params  # noqa: E402


@hst.composite
def small_problems(draw):
    """A random valid model and clamp-mode grid with n_alpha <= 21, at most
    10 steps, q_bar <= 3 and dt*(lambda_a + lambda_b) <= 2; returns (p,
    spec, symmetric).  Half of them are symmetric: gamma_a = gamma_b and
    lambda_a = lambda_b."""
    symmetric = draw(hst.booleans())
    rate = hst.floats(0.1, 10.0)
    lambda_a = draw(rate)
    lambda_b = lambda_a if symmetric else draw(rate)
    alpha_cap = draw(hst.floats(0.5, 50.0))
    gamma = hst.floats(0.01, 1.5).map(lambda share: share * alpha_cap)
    gamma_a = draw(gamma)
    gamma_b = gamma_a if symmetric else draw(gamma)
    n_steps = draw(hst.integers(1, 10))
    # T up to the horizon at which dt*(lambda_a + lambda_b) reaches 2
    T = draw(hst.floats(0.01, 1.0)) * 2.0 * n_steps / (lambda_a + lambda_b)
    p = quiet_params(
        T=T, sigma=draw(hst.floats(1e-3, 1.0)), theta=0.1,
        delta=draw(hst.floats(0.0, 0.05)), eps=draw(hst.floats(1e-4, 0.05)),
        lambda_a=lambda_a, lambda_b=lambda_b, k=draw(rate),
        rho=draw(hst.floats(0.01, 10.0)), gamma_a=gamma_a, gamma_b=gamma_b,
        phi=draw(hst.floats(0.0, 0.1)), psi=draw(hst.floats(0.0, 0.1)),
        q_bar=draw(hst.integers(1, 3)), alpha_cap=alpha_cap,
    )
    spec = GridSpec(n_steps, draw(hst.sampled_from(range(3, 22, 2))), alpha_cap, p.q_bar)
    return p, spec, symmetric


def pinned(spec, **fields):
    """A ``small_problems`` case, not symmetric, at these fields and 1 or
    its lower bound elsewhere."""
    base = dict(T=1.0, sigma=1e-3, theta=0.1, delta=0.0, eps=0.005, lambda_a=1.0,
                lambda_b=1.0, k=1.0, rho=1.0, gamma_a=1.0, gamma_b=1.0, phi=0.0, psi=0.0)
    return quiet_params(**{**base, **fields}), spec, False


@settings(max_examples=150, deadline=None)
@given(small_problems())
# A level started from the last level's policy must improve once before it
# stops: a metric stop right after its first solve misses complementarity
# by 6.0e-03 here.
@example(pinned(GridSpec(2, 3, 1.0, 1), psi=0.0625, q_bar=1, alpha_cap=1.0, T=0.5))
# A level's first sweeps start from a subsolution: from the extrapolation
# v^{n+1} + (v^{n+1} - v^{n+2}) the iterate decreases by 1.1 at level 1 here.
@example(pinned(GridSpec(3, 3, 17.0, 1), k=0.109375, gamma_a=17.0, gamma_b=17.0,
                sigma=1.0, q_bar=1, alpha_cap=17.0, T=3.0))
# A tie flips one node's code between two values that select the same rows
# (z at a d = 0 node) at every improvement: a loop that compared codes took
# single sweeps on an unchanged system until its 200-step budget ran out.
@example((quiet_params(T=0.007262511282395189, sigma=0.59375, theta=0.1,
                       delta=0.016240836962858878, eps=0.028023242255882878,
                       lambda_a=8.350072773537175, lambda_b=8.350072773537175,
                       k=8.215386449734194, rho=6.133875752959246,
                       gamma_a=0.7770182894376504, gamma_b=0.7770182894376504,
                       phi=0.010907513857400833, psi=0.0028238788693196524, q_bar=2,
                       alpha_cap=0.623046875),
          GridSpec(2, 19, 0.623046875, 2), True))
@example((quiet_params(T=0.11434030866612248, sigma=0.07376478876180251, theta=0.1,
                       delta=0.0078125, eps=0.03515625, lambda_a=6.5, lambda_b=6.5, k=0.5,
                       rho=2.0, gamma_a=1.0755157470703125, gamma_b=1.0755157470703125,
                       phi=0.015625, psi=0.0, q_bar=2, alpha_cap=0.744140625),
          GridSpec(1, 21, 0.744140625, 2), True))
def test_random_solves_keep_the_solver_invariants(case):
    p, spec, symmetric = case
    # raises on a hard verification failure, an iterate that decreases by
    # more than 10x the solver tolerance, a metric stop whose
    # complementarity residual exceeds its bound, or a level outside the
    # envelope
    sol = solve_backward(p, spec)
    levels = sol.metadata["per_level"]
    event("a level stopped on the metric" if any(e["converged_by"] == "metric" for e in levels)
          else "every level stopped on a repeated policy")
    # every level, whatever its stop, solves the step's complementarity
    # problem: its scheme.residual is within _check_complementarity's bound
    tables = StepTables(sol.grid, p, build_stencils(sol.grid, p, "clamp"))
    for later, surface in zip(sol.surfaces[1:], sol.surfaces):
        _check_complementarity(tables, surface.values, later.values)

    for surface in sol.surfaces:
        lo, hi = stability_bounds(p, surface.t)
        assert lo - 1e-8 <= surface.values.min() and surface.values.max() <= hi + 1e-8
    assert min(e["min_increment"] for e in levels) >= -10.0 * PiterConfig.solver_tol
    # every level's policy is one admissible byte per node
    for pol in sol.policies:
        assert pol.code.dtype == np.uint8 and pol.code.nbytes == sol.grid.n_nodes
        pol.validate(sol.grid)

    if symmetric:
        g = sol.grid
        v = np.array([s.values for s in sol.surfaces]).reshape(-1, g.n_q, g.n_alpha)
        gap = float(np.abs(v - v[:, ::-1, ::-1]).max())
        assert gap <= 1e-8 * max(1.0, float(np.abs(v).max()))
