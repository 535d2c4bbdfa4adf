"""Path simulation and the policy-replay estimator.

The estimator is itself a validator, so these tests lean on structural
invariants (cash conservation, inventory caps, CLT scaling) plus a
deterministic degenerate model where the realized objective has a closed
form.
"""

import dataclasses
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import mmqvi
from mmqvi import (
    GridSpec,
    Policy,
    SimulationError,
    estimate_performance,
    simulate_path,
    solve_backward,
)
from mmqvi.montecarlo import _first_arrivals, _next_jump

from conftest import quiet_params


@pytest.fixture(scope="module")
def frozen_sol():
    """Near-deterministic model: negligible noise, jumps, and order flow."""
    tiny = 1e-12
    p = quiet_params(
        T=1.0,
        sigma=0.01,
        theta=tiny,
        delta=0.005,
        eps=0.005,
        lambda_a=tiny,
        lambda_b=tiny,
        k=1.0,
        rho=tiny,
        gamma_a=0.5,
        gamma_b=0.5,
        phi=0.1,
        psi=0.05,
        q_bar=1,
        alpha_cap=1.0,
    )
    return p, solve_backward(p, GridSpec(10, 5, 1.0, 1))


def test_eventless_path_matches_the_closed_form_objective(frozen_sol):
    p, sol = frozen_sol
    rec = simulate_path(p, sol, (2.0, 100.0, 0.0, 1), seed=0)
    # With no fills coming, holding costs phi*T + psi on top of the same
    # liquidation fee, so the policy sells the unit at t = 0 for s - upsilon
    # and J = x + s - upsilon with zero accrued penalty.
    assert rec.realized_objective == pytest.approx(101.99, abs=1e-9)
    assert rec.running_penalty == pytest.approx(0.0, abs=1e-12)
    assert rec.own_order_cash == [(0.0, -1, pytest.approx(99.99, abs=1e-12))]
    assert rec.fill_cash == []
    assert rec.ext_buy_times == [] and rec.ext_sell_times == []
    assert rec.jump_up_times == [] and rec.jump_down_times == []
    assert rec.chatter_capped == 0
    t0, x0, s0, a0, q0 = rec.trajectory[0]
    assert (t0, x0, s0, a0, q0) == (0.0, 2.0, 100.0, 0.0, 1)
    t_end, x_end, s_end, _, q_end = rec.trajectory[-1]
    assert t_end == p.T and x_end == pytest.approx(101.99) and q_end == 0
    assert s_end == 100.0


def test_single_path_estimate_agrees_with_the_liquidation_value(frozen_sol):
    p, sol = frozen_sol
    report = estimate_performance(p, sol, (2.0, 100.0, 0.0, 1), 1, seed=0)
    assert report.n_paths == 1
    assert report.stderr == 0.0
    assert report.mean == pytest.approx(101.99, abs=1e-9)
    # x + q s + v(0, 0, 1) with v = -upsilon: the deterministic path realizes
    # the predicted value exactly, so the degenerate z-score guard fires
    assert report.predicted == pytest.approx(101.99, abs=1e-9)
    assert report.zscore == 0.0


def test_cash_ledger_reconciles_with_terminal_wealth(fast_params, fast_sol):
    for seed in range(12):
        rec = simulate_path(fast_params, fast_sol, (0.0, 100.0, 12.0, 1), seed=seed)
        cash = sum(c for _, c in rec.fill_cash)
        cash += sum(c for _, _, c in rec.own_order_cash)
        assert rec.trajectory[-1][1] == pytest.approx(cash, abs=1e-9)


def test_inventory_and_alpha_stay_inside_their_bands(fast_params, fast_sol):
    for seed in range(12):
        rec = simulate_path(fast_params, fast_sol, (0.0, 100.0, -5.0, 0), seed=seed)
        qs = [entry[4] for entry in rec.trajectory]
        alphas = [entry[3] for entry in rec.trajectory]
        assert max(map(abs, qs)) <= fast_params.q_bar
        assert max(map(abs, alphas)) <= fast_params.alpha_cap + 1e-12
        assert rec.chatter_capped == 0


def test_initial_impulse_cascade_unwinds_a_mispositioned_book(
    fast_params, fast_sol
):
    # Long two units against a strongly negative signal: the policy fires
    # successive sell market orders at t = 0 before any randomness acts.
    rec = simulate_path(fast_params, fast_sol, (0.0, 100.0, -30.0, 2), seed=3)
    at_start = [(z, c) for t, z, c in rec.own_order_cash if t == 0.0]
    assert len(at_start) == 3
    assert all(z == -1 for z, _ in at_start)
    assert all(
        c == pytest.approx(100.0 - fast_params.upsilon) for _, c in at_start
    )


def test_estimates_are_reproducible_and_seed_sensitive(fast_params, fast_sol):
    # From a flat book about 3.7% of paths trade at all, so 50 paths all
    # realize exactly zero (stderr 0) on about 17% of seeds; 400 paths do so
    # with probability below 1e-6.
    a = estimate_performance(fast_params, fast_sol, (0.0, 100.0, 0.0, 0), 400, seed=5)
    b = estimate_performance(fast_params, fast_sol, (0.0, 100.0, 0.0, 0), 400, seed=5)
    c = estimate_performance(fast_params, fast_sol, (0.0, 100.0, 0.0, 0), 400, seed=6)
    assert a.mean == b.mean and a.stderr == b.stderr
    assert a.mean != c.mean
    assert a.stderr > 0.0
    assert np.isfinite(a.zscore)


def test_stderr_shrinks_like_root_n(fast_params, fast_sol):
    """The reported stderr is the spread of the mean at n and at 4n paths.

    At each path count, the variance of the means of independent seeds over
    their mean reported stderr^2 is F distributed, with degrees of freedom
    shrunk for the excess kurtosis (Shoemaker 2003), which the spread of the
    reported stderr^2 across seeds estimates.  The false-failure budget of
    1e-4 is split evenly over the two path counts.  Paths that share draws,
    say every path reusing one path's jump budgets, make the means vary far
    more than stderr^2 says.
    """
    y0 = (0.0, 100.0, 12.0, 1)
    n_seeds, level = 20, 1e-4 / 2
    for n in (100, 400):
        reports = [estimate_performance(fast_params, fast_sol, y0, n, seed=seed)
                   for seed in range(n_seeds)]
        means = np.array([r.mean for r in reports])
        se2 = np.array([r.stderr**2 for r in reports])
        # var(s^2)/sigma^4 = 2/(n-1) + kurtosis/n, for the paths and the means
        kurtosis = max(n * (se2.var(ddof=1) / se2.mean() ** 2 - 2.0 / (n - 1)), 0.0)
        dof_means = 2.0 / (2.0 / (n_seeds - 1) + kurtosis / (n * n_seeds))
        dof_se2 = 2.0 * n_seeds / (2.0 / (n - 1) + kurtosis / n)
        lo, hi = stats.f.ppf([level / 2, 1.0 - level / 2], dof_means, dof_se2)
        assert lo <= means.var(ddof=1) / se2.mean() <= hi, n


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_replayed_policy_is_consistent_with_the_pde_value(
    fast_params, fast_sol, seed
):
    report = estimate_performance(
        fast_params, fast_sol, (0.0, 100.0, 0.0, 0), 400, seed=seed
    )
    assert abs(report.zscore) <= 3.0


def test_solved_policy_beats_doing_nothing(params6, sol6):
    y0 = (0.0, 100.0, 0.0, 0)
    active = estimate_performance(params6, sol6, y0, 500, seed=7)
    zeros = np.zeros(sol6.grid.n_nodes, dtype=np.int8)
    null = Policy.of(zeros, zeros, np.ones_like(zeros), zeros)
    idle_sol = dataclasses.replace(sol6, policies=[null] * len(sol6.policies))
    idle = estimate_performance(params6, idle_sol, y0, 500, seed=7)
    # From flat inventory the null policy never trades: every path realizes
    # exactly zero, which also exercises the zero-stderr guard.
    assert idle.mean == 0.0
    assert idle.stderr == 0.0
    assert np.isinf(idle.zscore)  # predicted value is positive
    spread = 3.0 * np.hypot(active.stderr, idle.stderr)
    assert active.mean >= idle.mean - spread
    assert active.predicted > 0.0


def test_bad_inputs_are_rejected(fast_params, fast_sol):
    with pytest.raises(SimulationError, match="inventory"):
        simulate_path(fast_params, fast_sol, (0.0, 100.0, 0.0, 5), seed=0)
    for n_paths in (0, 10.0, True, "10", np.int64(0), np.bool_(True)):
        with pytest.raises(ValueError, match="n_paths must be an integer >= 1"):
            estimate_performance(fast_params, fast_sol, (0.0, 100.0, 0.0, 0), n_paths, seed=0)
    for field, y0 in (("x0", (np.nan, 100.0, 0.0, 0)), ("s0", (0.0, np.inf, 0.0, 0)),
                      ("alpha0", (0.0, 100.0, np.nan, 0))):
        with pytest.raises(ValueError, match=f"start state {field} must be finite"):
            estimate_performance(fast_params, fast_sol, y0, 10, seed=0)
        with pytest.raises(ValueError, match=f"start state {field} must be finite"):
            simulate_path(fast_params, fast_sol, y0, seed=0)


def test_numpy_integer_path_counts_are_accepted(fast_params, fast_sol):
    # as refinement_table takes a NumPy integer for ``rounds``
    y0 = (0.0, 100.0, 0.0, 0)
    report = estimate_performance(fast_params, fast_sol, y0, np.int64(50), seed=3)
    assert type(report.n_paths) is int
    assert report == estimate_performance(fast_params, fast_sol, y0, 50, seed=3)


def test_replay_counts_in_the_frozen_model(frozen_sol):
    p, sol = frozen_sol
    # flat book at alpha = 0: nothing happens on any path
    idle = estimate_performance(p, sol, (0.0, 100.0, 0.0, 0), 200, seed=0)
    assert idle.mean == 0.0
    assert idle.events_per_path == 0.0 and idle.own_orders_per_path == 0.0
    # one unit long: the maker sells it at t = 0, whose bump alpha = -gamma_b
    # then decays and drives down-ticks at rate gamma_b*exp(-k*t), so each
    # path sees a Poisson number of jumps with the mean below
    n = 4000
    report = estimate_performance(p, sol, (2.0, 100.0, 0.0, 1), n, seed=0)
    assert report.mean == pytest.approx(101.99, abs=1e-9)
    assert report.own_orders_per_path == 1.0
    assert report.chatter_capped == 0
    expected = p.gamma_b * (1.0 - np.exp(-p.k * p.T)) / p.k
    assert abs(report.events_per_path - expected) <= 4.5 * np.sqrt(expected / n)


def test_a_step_end_moves_the_path_to_the_next_policy(frozen_sol):
    # idle for steps 0..3, then every q = 1 node sells: the unit goes at the
    # end of step 3, t_4 = 0.4, after accruing phi * t_4 of holding penalty
    p, sol = frozen_sol
    g, s_first = sol.grid, 4
    zeros = np.zeros(g.n_nodes, dtype=np.int8)
    sell = (g.q_of_node == 1).astype(np.int8)
    idle = Policy.of(zeros, zeros, np.ones_like(zeros), zeros)
    seller = Policy.of(zeros, zeros, 1 - 2 * sell, sell)
    policies = [idle] * s_first + [seller] * (len(sol.policies) - s_first)
    staged = dataclasses.replace(sol, policies=policies)
    y0 = (2.0, 100.0, 0.0, 1)
    expected = 2.0 + 100.0 - p.upsilon - p.phi * g.times[s_first]
    report = estimate_performance(p, staged, y0, 50, seed=0)
    assert report.own_orders_per_path == 1.0
    assert report.mean == pytest.approx(expected, abs=1e-9)
    rec = simulate_path(p, staged, y0, seed=0)
    assert rec.realized_objective == pytest.approx(expected, abs=1e-9)
    assert [t for t, _, _ in rec.own_order_cash] == [g.times[s_first]]


def test_solved_policy_never_hits_the_cascade_cap(fast_params, fast_sol):
    for y0 in [(0.0, 100.0, 0.0, 0), (0.0, 100.0, -30.0, 2), (0.0, 100.0, 12.0, 1)]:
        report = estimate_performance(fast_params, fast_sol, y0, 300, seed=4)
        assert report.chatter_capped == 0
        assert report.events_per_path > 0.0


def test_estimate_rejects_an_inventory_outside_the_cap(fast_params, fast_sol):
    with pytest.raises(SimulationError, match="inventory"):
        estimate_performance(fast_params, fast_sol, (0.0, 100.0, 0.0, 5), 10, seed=0)


def test_replays_reject_a_fractional_inventory(fast_params, fast_sol):
    # a fractional inventory was once truncated: q = 0.5 replayed q = 0
    # paths against the value predicted at q = 0.5
    for q in (0.5, -0.9):
        with pytest.raises(ValueError, match=f"inventory {q} is not an integer"):
            estimate_performance(fast_params, fast_sol, (0.0, 100.0, 0.0, q), 10, seed=0)
        with pytest.raises(ValueError, match=f"inventory {q} is not an integer"):
            simulate_path(fast_params, fast_sol, (0.0, 100.0, 0.0, q), seed=0)
    # an integral float is the integer inventory
    whole, one = (estimate_performance(fast_params, fast_sol, (0.0, 100.0, 0.0, q), 10, seed=0)
                  for q in (1.0, 1))
    assert whole == one
    assert simulate_path(fast_params, fast_sol, (0.0, 100.0, 0.0, 1.0), seed=0).y0[3] == 1


@pytest.mark.parametrize("theta", [0.1, 1e-12, 2.0])
def test_vectorized_jump_times_match_the_scalar_inversion(theta):
    rng = np.random.default_rng(0)
    k = 200.0
    c = rng.uniform(0.0, 2.0, 500)
    c[:50] = 0.0
    window = rng.uniform(0.0, 0.05, 500)
    total = theta * window + c * (1.0 - np.exp(-k * window))
    budget = rng.uniform(0.0, 1.0, 500) * total
    roots = _first_arrivals(theta, c, k, budget, window)
    expected = [_next_jump(theta, *args) for args in zip(c, [k] * 500, budget, window)]
    np.testing.assert_allclose(roots, expected, rtol=0.0, atol=1e-12)


def test_closed_form_arrivals_solve_the_clock_across_the_parameter_range():
    """Each w solves theta*w + c*(1 - exp(-k*w)) = budget to rounding.

    Checked against the equation, not against ``_next_jump``: where the
    intensity is flat, Newton's stop rule leaves w looser than the closed form.
    """
    rng = np.random.default_rng(2)
    for _ in range(400):
        theta, k = 10.0 ** rng.uniform(-12.0, 2.0), 10.0 ** rng.uniform(-2.0, 4.0)
        c = np.where(np.arange(100) < 10, 0.0, 10.0 ** rng.uniform(-6.0, 1.0, 100))
        window = 10.0 ** rng.uniform(-4.0, 1.0, 100)
        budget = rng.uniform(0.0, 1.0, 100) * (theta * window - c * np.expm1(-k * window))
        w = _first_arrivals(theta, c, k, budget, window)
        residual = theta * w - c * np.expm1(-k * w) - budget
        assert np.all(np.abs(residual) <= 1e-12 * (1.0 + budget)), (theta, k)
        assert np.all((0.0 <= w) & (w <= window))
        assert np.array_equal(w[c == 0.0], budget[c == 0.0] / theta)


def test_importing_mmqvi_leaves_scipy_special_unloaded():
    # the replay loads scipy.special on first use; loaded at import, it
    # would add about 45 ms and 2.5 MB to every process, solves included
    src = str(Path(mmqvi.__file__).resolve().parents[1])
    code = "import sys, mmqvi; print([m for m in sys.modules if m.startswith('scipy.special')])"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_event_counts_match_the_signal_free_rates():
    # gamma and rho so small that alpha stays at 0: orders arrive at
    # lambda_a + lambda_b and price jumps at theta in each direction
    tiny = 1e-12
    p = quiet_params(
        T=1.0, sigma=0.01, theta=5.0, delta=0.005, eps=0.005,
        lambda_a=1.0, lambda_b=2.0, k=1.0, rho=tiny, gamma_a=tiny,
        gamma_b=tiny, phi=0.1, psi=0.05, q_bar=1, alpha_cap=1.0,
    )
    sol = solve_backward(p, GridSpec(10, 5, 1.0, 1))
    n = 2000
    report = estimate_performance(p, sol, (0.0, 100.0, 0.0, 0), n, seed=0)
    expected = (2.0 * p.theta + p.lambda_a + p.lambda_b) * p.T
    assert abs(report.events_per_path - expected) <= 4.5 * np.sqrt(expected / n)


@pytest.fixture(scope="module")
def busy_model(fast_params):
    """fast_params with about four external orders per time step, so the
    replay's later rounds and post-order cascades see real traffic."""
    p = quiet_params(**{**asdict(fast_params), "lambda_a": 20.0, "lambda_b": 20.0})
    return p, solve_backward(p, GridSpec(10, 31, 30.0, 2))


@pytest.fixture(scope="module")
def fast_model(fast_params, fast_sol):
    return fast_params, fast_sol


@pytest.mark.parametrize("model", ["fast_model", "busy_model"])
def test_batched_replay_agrees_with_the_scalar_simulator(model, request):
    """estimate_performance and simulate_path sample the same law.

    The thresholds follow from a false-failure budget of 1e-4, fixed in
    advance and split evenly over three checks: the objective means (normal
    approximation), the objective variances (F approximation with degrees of
    freedom shrunk for the excess kurtosis, Shoemaker 2003) and the mean own
    orders per path (normal approximation).  A fourth check, the mean events
    per path (external orders plus price jumps, normal approximation), has
    its own budget of 1e-4 / 3.  So a correct replay fails this test with
    probability at most 4e-4 / 3.
    """
    p, sol = request.getfixturevalue(model)
    y0 = (0.0, 100.0, 12.0, 1)
    seed, n_scalar, n_batched = 1, 2000, 8000
    level = 1e-4 / 3
    z_limit = stats.norm.isf(level / 2)  # 4.15
    records = [
        simulate_path(p, sol, y0, child)
        for child in np.random.SeedSequence(seed).spawn(n_scalar)
    ]
    scalar = np.array([rec.realized_objective for rec in records])
    batched = estimate_performance(p, sol, y0, n_batched, seed=seed)

    var_scalar = scalar.var(ddof=1)
    z = (batched.mean - scalar.mean()) / np.hypot(
        batched.stderr, np.sqrt(var_scalar / n_scalar)
    )
    assert abs(z) <= z_limit

    # var(s^2)/sigma^4 = 2/(n-1) + kurtosis/n sets the effective chi^2 dof
    kurtosis = max(float(stats.kurtosis(scalar)), 0.0)
    dof = [2.0 / (2.0 / (n - 1) + kurtosis / n) for n in (n_batched, n_scalar)]
    lo, hi = stats.f.ppf([level / 2, 1.0 - level / 2], *dof)
    assert lo <= batched.stderr**2 * n_batched / var_scalar <= hi

    # the scalar counts' variance stands in for the batched one (same law)
    own = np.array([len(rec.own_order_cash) for rec in records])
    se = np.sqrt(own.var(ddof=1) * (1.0 / n_scalar + 1.0 / n_batched))
    assert abs(batched.own_orders_per_path - own.mean()) <= z_limit * se

    events = np.array([
        len(rec.ext_buy_times) + len(rec.ext_sell_times)
        + len(rec.jump_up_times) + len(rec.jump_down_times)
        for rec in records
    ])
    se = np.sqrt(events.var(ddof=1) * (1.0 / n_scalar + 1.0 / n_batched))
    assert abs(batched.events_per_path - events.mean()) <= z_limit * se
