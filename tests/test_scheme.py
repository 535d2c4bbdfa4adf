"""Discrete operator assembly: rows, residuals, and frozen-policy oracles.

The strongest checks here hold the policy fixed and compare the assembled
backward solve against closed forms.  For a value surface linear in alpha the
shift stencils, the one-sided drift, and the vanishing diffusion are all
exact away from the cap; clamping a shift target to the cap node perturbs
only the rows near it.  The reflection symmetry of the problem cancels that
perturbation on the centre column alpha = 0, which must reproduce the closed
form to rounding error, and the rest of the surface must stay within 1e-4
of it.  The quote-everywhere surface additionally couples inventory levels
and is checked against an independent coefficient recursion in
(alpha-slope, intercept) form.
"""

import numpy as np
import pytest

from mmqvi import GridSpec, Policy, assemble_system, build_grid, build_stencils
from mmqvi.linsolve import solve
from mmqvi.model import terminal_value
from mmqvi.policy_iteration import SystemCache
from mmqvi.scheme import StepTables, residual
from mmqvi.solver import terminal_vector

from conftest import quiet_params
from oracles import (
    apply_caps,
    assemble_rhs,
    continuation_row,
    flatten,
    impulse_row,
    residual_at_node,
    unflatten,
)


def null_policy(grid):
    zeros = np.zeros(grid.n_nodes, dtype=np.int8)
    return apply_caps(grid, zeros, zeros, np.ones_like(zeros), zeros)


def all_quotes_policy(grid):
    ones = np.ones(grid.n_nodes, dtype=np.int8)
    zeros = np.zeros(grid.n_nodes, dtype=np.int8)
    return apply_caps(grid, ones, ones, np.ones_like(zeros), zeros)


def backward_fixed_policy(grid, p, st, policy, n_steps):
    v = terminal_vector(grid, p)
    for _ in range(n_steps):
        system = assemble_system(grid, p, st, policy, v)
        v = solve(system.matrix, system.rhs).solution
    return v


# ------------------------------------------------------------------ Policy


def test_policy_validate_rejects_bad_shapes_and_values(toy_grid):
    m = toy_grid.n_nodes
    good = null_policy(toy_grid)
    with pytest.raises(ValueError, match="shape"):
        Policy.of(la=good.la[:-1], lb=good.lb, z=good.z, d=good.d).validate(toy_grid)
    with pytest.raises(ValueError, match="la"):
        Policy.of(la=good.la + 2, lb=good.lb, z=good.z, d=good.d).validate(toy_grid)
    with pytest.raises(ValueError, match="z"):
        Policy.of(la=good.la, lb=good.lb, z=np.zeros(m, dtype=np.int8), d=good.d).validate(
            toy_grid
        )
    # a code built directly is checked for its length, type and bits
    for code in (good.code[:-1], good.code.astype(np.int64), good.code | 16):
        with pytest.raises(ValueError, match="policy code must be"):
            Policy(code).validate(toy_grid)


def test_policy_validate_rejects_cap_breaches(toy_grid):
    m = toy_grid.n_nodes
    ones = np.ones(m, dtype=np.int8)
    zeros = np.zeros(m, dtype=np.int8)
    with pytest.raises(ValueError, match="la = 1 at q = -q_bar"):
        Policy.of(la=ones, lb=zeros, z=ones.copy(), d=zeros).validate(toy_grid)
    with pytest.raises(ValueError, match="lb = 1 at q = \\+q_bar"):
        Policy.of(la=zeros, lb=ones, z=ones.copy(), d=zeros).validate(toy_grid)
    with pytest.raises(ValueError, match="breach"):
        Policy.of(la=zeros, lb=zeros, z=ones.copy(), d=ones).validate(toy_grid)


def test_apply_caps_forces_constraints(toy_grid):
    m = toy_grid.n_nodes
    ones = np.ones(m, dtype=np.int8)
    pol = apply_caps(toy_grid, ones, ones, ones, ones)
    la2 = pol.la.reshape(toy_grid.n_q, toy_grid.n_alpha)
    lb2 = pol.lb.reshape(toy_grid.n_q, toy_grid.n_alpha)
    d2 = pol.d.reshape(toy_grid.n_q, toy_grid.n_alpha)
    assert not la2[0].any() and la2[1:].all()
    assert not lb2[-1].any() and lb2[:-1].all()
    # z = +1 everywhere: impulses at the top cap are demoted to continuation
    assert not d2[-1].any() and d2[:-1].all()


def test_policy_digest_tracks_content(toy_grid):
    a = null_policy(toy_grid)
    b = null_policy(toy_grid)
    assert a.digest() == b.digest() and np.array_equal(a.code, b.code)
    c = all_quotes_policy(toy_grid)
    assert a.digest() != c.digest() and (a.code != c.code).any()


# -------------------------------------------------------------------- rows


def test_continuation_diagonal_at_center(grid6, params6):
    node = flatten(grid6, 50, 4)  # alpha = 0, q = 0
    cols, vals, reward = continuation_row(grid6, params6, 50, 4, 0, 0)
    diag = vals[list(cols).index(node)]
    # 1 + dt * (diffusion 2 * (rho^2/2)/d_alpha^2 + jump intensities)
    assert diag == pytest.approx(1.0 + 0.05 * (1.0 / 36.0 + 2.0), rel=1e-12)
    assert reward == 0.0  # alpha = 0, q = 0, no quotes


def test_continuation_row_center_has_five_entries(grid6, params6):
    cols, vals, _ = continuation_row(grid6, params6, 50, 4, 0, 0)
    assert len(set(cols)) == 5  # self, alpha neighbors, two exact shifts


def test_continuation_row_reproduces_constants(grid6, params6):
    # Row coefficients must sum to one so constants pass through the
    # homogeneous part unchanged.
    for ii, jj, la, lb in [(50, 4, 0, 0), (0, 4, 0, 0), (100, 2, 1, 1), (37, 8, 1, 0)]:
        cols, vals, _ = continuation_row(grid6, params6, ii, jj, la, lb)
        assert sum(vals) == pytest.approx(1.0, abs=1e-12)


def test_continuation_row_rejects_cap_breaching_quotes(grid6, params6):
    with pytest.raises(ValueError, match="la"):
        continuation_row(grid6, params6, 10, 0, 1, 0)
    with pytest.raises(ValueError, match="lb"):
        continuation_row(grid6, params6, 10, 8, 0, 1)


def test_impulse_row_entries(grid6, params6):
    node = flatten(grid6, 50, 4)
    up = flatten(grid6, 50, 5)
    cols, vals, rhs = impulse_row(grid6, params6, 50, 4, 1)
    assert list(cols) == [node, up]
    assert list(vals) == [1.0, -1.0]
    assert rhs == -params6.upsilon


def test_impulse_row_rejects_outward_direction(grid6, params6):
    with pytest.raises(ValueError, match="band"):
        impulse_row(grid6, params6, 0, 8, 1)
    with pytest.raises(ValueError, match="band"):
        impulse_row(grid6, params6, 0, 0, -1)


def test_assembled_system_matches_row_builders(toy_grid, toy_params, toy_stencils):
    rng = np.random.default_rng(8)
    grid, p, st = toy_grid, toy_params, toy_stencils
    la = rng.integers(0, 2, grid.n_nodes)
    lb = rng.integers(0, 2, grid.n_nodes)
    z = np.where(rng.random(grid.n_nodes) < 0.5, 1, -1)
    d = (rng.random(grid.n_nodes) < 0.3).astype(int)
    pol = apply_caps(grid, la, lb, z, d)
    v_next = rng.normal(size=grid.n_nodes)
    system = assemble_system(grid, p, st, pol, v_next)
    dense = system.matrix.toarray()
    for node in range(grid.n_nodes):
        ii, jj = unflatten(grid, node)
        row = np.zeros(grid.n_nodes)
        if pol.d[node]:
            cols, vals, rhs = impulse_row(grid, p, ii, jj, int(pol.z[node]))
            assert system.impulse_mask[node]
        else:
            cols, vals, reward = continuation_row(
                grid, p, ii, jj, int(pol.la[node]), int(pol.lb[node])
            )
            rhs = v_next[node] + reward
            assert not system.impulse_mask[node]
        for c, val in zip(cols, vals):
            row[c] += val
        np.testing.assert_allclose(dense[node], row, rtol=0, atol=1e-14)
        assert system.rhs[node] == pytest.approx(rhs, abs=1e-14)


def test_assemble_rhs_is_the_assembled_right_side(toy_grid, toy_params, toy_stencils):
    rng = np.random.default_rng(12)
    m = toy_grid.n_nodes
    for _ in range(20):
        pol = apply_caps(
            toy_grid,
            rng.integers(0, 2, m),
            rng.integers(0, 2, m),
            np.where(rng.random(m) < 0.5, 1, -1),
            (rng.random(m) < 0.3).astype(int),
        )
        v_next = rng.normal(size=m)
        system = assemble_system(toy_grid, toy_params, toy_stencils, pol, v_next)
        assert np.array_equal(assemble_rhs(toy_grid, toy_params, pol, v_next), system.rhs)


# --------------------------------------------------------------- residuals


def test_residual_zero_on_constants_when_rewards_vanish(no_profit_params):
    p = no_profit_params
    grid = build_grid(p, GridSpec(1, 5, 1.0, 1))
    st = build_stencils(grid, p)
    c = 0.37
    v = np.full(grid.n_nodes, c)
    res, pol = residual(StepTables(grid, p, st), v, v)
    assert np.abs(res).max() <= 1e-12
    assert not pol.d.any()  # impulse branch sits at -upsilon < 0


def test_residual_prefers_continuation_and_up_impulse_on_exact_ties():
    p = quiet_params(
        T=1.0,
        sigma=1e-30,
        theta=0.1,
        delta=0.0,
        eps=0.01,
        lambda_a=1.0,
        lambda_b=1.0,
        k=1.0,
        rho=1e-30,
        gamma_a=0.5,
        gamma_b=0.5,
        phi=0.0,
        psi=0.0,
        q_bar=1,
        alpha_cap=1.0,
    )
    grid = build_grid(p, GridSpec(10, 5, 1.0, 1))
    st = build_stencils(grid, p)
    v = np.zeros(grid.n_nodes)
    v_next = np.full(grid.n_nodes, -p.upsilon * grid.d_t)
    res, pol = residual(StepTables(grid, p, st), v, v_next)
    d2 = pol.d.reshape(grid.n_q, grid.n_alpha)
    z2 = pol.z.reshape(grid.n_q, grid.n_alpha)
    # Where the running reward vanishes identically both branches equal
    # -upsilon: ties must resolve to continuation, and between impulse
    # directions to z = +1.
    center_alpha = grid.n_alpha // 2
    assert not d2[:, center_alpha].any()
    assert not d2[1, :].any()
    assert (z2[1, :] == 1).all()


def test_residual_at_node_matches_vector_residual(toy_grid, toy_params, toy_stencils):
    rng = np.random.default_rng(5)
    grid, p, st = toy_grid, toy_params, toy_stencils
    v = rng.normal(size=grid.n_nodes)
    v_next = rng.normal(size=grid.n_nodes)
    res, _ = residual(StepTables(grid, p, st), v, v_next)
    for node in range(grid.n_nodes):
        ii, jj = unflatten(grid, node)
        scalar = residual_at_node(grid, p, ii, jj, v[node], v, v_next)
        assert scalar == pytest.approx(res[node], abs=1e-12)


def test_residual_vanishes_at_policy_iteration_fixed_point(
    toy_grid, toy_params, toy_stencils
):
    from mmqvi import iterate

    grid, p, st = toy_grid, toy_params, toy_stencils
    v_next = terminal_vector(grid, p)
    v, pol, _ = iterate(SystemCache(grid, p, st), v_next, v_next)
    res, _ = residual(StepTables(grid, p, st), v, v_next)
    assert np.abs(res).max() <= 1e-9


# ------------------------------------------------------- frozen-policy oracles


def test_null_policy_clamp_mode_exact_at_center_small_at_caps(params6):
    # With no quotes and no impulses the value separates: v(t, alpha, q) =
    # g(q) - (T - t) phi q^2 + b_n sigma q alpha where the slope recursion
    # b_n = (b_{n+1} + dt) / (1 + k dt) telescopes from b_N = 0.
    p = params6
    spec = GridSpec(40, 51, 300.0, 4)
    grid = build_grid(p, spec)
    st = build_stencils(grid, p, "clamp")
    v0 = backward_fixed_policy(grid, p, st, null_policy(grid), spec.n_time_steps)

    n = spec.n_time_steps
    b = (1.0 - (1.0 + p.k * grid.d_t) ** (-n)) / p.k
    alpha = grid.alpha_of_node
    q = grid.q_of_node
    exact = (
        np.array([terminal_value(p, qi) for qi in q])
        - p.T * p.phi * q**2
        + b * p.sigma * q * alpha
    )
    err = np.abs(v0 - exact).reshape(grid.n_q, grid.n_alpha)
    # Clamping distorts only shift targets beyond the cap; the error decays
    # toward the interior and cancels on the center column by symmetry.
    assert err[:, grid.n_alpha // 2].max() <= 1e-12
    assert err.max() <= 1e-4


def test_quote_everywhere_policy_matches_coefficient_recursion(params6):
    # Posting both quotes everywhere couples inventory levels through fills.
    # On an alpha-linear ansatz v_n(alpha, q) = a_n[q] + c_n[q] alpha the
    # implicit step reduces to two small linear recursions in q.  The full
    # 459-node solve must agree with them to rounding error on the centre
    # column, where clamping cancels by symmetry, and within 1e-4 elsewhere.
    p = params6
    spec = GridSpec(40, 51, 300.0, 4)
    grid = build_grid(p, spec)
    st = build_stencils(grid, p, "clamp")
    pol = all_quotes_policy(grid)
    v0 = backward_fixed_policy(grid, p, st, pol, spec.n_time_steps)

    nq = grid.n_q
    dt = grid.d_t
    la = np.array([0] + [1] * (nq - 1))  # capped at q = -q_bar
    lb = np.array([1] * (nq - 1) + [0])  # capped at q = +q_bar
    idx = np.arange(nq)
    slope = np.zeros((nq, nq))
    intercept = np.zeros((nq, nq))
    slope[idx, idx] += 1.0 + dt * (p.k + p.lambda_a + p.lambda_b)
    intercept[idx, idx] += 1.0 + dt * (p.lambda_a + p.lambda_b)
    for mat in (slope, intercept):
        mat[idx, idx - la] -= dt * p.lambda_a
        mat[idx, idx + lb] -= dt * p.lambda_b
    qs = grid.qs.astype(float)
    reward = -p.phi * qs**2 + (la * p.lambda_a + lb * p.lambda_b) * p.delta

    c = np.zeros(nq)
    a = np.array([terminal_value(p, q) for q in grid.qs])
    for _ in range(spec.n_time_steps):
        c = np.linalg.solve(slope, c + dt * p.sigma * qs)
        drift_in = p.lambda_a * p.gamma_a * c[idx - la] - p.lambda_b * p.gamma_b * c[idx + lb]
        a = np.linalg.solve(intercept, a + dt * (drift_in + reward))

    exact = a[:, None] + np.outer(c, grid.alphas)
    err = np.abs(v0.reshape(nq, grid.n_alpha) - exact)
    assert err[:, grid.n_alpha // 2].max() <= 1e-12
    assert err.max() <= 1e-4
    assert v0[flatten(grid, 25, 4)] == pytest.approx(0.015037902973, abs=1e-9)
