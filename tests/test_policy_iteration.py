"""Policy iteration: improvement, verification, and stopping behavior."""

import dataclasses

import numpy as np
import pytest

from mmqvi import (
    GridSpec,
    PiterConfig,
    PolicyIterationError,
    VerificationError,
    assemble_system,
    build_grid,
    build_stencils,
    improve_policy,
    iterate,
    verify_theorem_conditions,
)
from conftest import SPLIT_MATCH_FACTOR, split_match_ratio
from oracles import apply_caps, flatten
from mmqvi.linsolve import solve
from mmqvi.policy_iteration import SystemCache, _impulse_chains, _stopping_metric
from mmqvi.scheme import StepTables, policy_rows
from mmqvi.solver import terminal_vector

import mmqvi.linsolve
import mmqvi.policy_iteration


def cycle_policy(grid):
    """Two adjacent inventory levels impulsing into each other.

    Cap-legal, so it survives Policy.validate, but the impulse graph never
    reaches a continuation row and the assembled system is singular."""
    m = grid.n_nodes
    d = np.zeros(m, dtype=np.int8)
    z = np.ones(m, dtype=np.int8)
    mid = flatten(grid, 1, 1)
    top = flatten(grid, 1, 2)
    d[mid] = d[top] = 1
    z[top] = -1
    pol = apply_caps(grid, np.zeros(m), np.zeros(m), z, d)
    assert pol.d[mid] == 1 and pol.d[top] == 1  # survived the cap pass
    return pol


# ----------------------------------------------------------------- config


def test_piter_config_validation():
    # the stopping rule and the contract are constants: a huge tol returns a
    # loose surface without an error, and a nan one switches a check off;
    # and every call verifies, so no level of checking can be chosen either
    assert dataclasses.fields(PiterConfig) == ()
    for name in ("tol", "max_iter", "solver_tol", "verification"):
        with pytest.raises(TypeError, match=name):
            PiterConfig(**{name: float("nan")})
    assert PiterConfig.solver_tol == mmqvi.linsolve.CONTRACT_TOL


def test_stopping_metric_is_relative_with_absolute_floor():
    assert _stopping_metric(np.array([2.0]), np.array([1.0])) == pytest.approx(0.5)
    # near zero the metric degrades to the absolute difference instead of
    # dividing by a vanishing denominator
    assert _stopping_metric(np.array([1e-13]), np.array([0.0])) == pytest.approx(1e-13)


# ---------------------------------------------------------------- iterate


def test_iterate_converges_on_the_toy_step(toy_grid, toy_params, toy_stencils):
    v_next = terminal_vector(toy_grid, toy_params)
    v, pol, trace = iterate(SystemCache(toy_grid, toy_params, toy_stencils), v_next, v_next)
    assert trace.converged_by in ("metric", "policy-repeat")
    assert 1 <= trace.iterations <= 50
    assert min(trace.min_increments) >= -1e-9
    pol.validate(toy_grid)
    # restarting from the fixed point terminates immediately
    v2, _, trace2 = iterate(SystemCache(toy_grid, toy_params, toy_stencils), v, v_next)
    assert trace2.iterations <= 2
    np.testing.assert_allclose(v2, v, rtol=0, atol=1e-9)


def test_iterate_exhausts_budget(toy_grid, toy_params, toy_stencils, monkeypatch):
    monkeypatch.setattr(PiterConfig, "max_iter", 1)
    v_next = terminal_vector(toy_grid, toy_params)
    with pytest.raises(PolicyIterationError, match="no convergence") as exc_info:
        iterate(SystemCache(toy_grid, toy_params, toy_stencils), v_next, v_next)
    assert exc_info.value.trace.iterations == 1


def test_a_decreasing_iterate_names_its_node(
    toy_grid, toy_params, toy_stencils, monkeypatch
):
    # a start above the step's solution: the first solve decreases it, most
    # at node 5
    pol = toy_policy(toy_grid)
    monkeypatch.setattr(mmqvi.policy_iteration, "improve_policy", lambda *a: pol)
    v_next = terminal_vector(toy_grid, toy_params)
    v0 = v_next + 1.0
    v0[5] += 1.0
    with pytest.raises(PolicyIterationError, match=r"decreased by \S+ at node 5 "):
        iterate(SystemCache(toy_grid, toy_params, toy_stencils), v0, v_next)


def test_a_metric_stop_checks_complementarity(toy_grid, toy_params, toy_stencils,
                                              monkeypatch):
    # a stop on the relative change right after the first solve, whose
    # policy is not yet the argmax at its solution
    monkeypatch.setattr(mmqvi.policy_iteration, "_stopping_metric", lambda *a: 0.0)
    v_next = terminal_vector(toy_grid, toy_params)
    with pytest.raises(PolicyIterationError, match="complementarity residual"):
        iterate(SystemCache(toy_grid, toy_params, toy_stencils), v_next, v_next)


def test_iterate_rejects_unsound_policies(
    toy_grid, toy_params, toy_stencils, monkeypatch
):
    bad = cycle_policy(toy_grid)
    monkeypatch.setattr(
        mmqvi.policy_iteration, "improve_policy", lambda *args: bad
    )
    v_next = terminal_vector(toy_grid, toy_params)
    with pytest.raises(VerificationError) as exc_info:
        iterate(SystemCache(toy_grid, toy_params, toy_stencils), v_next, v_next)
    assert exc_info.value.report.failing_node is not None


def toy_policy(grid, edits=()):
    """Quote on both sides, continue everywhere except one z = +1 impulse at
    (alpha 1, q 0); ``edits`` are (field, node, value) overrides."""
    m = grid.n_nodes
    fields = {
        "la": np.ones(m, dtype=np.int8),
        "lb": np.ones(m, dtype=np.int8),
        "z": np.ones(m, dtype=np.int8),
        "d": np.zeros(m, dtype=np.int8),
    }
    fields["d"][flatten(grid, 1, 1)] = 1
    for name, node, value in edits:
        fields[name][node] = value
    return apply_caps(grid, fields["la"], fields["lb"], fields["z"], fields["d"])


def solve_twice(grid, p, st, first, second, monkeypatch, values=None):
    """Solve one step under ``first``, then under ``second`` with the same
    cache; return both traces and the number of factorizations made, a new
    splitting's or one gathered anew in place.  The two solutions are
    appended to ``values`` when it is given."""
    splittings = []
    refactor = mmqvi.linsolve.Splitting.refactor
    monkeypatch.setattr(
        mmqvi.linsolve.Splitting, "refactor",
        lambda *a, **k: splittings.append(1) or refactor(*a, **k),
    )
    cache = SystemCache(grid, p, st)
    v_next = terminal_vector(grid, p)
    v0 = v_next - 1e3  # far below the step's solution: every solve increases
    traces = []
    for pol in (first, second):
        monkeypatch.setattr(mmqvi.policy_iteration, "improve_policy", lambda *a, pol=pol: pol)
        v, _, trace = iterate(cache, v0, v_next)
        assert trace.iterations == 1 and trace.converged_by == "policy-repeat"
        traces.append(trace)
        if values is not None:
            values.append(v)
    return traces, len(splittings)


def assert_matches_lu(grid, p, st, policy, v):
    """``v`` solves the step under ``policy`` from the terminal level as a
    sparse-LU solve does, within the named tolerance."""
    system = assemble_system(grid, p, st, policy, terminal_vector(grid, p))
    exact = solve(system.matrix, system.rhs).solution
    assert split_match_ratio(v, exact, system.rhs) <= SPLIT_MATCH_FACTOR


# toy nodes (3 alpha x 3 q): 4 is (alpha 1, q 0), the impulse node of
# toy_policy; 3 is its continuation neighbor (alpha 0, q 0)
def test_inactive_impulse_direction_shares_the_factorization(
    toy_grid, toy_params, toy_stencils, monkeypatch
):
    first = toy_policy(toy_grid)
    # controls that do not act: z at a d = 0 node, and the quote bits at an
    # impulse node.  The policy differs, its matrix does not.
    for edit in (("z", 3, -1), ("la", 4, 0), ("lb", 4, 0)):
        second = toy_policy(toy_grid, [edit])
        assert np.count_nonzero(first.code != second.code) == 1
        np.testing.assert_array_equal(policy_rows(toy_grid, first),
                                      policy_rows(toy_grid, second))
        (t1, t2), splittings = solve_twice(
            toy_grid, toy_params, toy_stencils, first, second, monkeypatch
        )
        assert splittings == 1
        assert t1.routes == ["fresh"] and t2.routes == ["reused"]
        assert t2.reports[0] is t1.reports[0]


def test_an_inactive_edit_repeats_the_policy(toy_grid, toy_params, toy_stencils,
                                              monkeypatch):
    # Improvement alternates between two codes that select the same rows:
    # the policy repeats at the first improvement, so the call stops after
    # one solve instead of sweeping until its budget runs out.
    first = toy_policy(toy_grid)
    second = toy_policy(toy_grid, [("z", 3, -1)])
    policies = iter([first, second] * PiterConfig.max_iter)
    monkeypatch.setattr(mmqvi.policy_iteration, "improve_policy", lambda *a: next(policies))
    v_next = terminal_vector(toy_grid, toy_params)
    _, pol, trace = iterate(SystemCache(toy_grid, toy_params, toy_stencils), v_next - 1e3,
                            v_next)
    assert trace.converged_by == "policy-repeat" and trace.switched == [0]
    assert trace.iterations == 1 and trace.sweep_steps == 0
    np.testing.assert_array_equal(pol.code, first.code)


@pytest.mark.parametrize(
    "edit",
    [("la", 3, 0), ("lb", 3, 0), ("d", 3, 1), ("z", 4, -1)],
    ids=["la", "lb", "d", "active-z"],
)
def test_matrix_changes_refactor(toy_grid, toy_params, toy_stencils, monkeypatch, edit,
                                 stops_checked):
    # A one-row change of A(P) verifies and splits it anew.
    first = toy_policy(toy_grid)
    second = toy_policy(toy_grid, [edit])
    assert not np.array_equal(policy_rows(toy_grid, first), policy_rows(toy_grid, second))
    values = []
    (t1, t2), splittings = solve_twice(
        toy_grid, toy_params, toy_stencils, first, second, monkeypatch, values=values
    )
    assert splittings == 2
    assert t2.routes == ["fresh"] and t2.fallbacks == 0
    # each solve stopped at the first sweep whose full residual met the contract
    assert stops_checked == t1.sweeps + t2.sweeps
    assert_matches_lu(toy_grid, toy_params, toy_stencils, second, values[1])


def test_switched_counts_the_nodes_each_improvement_changes(
    toy_grid, toy_params, toy_stencils, monkeypatch
):
    first = toy_policy(toy_grid)
    # at the first policy's solution, each edit is the better branch of its
    # node: no bid at node 3, and an impulse up from node 5 into node 8.
    # The sweep and the solve under the second policy then rise.
    second = toy_policy(toy_grid, [("lb", 3, 0), ("d", 5, 1)])
    policies = iter((first, second, second, second))
    monkeypatch.setattr(mmqvi.policy_iteration, "improve_policy", lambda *a: next(policies))
    v_next = terminal_vector(toy_grid, toy_params)
    _, _, trace = iterate(SystemCache(toy_grid, toy_params, toy_stencils), v_next - 1e3,
                          v_next)
    # solve first; sweep once under second, which changed 2 nodes; solve
    # second when the next improvement repeats it, and stop when one
    # repeats it after that solve
    assert trace.switched == [2, 0, 0] and trace.converged_by == "policy-repeat"
    assert trace.sweep_steps == 1 and trace.iterations == 2


def test_updated_rows_are_verified(toy_grid, toy_params, toy_stencils, monkeypatch):
    first = toy_policy(toy_grid)
    # node 7 (alpha 1, q 1) impulses down into node 4, which impulses up
    second = toy_policy(toy_grid, [("d", 7, 1), ("z", 7, -1)])
    cache = SystemCache(toy_grid, toy_params, toy_stencils)
    v_next = terminal_vector(toy_grid, toy_params)
    monkeypatch.setattr(mmqvi.policy_iteration, "improve_policy", lambda *a: first)
    iterate(cache, v_next - 1e3, v_next)
    monkeypatch.setattr(mmqvi.policy_iteration, "improve_policy", lambda *a: second)
    reports = []
    for _ in range(2):
        with pytest.raises(VerificationError) as exc_info:
            iterate(cache, v_next - 1e3, v_next)
        reports.append(exc_info.value.report)
    assert reports[0].failing_node is not None
    # the repeat reuses the failing entry and checks its report again
    assert reports[1] is reports[0] is cache.report
    np.testing.assert_array_equal(cache.rows, policy_rows(toy_grid, second))


def test_cache_entries_hold_only_for_their_problem_and_checks(
    toy_grid, toy_params, toy_stencils, monkeypatch
):
    pol = toy_policy(toy_grid)
    # a repeated policy reuses the entry, whose report the second call checks
    (t1, t2), splittings = solve_twice(
        toy_grid, toy_params, toy_stencils, pol, pol, monkeypatch
    )
    assert splittings == 1 and (t1.routes, t2.routes) == (["fresh"], ["reused"])
    assert t2.reports[0] is t1.reports[0]


def test_improve_policy_is_admissible(toy_grid, toy_params, toy_stencils):
    rng = np.random.default_rng(0)
    v = rng.normal(size=toy_grid.n_nodes)
    v_next = rng.normal(size=toy_grid.n_nodes)
    pol = improve_policy(StepTables(toy_grid, toy_params, toy_stencils), v, v_next)
    pol.validate(toy_grid)


# ----------------------------------------------------------- verification


def test_verifier_accepts_toy_systems(toy_grid, toy_params, toy_stencils):
    v_next = terminal_vector(toy_grid, toy_params)
    _, pol, _ = iterate(SystemCache(toy_grid, toy_params, toy_stencils), v_next, v_next)
    system = assemble_system(toy_grid, toy_params, toy_stencils, pol, v_next)
    report = verify_theorem_conditions(toy_grid, pol, system)
    assert report.sound
    assert report.min_interior_margin >= 1.0 - 1e-10


def test_verifier_names_the_failing_node(grid6, params6, stencils6):
    v_next = terminal_vector(grid6, params6)
    m = grid6.n_nodes
    pol = apply_caps(grid6, np.ones(m), np.ones(m), np.ones(m), np.zeros(m))
    system = assemble_system(grid6, params6, stencils6, pol, v_next)
    assert verify_theorem_conditions(grid6, pol, system).sound
    node = 42
    system.matrix = system.matrix.tolil()
    system.matrix[node, node] = -1.0
    system.matrix = system.matrix.tocsr()
    report = verify_theorem_conditions(grid6, pol, system)
    assert report.hard_failures[0] == f"nonpositive diagonal at row {node}"


def test_impulse_cycle_is_detected(toy_grid, toy_params, toy_stencils):
    pol = cycle_policy(toy_grid)
    failing, chains = _impulse_chains(toy_grid, pol)
    assert chains is None
    assert failing in (flatten(toy_grid, 1, 1), flatten(toy_grid, 1, 2))
    v_next = terminal_vector(toy_grid, toy_params)
    system = assemble_system(toy_grid, toy_params, toy_stencils, pol, v_next)
    report = verify_theorem_conditions(toy_grid, pol, system)
    assert not report.sound
    assert report.failing_node is not None
    assert any("impulse chain" in msg for msg in report.hard_failures)


def test_impulse_everywhere_passes_after_cap_demotion(
    toy_grid, toy_params, toy_stencils
):
    # All nodes request z = +1 impulses; the cap pass demotes the top row so
    # every chain terminates there.
    m = toy_grid.n_nodes
    pol = apply_caps(
        toy_grid, np.zeros(m), np.zeros(m), np.ones(m), np.ones(m)
    )
    failing, (starts, ends, (k, row)) = _impulse_chains(toy_grid, pol)
    assert failing is None
    # each chain climbs to the top level at its own alpha, passing every
    # impulse node from its start up
    n_alpha = toy_grid.n_alpha
    np.testing.assert_array_equal(starts, np.flatnonzero(pol.d))
    np.testing.assert_array_equal(ends, m - n_alpha + starts % n_alpha)
    for c, start in enumerate(starts):
        np.testing.assert_array_equal(np.sort(row[k == c]),
                                      np.arange(start, ends[c], n_alpha))
    v_next = terminal_vector(toy_grid, toy_params)
    system = assemble_system(toy_grid, toy_params, toy_stencils, pol, v_next)
    assert verify_theorem_conditions(toy_grid, pol, system).sound


def test_a_kick_past_the_cap_from_every_node_is_sound():
    # gamma = 2.5 on a 3-node alpha lattice of spacing 1: every shift target
    # leaves the lattice, and clamping it to the cap node keeps A(P) sound
    from conftest import quiet_params

    p = quiet_params(
        T=0.1,
        sigma=1.0,
        theta=0.1,
        delta=0.005,
        eps=0.005,
        lambda_a=1.0,
        lambda_b=1.0,
        k=1.0,
        rho=1.0,
        gamma_a=2.5,
        gamma_b=2.5,
        phi=0.1,
        psi=0.05,
        q_bar=1,
        alpha_cap=1.0,
    )
    grid = build_grid(p, GridSpec(1, 3, 1.0, 1))
    m = grid.n_nodes
    pol = apply_caps(grid, np.zeros(m), np.zeros(m), np.ones(m), np.zeros(m))
    v_next = terminal_vector(grid, p)
    st = build_stencils(grid, p, "clamp")
    assert st.boundary.all()
    report = verify_theorem_conditions(
        grid, pol, assemble_system(grid, p, st, pol, v_next)
    )
    assert report.sound and report.min_boundary_margin > 0.0
