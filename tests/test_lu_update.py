"""Low-rank LU correction in policy iteration, over random policy edits.

A solve whose policy changes at most floor(sqrt(n)) rows of the cached base
matrix is served by correcting the cached LU; it must meet the residual
contract on the exact A(P) and agree with a fresh LU.  More changed rows
refactor, and a corrected solve that misses the contract refactors too.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as hst  # noqa: E402

import mmqvi.linsolve  # noqa: E402
import mmqvi.policy_iteration  # noqa: E402
from conftest import quiet_params  # noqa: E402
from mmqvi import (  # noqa: E402
    GridSpec,
    PiterConfig,
    apply_caps,
    assemble_system,
    build_grid,
    build_stencils,
    iterate,
)
from mmqvi.linsolve import Factorization, SolveError, residual_norm, solve  # noqa: E402
from mmqvi.policy_iteration import SystemCache  # noqa: E402
from mmqvi.scheme import Policy  # noqa: E402
from mmqvi.solver import terminal_vector  # noqa: E402

P = quiet_params(
    T=0.1, sigma=1.0, theta=0.1, delta=0.005, eps=0.005, lambda_a=1.0,
    lambda_b=1.0, k=1.0, rho=1.0, gamma_a=0.5, gamma_b=0.5, phi=0.1,
    psi=0.05, q_bar=2, alpha_cap=1.0,
)
GRID = build_grid(P, GridSpec(n_time_steps=1, n_alpha_points=5, alpha_cap=1.0, q_bar=2))
ST = build_stencils(GRID, P, "clamp")
N = GRID.n_nodes
CAP = int(np.sqrt(N))  # 25 nodes: 5 rows
TOL = PiterConfig().solver_tol

bits = hst.lists(hst.integers(0, 1), min_size=N, max_size=N).map(np.array)
node_fields = hst.tuples(*[hst.integers(0, 1)] * 4)  # la, lb, d, z bit of one node


def admissible(fields):
    """A policy whose impulses all point toward q = 0, where d = 0, so every
    impulse chain reaches a continuation node and A(P) passes verification.
    ``fields`` is an (N, 4) array of la, lb, d and z bits."""
    la, lb, d, zbit = fields.T
    q = GRID.q_of_node
    d = d * (q != 0)
    z = np.where(d == 1, np.where(q > 0, -1, 1), 2 * zbit - 1)
    return apply_caps(GRID, la, lb, z, d)


@hst.composite
def edited_pair(draw):
    """A random admissible policy and a copy re-drawn at up to 2 * CAP nodes."""
    base = np.stack([draw(bits) for _ in range(4)], axis=1)
    nodes = draw(hst.lists(hst.integers(0, N - 1), max_size=2 * CAP, unique=True))
    edited = base.copy()
    for node in nodes:
        edited[node] = draw(node_fields)
    return admissible(base), admissible(edited)


def solve_pair(first, second, mp):
    """Solve the step under ``first`` and then ``second`` with one cache;
    return the second solution and trace and the number of LU factorizations."""
    factorings = []
    splu = mmqvi.linsolve.spla.splu
    mp.setattr(mmqvi.linsolve.spla, "splu", lambda a: factorings.append(1) or splu(a))
    cache = SystemCache()
    v_next = terminal_vector(GRID, P)
    for pol in (first, second):
        mp.setattr(mmqvi.policy_iteration, "improve_policy", lambda *a, pol=pol: pol)
        v, _, trace = iterate(GRID, P, ST, v_next - 1e3, v_next, cache=cache)
    return v, trace, len(factorings)


def exact_system(policy):
    return assemble_system(GRID, P, ST, policy, terminal_vector(GRID, P))


@settings(max_examples=60, deadline=None)
@given(edited_pair())
def test_few_changed_rows_update_and_many_refactor(pair):
    first, second = pair
    changed = Policy.changed_rows(first.matrix_key(), second.matrix_key())
    with pytest.MonkeyPatch.context() as mp:
        v, trace, factorings = solve_pair(first, second, mp)
    system = exact_system(second)
    fresh = solve(system.matrix, system.rhs).solution
    if changed.size == 0:
        assert trace.routes == ["reused"] and factorings == 1
    elif changed.size <= CAP:
        assert trace.routes == ["updated"] and trace.ranks == [changed.size]
        assert factorings == 1
    else:
        assert trace.routes == ["fresh"] and factorings == 2
    # the residual contract holds on the exact A(P), not only on the base
    res = residual_norm(system.matrix, system.rhs, v)
    assert res <= TOL * (1.0 + np.abs(system.rhs).max())
    # a corrected solve rounds differently from a fresh LU; the deviation
    # measured on the reference grids stays below 2e-14 relative
    np.testing.assert_allclose(v, fresh, rtol=0, atol=1e-12 * max(1.0, np.abs(fresh).max()))


@settings(max_examples=30, deadline=None)
@given(edited_pair())
def test_a_missed_corrected_solve_refactors(pair):
    first, second = pair
    changed = Policy.changed_rows(first.matrix_key(), second.matrix_key())
    hypothesis.assume(0 < changed.size <= CAP)
    missed = []
    real_solve = Factorization.solve

    def missing_solve(self, rhs, tol=1e-10):
        if self.rank:
            bad = real_solve(self, rhs, tol).solution + 1.0
            missed.append(bad)
            raise SolveError("injected miss", best_iterate=bad, residual_norm=1.0)
        return real_solve(self, rhs, tol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Factorization, "solve", missing_solve)
        v, trace, factorings = solve_pair(first, second, mp)
    assert len(missed) == 1
    assert trace.routes == ["refactored-after-miss"] and trace.ranks == [0]
    assert factorings == 2
    system = exact_system(second)
    assert np.array_equal(v, solve(system.matrix, system.rhs).solution)
    assert not np.array_equal(v, missed[0])


def test_a_miss_on_a_fresh_lu_raises(monkeypatch):
    def missing_solve(self, rhs, tol=1e-10):
        raise SolveError("injected miss")

    monkeypatch.setattr(Factorization, "solve", missing_solve)
    pol = admissible(np.zeros((N, 4), dtype=np.int64))
    monkeypatch.setattr(mmqvi.policy_iteration, "improve_policy", lambda *a: pol)
    v_next = terminal_vector(GRID, P)
    with pytest.raises(SolveError, match="injected"):
        iterate(GRID, P, ST, v_next - 1e3, v_next)
