"""Sparse linear solves and their residual contract."""

import numpy as np
import pytest
import scipy.sparse as sp

from mmqvi import SingularSystemError, SolveError
from mmqvi.linsolve import Factorization, residual_norm, solve


def random_dominant_system(n, seed, margin=1.0):
    """A weakly chained diagonally dominant Z-matrix with known solution."""
    rng = np.random.default_rng(seed)
    off = -rng.random((n, n)) * (rng.random((n, n)) < 0.2)
    np.fill_diagonal(off, 0.0)
    a = sp.csr_matrix(off)
    diag = -np.asarray(off.sum(axis=1)).ravel() + margin
    a = a + sp.diags(diag)
    v_true = rng.normal(size=n)
    return sp.csr_matrix(a), v_true


def test_identity_solve():
    b = np.array([3.0, -1.0, 0.25])
    report = solve(sp.eye(3, format="csr"), b)
    np.testing.assert_allclose(report.solution, b, rtol=0, atol=1e-14)
    assert report.method == "direct-lu"
    assert report.residual_norm <= 1e-10 * 4.0


def test_two_by_two_reference_solution():
    a = sp.csr_matrix(np.array([[1.1, -0.1], [-1.0, 1.0]]))
    report = solve(a, np.array([1.0, -0.01]))
    np.testing.assert_allclose(report.solution, [0.999, 0.989], rtol=1e-12)


@pytest.mark.parametrize("method", ["direct", "iterative", "auto"])
def test_recovers_known_solution(method):
    a, v_true = random_dominant_system(150, seed=2)
    report = solve(a, a @ v_true, method=method)
    np.testing.assert_allclose(report.solution, v_true, rtol=0, atol=1e-8)
    assert report.residual_norm <= 1e-10 * (1.0 + np.abs(a @ v_true).max())


def test_factorization_solves_many_right_hand_sides():
    a, _ = random_dominant_system(150, seed=4)
    lu = Factorization(a)
    rng = np.random.default_rng(5)
    for _ in range(4):
        v_true = rng.normal(size=150)
        b = a @ v_true
        report = lu.solve(b, tol=1e-10)
        assert report.method == "direct-lu"
        assert report.residual_norm == residual_norm(a, b, report.solution)
        assert report.residual_norm <= 1e-10 * (1.0 + np.abs(b).max())
        np.testing.assert_allclose(report.solution, v_true, rtol=0, atol=1e-8)
    # the contract is checked on every solve, not trusted from the factoring
    with pytest.raises(SolveError, match="residual contract") as exc_info:
        lu.solve(b, tol=1e-300)
    assert exc_info.value.best_iterate is not None


class CountingLU:
    """Stands in for a SuperLU object and counts the columns it solves."""

    def __init__(self, lu):
        self.lu = lu
        self.columns = 0

    def solve(self, b):
        self.columns += 1 if b.ndim == 1 else b.shape[1]
        return self.lu.solve(b)


def test_row_updates_match_a_fresh_factorization():
    n = 150
    a, _ = random_dominant_system(n, seed=6)
    other, _ = random_dominant_system(n, seed=7)
    lu = Factorization(a)
    assert lu.max_rank == 12 and lu.rank == 0
    counter = lu._lu = CountingLU(lu._lu)
    b = np.random.default_rng(8).normal(size=n)
    target = a.tolil()

    def update_and_check(rows, new_columns):
        rows = np.array(rows)
        before = counter.columns
        lu.update(rows, target.tocsr()[rows])
        # each row new to S costs one triangular solve, rows already in S none
        assert counter.columns - before == new_columns
        assert lu.rank == rows.size
        report = lu.solve(b)
        exact = target.tocsr()
        assert report.residual_norm == pytest.approx(
            residual_norm(exact, b, report.solution), rel=1e-12
        )
        assert report.residual_norm <= 1e-10 * (1.0 + np.abs(b).max())
        np.testing.assert_allclose(report.solution, solve(exact, b).solution,
                                   rtol=0, atol=1e-12)

    target[[3, 40]] = other[[3, 40]]
    update_and_check([3, 40], 2)
    target[99] = other[99]
    update_and_check([3, 40, 99], 1)
    # row 3 changes back to A0 and stays in S with a zero correction
    target[3] = a[3]
    update_and_check([3, 40, 99], 0)

    with pytest.raises(ValueError, match="corrected rows"):
        lu.update(np.array([3, 40]), target.tocsr()[[3, 40]])
    too_many = np.arange(13)
    with pytest.raises(ValueError, match="at most 12"):
        lu.update(too_many, target.tocsr()[too_many])


def test_inverse_positivity_of_m_matrices():
    # Dominant Z-matrices have nonnegative inverses: b >= 0 forces v >= 0.
    for seed in range(5):
        a, _ = random_dominant_system(80, seed=seed)
        rng = np.random.default_rng(100 + seed)
        b = rng.random(80)
        report = solve(a, b)
        assert report.solution.min() >= -1e-12


def test_solution_follows_row_permutation():
    a, v_true = random_dominant_system(60, seed=9)
    b = a @ v_true
    perm = np.random.default_rng(1).permutation(60)
    p = sp.csr_matrix((np.ones(60), (np.arange(60), perm)), shape=(60, 60))
    permuted = solve(p @ a @ p.T, p @ b).solution
    np.testing.assert_allclose(p.T @ permuted, v_true, rtol=0, atol=1e-8)


def test_zero_diagonal_entry_is_reported_with_its_row():
    a = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SingularSystemError, match="row 1") as exc_info:
        solve(a, np.ones(2))
    assert exc_info.value.row == 1


def test_exactly_singular_matrix():
    a = sp.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    with pytest.raises(SingularSystemError, match="singular"):
        solve(a, np.array([1.0, -0.01]), method="direct")
    # auto mode falls through to the iterative solver, which cannot meet the
    # residual contract on an inconsistent system either
    with pytest.raises(SolveError):
        solve(a, np.array([1.0, -0.01]), method="auto")


def test_iterative_failure_carries_best_iterate():
    a, v_true = random_dominant_system(60, seed=3)
    with pytest.raises(SolveError) as exc_info:
        solve(a, a @ v_true, method="iterative", max_iter=0)
    err = exc_info.value
    assert err.best_iterate is not None
    assert err.residual_norm > 0.0


def test_unknown_method_rejected():
    with pytest.raises(ValueError, match="method"):
        solve(sp.eye(2, format="csr"), np.ones(2), method="cg")


def test_residual_norm_helper():
    a = sp.eye(3, format="csr") * 2.0
    v = np.array([1.0, 2.0, 3.0])
    b = np.array([2.0, 4.0, 7.0])
    assert residual_norm(a, b, v) == pytest.approx(1.0)
