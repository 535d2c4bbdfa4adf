"""Linear solves, splitting and sparse LU, and their residual contract."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

import mmqvi.linsolve
from conftest import first_sweep_meeting, residual_norm, residual_rounding, splitting_of
from mmqvi import SingularSystemError, SolveError
from mmqvi.linsolve import solve


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


@pytest.mark.parametrize("method", ["direct", "iterative"])
def test_recovers_known_solution(method):
    a, v_true = random_dominant_system(150, seed=2)
    if method == "direct":
        report = solve(a, a @ v_true)
    else:
        report = splitting_of(a).solve(a @ v_true)
        assert report.method == "splitting"
    np.testing.assert_allclose(report.solution, v_true, rtol=0, atol=1e-8)
    assert report.residual_norm <= 1e-10 * (1.0 + np.abs(a @ v_true).max())


def test_factorization_solves_many_right_hand_sides():
    # the splitting factors its tridiagonal band once and sweeps every rhs
    a, _ = random_dominant_system(150, seed=4)
    split = splitting_of(a)
    rng = np.random.default_rng(5)
    for _ in range(4):
        v_true = rng.normal(size=150)
        b = a @ v_true
        report = split.solve(b)
        assert report.method == "splitting"
        # it stops at the first sweep whose full residual meets the contract
        assert report.iterations == first_sweep_meeting(split, b, np.zeros(150))
        assert abs(report.residual_norm - residual_norm(a, b, report.solution)) <= (
            residual_rounding(a, b, report.solution)
        )
        assert report.residual_norm <= 1e-10 * (1.0 + np.abs(b).max())
        np.testing.assert_allclose(report.solution, v_true, rtol=0, atol=1e-8)


def test_splitting_separates_the_band_from_the_rest():
    a, _ = random_dominant_system(40, seed=6)
    split = splitting_of(a)
    dense = a.toarray()
    band = np.triu(np.tril(dense, 1), -1)
    np.testing.assert_array_equal(split.n_part.toarray(), band - dense)
    assert split.n_part.min() >= 0.0
    x = np.random.default_rng(7).normal(size=40)
    b = np.ones(40)
    np.testing.assert_allclose(
        band @ split.sweep(x, b), split.n_part @ x + b, rtol=0, atol=1e-12
    )


def test_splitting_falls_back_to_lu_after_its_budget(monkeypatch):
    # a tracer wraps linsolve.solve and scipy.sparse.linalg.splu the same
    # way; a splu name bound when linsolve loads would escape the patch
    a, v_true = random_dominant_system(150, seed=2)
    calls, factored = [], []
    splu = scipy.sparse.linalg.splu
    monkeypatch.setattr(mmqvi.linsolve, "SWEEP_BUDGET", 8)
    monkeypatch.setattr(mmqvi.linsolve, "solve", lambda *args: calls.append(1) or solve(*args))
    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        lambda *args, **kwargs: factored.append(1) or splu(*args, **kwargs))
    report = splitting_of(a).solve(a @ v_true)
    assert calls == [1] and factored == [1]
    assert report.method == "direct-lu" and report.iterations == 8
    assert report.residual_norm <= 1e-10 * (1.0 + np.abs(a @ v_true).max())
    np.testing.assert_allclose(report.solution, v_true, rtol=0, atol=1e-8)


IMPORT_BUDGET_SCRIPT = """
import json, sys
import numpy as np
import scipy.sparse as sp
import mmqvi
from mmqvi import GridSpec, default_params, estimate_performance, solve_backward
seen = {"import": "scipy.sparse.linalg" in sys.modules}
p = default_params()
sol = solve_backward(p, GridSpec(20, 21, 300.0, 4))
seen["solve"] = "scipy.sparse.linalg" in sys.modules
seen["special_before_replay"] = "scipy.special" in sys.modules
seen["fallbacks"] = sum(e["fallbacks"] for e in sol.metadata["per_level"])
estimate_performance(p, sol, (0.0, 100.0, 0.0, 0), 500, seed=1)
seen["replay"] = "scipy.sparse.linalg" in sys.modules
a = sp.csr_matrix(np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]))
b = np.array([1.0, 0.0, 1.0])
report = mmqvi.solve(a, b)
seen["fallback"] = "scipy.sparse.linalg" in sys.modules
seen["method"] = report.method
seen["residual"] = float(np.max(np.abs(a @ report.solution - b)))
seen["bound"] = mmqvi.linsolve.CONTRACT_TOL * (1.0 + float(np.max(np.abs(b))))
try:
    mmqvi.solve(sp.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]])), np.ones(2))
except mmqvi.SingularSystemError:
    seen["singular"] = "SingularSystemError"
print(json.dumps(seen))
"""


def test_sparse_lu_loads_on_the_first_fallback():
    # a fresh interpreter: this one loaded scipy.sparse.linalg at its imports
    src = str(Path(mmqvi.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_BUDGET_SCRIPT], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["fallbacks"] == 0
    assert not seen["import"] and not seen["solve"] and not seen["replay"]
    assert not seen["special_before_replay"]
    assert seen["fallback"] and seen["method"] == "direct-lu"
    assert seen["residual"] <= seen["bound"]
    assert seen.get("singular") == "SingularSystemError"


def test_diverging_sweeps_end_early_in_the_lu_fallback():
    # the off-band corners make rho(M^-1 N) = 1e3: the iterate overflows
    # within about 100 sweeps, and the first sweep whose residual is not
    # finite ends the sweeps instead of the budget
    a = sp.csr_matrix(np.array([[1.0, 0.0, 1e3], [0.0, 1.0, 0.0], [-1e3, 0.0, 1.0]]))
    b = np.array([1.0, 2.0, 3.0])
    split = splitting_of(a)
    report = split.solve(b)
    assert report.method == "direct-lu"
    x, finite_sweeps = np.zeros(3), 0
    with np.errstate(over="ignore", invalid="ignore"):
        while np.isfinite(split.residual(x := split.sweep(x, b), b)):
            finite_sweeps += 1
    assert report.iterations == finite_sweeps + 1
    assert report.iterations < mmqvi.linsolve.SWEEP_BUDGET / 4
    assert report.residual_norm <= 1e-10 * (1.0 + np.abs(b).max())
    np.testing.assert_allclose(report.solution, np.linalg.solve(a.toarray(), b),
                               rtol=0, atol=1e-12)


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
    with pytest.raises(SingularSystemError, match="row 1"):
        splitting_of(a)


def test_exactly_singular_matrix():
    a = sp.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    with pytest.raises(SingularSystemError, match="singular"):
        solve(a, np.array([1.0, -0.01]))
    # A singular band leaves the splitting no sweeps, so it goes straight to
    # the LU fallback, which fails the same way.  Below 3 rows the band is
    # the whole matrix.
    with pytest.raises(SingularSystemError, match="singular"):
        splitting_of(a).solve(np.array([1.0, -0.01]))
    a3 = sp.block_diag([a, sp.eye(1)], format="csr")
    with pytest.raises(SingularSystemError, match="singular"):
        splitting_of(a3).solve(np.array([1.0, -0.01, 0.0]))


def test_iterative_failure_carries_best_iterate(monkeypatch):
    # no solve meets a contract this tight: the sweeps run out, the LU
    # fallback misses too, and the error names the row of the largest residual
    a, v_true = random_dominant_system(60, seed=3)
    b = a @ v_true
    monkeypatch.setattr(mmqvi.linsolve, "CONTRACT_TOL", 1e-300)
    with pytest.raises(SolveError, match="residual .* at row") as exc_info:
        splitting_of(a).solve(b)
    err = exc_info.value
    assert err.best_iterate is not None
    assert err.residual_norm > 0.0
    r = np.abs(a @ err.best_iterate - b)
    assert err.row == int(np.argmax(r)) and err.residual_norm == r[err.row]
    assert f"at row {err.row}" in str(err)



def test_no_caller_can_pass_a_solve_tolerance():
    # a nan tolerance once switched the residual contract off
    a, v_true = random_dominant_system(20, seed=4)
    b = a @ v_true
    with pytest.raises(TypeError, match="tol"):
        mmqvi.solve(a, b, tol=float("nan"))
    with pytest.raises(TypeError, match="tol"):
        splitting_of(a).solve(b, tol=float("nan"))
