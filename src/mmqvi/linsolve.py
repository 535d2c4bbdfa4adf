"""Linear solves for the per-step policy systems.

For every admissible policy the verifier shows A(P) to be a nonsingular
M-matrix, so A = M - N with M the band |i - j| <= 1 of A and N = M - A >= 0
is a regular splitting: the sweeps x <- M^-1 (N x + b) converge from any
start, and from a subsolution (A x <= b) they never decrease (Varga 1962,
Thm 3.13).  ``Splitting`` factors the tridiagonal M once with LAPACK and
solves by such sweeps.  Every solve is verified against the mixed
absolute-relative residual contract

    ||A v - b||_inf <= tol * (1 + ||b||_inf)

and a splitting that misses it within ``SWEEP_BUDGET`` sweeps falls back to
``solve``, a sparse LU.  Failures raise with the best iterate and the row of
the largest residual attached rather than returning silently wrong values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

# Sweeps a splitting solve may take before it falls back to sparse LU.  At
# the reference parameters a solve took at most 44 sweeps at
# dt*(lambda_a + lambda_b) = 2 and 296 at 20.
SWEEP_BUDGET = 512
# Sweeps between two checks of the residual contract.
CHECK_EVERY = 4


class SolveError(RuntimeError):
    """Linear solve failed; carries the best iterate, its residual norm and
    the row of the largest residual."""

    def __init__(self, message: str, best_iterate=None, residual_norm=None, row=None):
        super().__init__(message)
        self.best_iterate = best_iterate
        self.residual_norm = residual_norm
        self.row = row


class SingularSystemError(SolveError):
    """Structurally singular or ill-posed system; names the offending row."""


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a verified solve: ``method`` is ``splitting`` or
    ``direct-lu``, ``iterations`` the number of splitting sweeps."""

    solution: np.ndarray
    method: str
    iterations: int
    residual_norm: float


def residual_norm(matrix, rhs: np.ndarray, v: np.ndarray) -> float:
    return float(np.max(np.abs(matrix @ v - rhs))) if rhs.size else 0.0


def _contract_bound(rhs: np.ndarray, tol: float) -> float:
    return tol * (1.0 + float(np.max(np.abs(rhs), initial=0.0)))


def _checked(matrix) -> sp.csr_matrix:
    """``matrix`` in CSR form; raises for a non-square shape or a zero
    diagonal entry."""
    matrix = sp.csr_matrix(matrix)
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"matrix shape {matrix.shape} is not square")
    zero_rows = np.flatnonzero(matrix.diagonal() == 0.0)
    if zero_rows.size:
        raise SingularSystemError(
            f"zero diagonal entry at row {zero_rows[0]}", row=int(zero_rows[0])
        )
    return matrix


def _checked_rhs(matrix, rhs) -> np.ndarray:
    rhs = np.asarray(rhs, dtype=float)
    if matrix.shape != (rhs.shape[0],) * 2:
        raise ValueError(
            f"matrix shape {matrix.shape} incompatible with rhs length {rhs.shape[0]}"
        )
    return rhs


def solve(matrix, rhs: np.ndarray, tol: float = 1e-10) -> SolveReport:
    """Solve ``matrix @ v = rhs`` by sparse LU to the residual contract.

    Raises SingularSystemError for a zero diagonal entry or an exactly
    singular matrix, and SolveError, naming the row of the largest residual,
    when the solution misses the contract.
    """
    matrix = _checked(matrix)
    rhs = _checked_rhs(matrix, rhs)
    try:
        v = spla.splu(matrix.tocsc()).solve(rhs)
    except RuntimeError as exc:  # splu signals exact singularity this way
        raise SingularSystemError(f"direct factorization failed: {exc}") from exc
    r = np.abs(matrix @ v - rhs)
    row = int(np.argmax(r)) if r.size else None
    res = float(r[row]) if r.size else 0.0
    if res > _contract_bound(rhs, tol):
        raise SolveError(
            f"direct solve missed ||Av-b||_inf <= {tol}*(1+||b||_inf): "
            f"residual {res:.3e} at row {row}",
            best_iterate=v, residual_norm=res, row=row,
        )
    return SolveReport(solution=v, method="direct-lu", iterations=0, residual_norm=res)


class Splitting:
    """Regular splitting A = M - N of one matrix, M its tridiagonal band.

    M is factored once (LAPACK ``dgttrf``); each ``sweep`` costs one
    tridiagonal solve and one sparse product with N.  Raises
    SingularSystemError for a zero diagonal entry.  ``matrix`` should be an
    M-matrix; for any other the sweeps may miss the contract and every solve
    then ends in the fallback.
    """

    def __init__(self, matrix):
        self.matrix = a = _checked(matrix)
        rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
        outside = np.abs(a.indices - rows) > 1
        self.n_part = sp.csr_matrix(
            (np.where(outside, -a.data, 0.0), a.indices.copy(), a.indptr.copy()),
            shape=a.shape,
        )
        self.n_part.eliminate_zeros()
        # Below 3 rows the band is the whole matrix (and SciPy's wrapper
        # rejects it); a singular band leaves the sweeps undefined.  Either
        # way there are no sweeps and every solve goes to the LU fallback.
        self._lu = None
        if a.shape[0] >= 3:
            *lu, info = lapack.dgttrf(a.diagonal(-1), a.diagonal(), a.diagonal(1))
            self._lu = lu if info == 0 else None

    def sweep(self, x: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """One sweep: M^-1 (N x + rhs)."""
        return lapack.dgttrs(*self._lu, self.n_part @ x + rhs)[0]

    def solve(self, rhs: np.ndarray, tol: float = 1e-10, x0=None) -> SolveReport:
        """Solve ``A @ v = rhs`` by sweeps from ``x0`` (default zero).

        The contract is checked on A every ``CHECK_EVERY`` sweeps.  After
        ``SWEEP_BUDGET`` sweeps without meeting it, the solve falls back to
        ``solve`` (sparse LU), whose report then records the sweeps spent.
        """
        rhs = _checked_rhs(self.matrix, rhs)
        x = np.zeros_like(rhs) if x0 is None else np.asarray(x0, dtype=float)
        bound = _contract_bound(rhs, tol)
        budget = 0 if self._lu is None else SWEEP_BUDGET
        for sweeps in range(1, budget + 1):
            x = self.sweep(x, rhs)
            if sweeps % CHECK_EVERY == 0:
                res = residual_norm(self.matrix, rhs, x)
                if res <= bound:
                    return SolveReport(solution=x, method="splitting",
                                       iterations=sweeps, residual_norm=res)
        return replace(solve(self.matrix, rhs, tol), iterations=budget)
