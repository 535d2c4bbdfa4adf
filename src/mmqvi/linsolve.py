"""Sparse linear solves for the per-step policy systems.

The assembled matrices are weakly chained diagonally dominant Z-matrices
(hence nonsingular M-matrices) at desk scale, so a direct sparse LU solve is
the primary route; a ``Factorization`` keeps the LU factors of one matrix so
that later right-hand sides skip the factoring.  Every solve is verified
against the mixed absolute-relative residual contract

    ||A v - b||_inf <= tol * (1 + ||b||_inf)

and falls back to a Krylov iteration if the direct route fails or is
unavailable.  Failures raise with the best iterate attached rather than
returning silently wrong values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class SolveError(RuntimeError):
    """Linear solve failed; carries the best iterate and its residual norm."""

    def __init__(self, message: str, best_iterate=None, residual_norm=None):
        super().__init__(message)
        self.best_iterate = best_iterate
        self.residual_norm = residual_norm


class SingularSystemError(SolveError):
    """Structurally singular or ill-posed system; names the offending row."""

    def __init__(self, message: str, row=None):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a verified solve."""

    solution: np.ndarray
    method: str
    iterations: int
    residual_norm: float


def residual_norm(matrix, rhs: np.ndarray, v: np.ndarray) -> float:
    return float(np.max(np.abs(matrix @ v - rhs))) if rhs.size else 0.0


def _residual_ok(matrix, rhs, v, tol) -> tuple[bool, float]:
    res = residual_norm(matrix, rhs, v)
    return res <= tol * (1.0 + float(np.max(np.abs(rhs), initial=0.0))), res


def _check_diagonal(matrix) -> None:
    zero_rows = np.flatnonzero(matrix.diagonal() == 0.0)
    if zero_rows.size:
        raise SingularSystemError(
            f"zero diagonal entry at row {zero_rows[0]}", row=int(zero_rows[0])
        )


class Factorization:
    """Sparse LU factors of one matrix, reusable across right-hand sides.

    Every ``solve`` is checked against the residual contract on the factored
    matrix, so a reused factorization is held to the same standard as a
    fresh one.  Raises SingularSystemError for a zero diagonal entry or an
    exactly singular matrix.
    """

    def __init__(self, matrix):
        self.matrix = sp.csr_matrix(matrix)
        rows, cols = self.matrix.shape
        if rows != cols:
            raise ValueError(f"matrix shape {self.matrix.shape} is not square")
        _check_diagonal(self.matrix)
        try:
            self._lu = spla.splu(self.matrix.tocsc())
        except RuntimeError as exc:  # splu signals exact singularity this way
            raise SingularSystemError(f"direct factorization failed: {exc}") from exc

    def solve(self, rhs: np.ndarray, tol: float = 1e-10) -> SolveReport:
        """Solve ``matrix @ v = rhs``; raise SolveError if the contract fails."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.matrix.shape[0],):
            raise ValueError(
                f"matrix shape {self.matrix.shape} incompatible with rhs length {rhs.shape[0]}"
            )
        v = self._lu.solve(rhs)
        ok, res = _residual_ok(self.matrix, rhs, v, tol)
        if not ok:
            raise SolveError("direct solve missed the residual contract",
                             best_iterate=v, residual_norm=res)
        return SolveReport(solution=v, method="direct-lu", iterations=1,
                           residual_norm=res)


def solve(matrix, rhs: np.ndarray, tol: float = 1e-10, method: str = "auto",
          max_iter: int = 2000) -> SolveReport:
    """Solve ``matrix @ v = rhs`` to the residual contract.

    ``method`` is one of ``auto`` (direct with iterative fallback),
    ``direct`` or ``iterative``.  Raises SingularSystemError for structurally
    singular systems and SolveError when no route meets the tolerance.
    """
    if method not in ("auto", "direct", "iterative"):
        raise ValueError(f"unknown method {method!r}")
    matrix = sp.csr_matrix(matrix)
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[0]
    if matrix.shape != (n, n):
        raise ValueError(f"matrix shape {matrix.shape} incompatible with rhs length {n}")
    _check_diagonal(matrix)

    v0 = None
    if method in ("auto", "direct"):
        try:
            return Factorization(matrix).solve(rhs, tol)
        except SolveError as exc:
            if method == "direct":
                raise
            v0 = exc.best_iterate

    count = {"n": 0}

    def _cb(_):
        count["n"] += 1

    v, info = spla.lgmres(matrix, rhs, x0=v0, rtol=tol, atol=tol,
                          maxiter=max_iter, callback=_cb)
    ok, res = _residual_ok(matrix, rhs, v, tol)
    if ok:
        return SolveReport(solution=v, method="lgmres", iterations=count["n"],
                           residual_norm=res)
    raise SolveError(
        f"no solve met ||Av-b||_inf <= {tol}*(1+||b||_inf); "
        f"best residual {res:.3e} (lgmres info={info})",
        best_iterate=v,
        residual_norm=res,
    )
