"""Sparse linear solves for the per-step policy systems.

The assembled matrices are weakly chained diagonally dominant Z-matrices
(hence nonsingular M-matrices) at desk scale, so a direct sparse LU solve is
the primary route; a ``Factorization`` keeps the LU factors of one matrix so
that later right-hand sides skip the factoring, and serves matrices that
differ from it in a few rows through a low-rank correction.  Every solve is
verified against the mixed absolute-relative residual contract

    ||A v - b||_inf <= tol * (1 + ||b||_inf)

and falls back to a Krylov iteration if the direct route fails or is
unavailable.  Failures raise with the best iterate attached rather than
returning silently wrong values.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
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


def _meets_contract(res: float, rhs: np.ndarray, tol: float) -> bool:
    return res <= tol * (1.0 + float(np.max(np.abs(rhs), initial=0.0)))


def _check_diagonal(matrix) -> None:
    zero_rows = np.flatnonzero(matrix.diagonal() == 0.0)
    if zero_rows.size:
        raise SingularSystemError(
            f"zero diagonal entry at row {zero_rows[0]}", row=int(zero_rows[0])
        )


def _load_malloc_trim():
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, TypeError, AttributeError):  # no C library handle, or not glibc
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


_MALLOC_TRIM = _load_malloc_trim()


def release_heap() -> None:
    """Return the heap's free pages to the OS (glibc ``malloc_trim(0)``).

    A released SuperLU object leaves free blocks between live ones, and the
    heap keeps those pages resident; trimming after each release keeps the
    peak resident size of a long solve flat.  Does nothing where the C
    library has no ``malloc_trim``.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


class Factorization:
    """Sparse LU factors of a base matrix A0, corrected for changed rows.

    ``update`` lets the factors serve a matrix A that equals A0 outside a
    row set S by the Sherman-Morrison-Woodbury identity: with
    Delta = (A - A0)[S, :], W = A0^-1 E_S and C = I + Delta W, the solution
    of A v = b is v = y - W C^-1 Delta y where y = A0^-1 b.  A fresh
    factorization is the case S = {}.  S only grows, up to ``max_rank`` =
    floor(sqrt(n)) rows, about where the triangular solves that build W cost
    as much as one factorization; each row new to S costs one triangular
    solve.

    Every ``solve`` is checked against the residual contract on A itself
    (A0 with the rows in S replaced), so a reused or corrected factorization
    is held to the same standard as a fresh one.  Raises SingularSystemError
    for a zero diagonal entry or an exactly singular matrix.
    """

    def __init__(self, matrix):
        self.matrix = sp.csr_matrix(matrix)
        n, cols = self.matrix.shape
        if n != cols:
            raise ValueError(f"matrix shape {self.matrix.shape} is not square")
        _check_diagonal(self.matrix)
        self.max_rank = math.isqrt(n)
        self.rows = np.empty(0, dtype=np.int64)
        self._block = self._delta = self._c = None
        # Row j holds column j of W.  Allocated before the LU: allocating it
        # after measured no lower peak resident size.
        self._w = np.empty((self.max_rank, n))
        try:
            self._lu = spla.splu(self.matrix.tocsc())
        except RuntimeError as exc:  # splu signals exact singularity this way
            raise SingularSystemError(f"direct factorization failed: {exc}") from exc

    @property
    def rank(self) -> int:
        """Number of rows in S, the rank of the correction."""
        return self.rows.size

    def update(self, rows: np.ndarray, block) -> None:
        """Serve the matrix whose rows ``rows`` are ``block``, A0 elsewhere.

        ``rows`` are ascending node indices that include every row already
        in S; ``block`` holds the new rows in that order.  Raises ValueError
        when the union would exceed ``max_rank`` rows.
        """
        rows = np.asarray(rows, dtype=np.int64)
        new = np.setdiff1d(rows, self.rows)
        k0, k = self.rank, self.rank + new.size
        if rows.size != k or k > self.max_rank:
            raise ValueError(
                f"update rows must include the {k0} corrected rows and number "
                f"at most {self.max_rank}, got {rows.size}"
            )
        if new.size:
            # The unit right sides E_new are built in W's own free rows, so
            # the only temporary is the solution block.
            unit = self._w[k0:k]
            unit[:] = 0.0
            unit[np.arange(new.size), new] = 1.0
            self._w[k0:k] = self._lu.solve(unit.T).T
            self.rows = np.concatenate([self.rows, new])
        if not k:
            return
        self._block = sp.csr_matrix(block)[np.searchsorted(rows, self.rows)]
        self._delta = self._block - self.matrix[self.rows]
        self._c = sla.lu_factor(np.eye(k) + self._delta @ self._w[:k].T)

    def solve(self, rhs: np.ndarray, tol: float = 1e-10) -> SolveReport:
        """Solve ``A @ v = rhs``; raise SolveError if the contract fails."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.matrix.shape[0],):
            raise ValueError(
                f"matrix shape {self.matrix.shape} incompatible with rhs length {rhs.shape[0]}"
            )
        v = self._lu.solve(rhs)
        s = self.rows
        if s.size:
            v -= self._w[: s.size].T @ sla.lu_solve(self._c, self._delta @ v)
        r = self.matrix @ v - rhs
        if s.size:
            r[s] = self._block @ v - rhs[s]
        res = float(np.max(np.abs(r))) if r.size else 0.0
        if not _meets_contract(res, rhs, tol):
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
    res = residual_norm(matrix, rhs, v)
    if _meets_contract(res, rhs, tol):
        return SolveReport(solution=v, method="lgmres", iterations=count["n"],
                           residual_norm=res)
    raise SolveError(
        f"no solve met ||Av-b||_inf <= {tol}*(1+||b||_inf); "
        f"best residual {res:.3e} (lgmres info={info})",
        best_iterate=v,
        residual_norm=res,
    )
