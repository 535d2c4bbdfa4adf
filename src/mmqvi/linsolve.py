"""Linear solves for the per-step policy systems.

For every admissible policy A(P) is a nonsingular M-matrix, so A = M - N
with M the tridiagonal band of A and N = M - A >= 0 is a regular splitting:
the sweeps x <- M^-1 (N x + b) converge, and from a subsolution (A x <= b)
they never decrease (Varga 1962, Thm 3.13).  ``split`` takes a stack of row
blocks apart once into the band and a table of N's rows at one fixed length,
so the M and N of a selection of its rows are index gathers (``gather``).
An impulse row x_i - x_j = b_i lies wholly in N, so after each tridiagonal
solve a sweep closes every impulse chain exactly: x_i <- x_end + (sum of b
on the chain).  The impulse block I - S has a nilpotent S >= 0, so this
only raises a subsolution and keeps A x <= b: the sweeps stay monotone.
Every solve is verified against the residual contract

    ||A v - b||_inf <= CONTRACT_TOL * (1 + ||b||_inf)

after every sweep, from the products N x the sweeps compute anyway, and
stops at the first sweep that meets it; a splitting that misses it within
``SWEEP_BUDGET`` sweeps falls back to ``solve``, a sparse LU.  SciPy's
sparse LU loads on the first fallback in a process, not with this module:
the load costs about 13 ms and 2 MB of peak memory, which a process whose
solves all meet the contract by sweeps never pays.  Failures
raise with the best iterate and the row of the largest residual attached
rather than returning silently wrong values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack

# The residual contract's tolerance.  Fixed, so no caller can loosen or
# switch off the check: policy iteration's monotonicity rests on it.
CONTRACT_TOL = 1e-10
# Sweeps a splitting solve may take before it falls back to sparse LU.  At
# the reference parameters on the 101-alpha grid a solve took at most 8
# sweeps at dt*(lambda_a + lambda_b) = 0.1, 52 at 2 and 412 at 20.
SWEEP_BUDGET = 512


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


def _contract_bound(rhs: np.ndarray) -> float:
    return CONTRACT_TOL * (1.0 + float(np.max(np.abs(rhs), initial=0.0)))


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


def _checked_rhs(shape, rhs) -> np.ndarray:
    rhs = np.asarray(rhs, dtype=float)
    if shape != (rhs.shape[0],) * 2:
        raise ValueError(f"matrix shape {shape} incompatible with rhs length {rhs.shape[0]}")
    return rhs


def solve(matrix, rhs: np.ndarray) -> SolveReport:
    """Solve ``matrix @ v = rhs`` by sparse LU to the residual contract.

    The first call in a process loads ``scipy.sparse.linalg`` (about 13 ms
    and 2 MB of peak memory).  Raises SingularSystemError for a zero
    diagonal entry or an exactly singular matrix, and SolveError, naming the
    row of the largest residual, when the solution misses the contract.
    """
    matrix = _checked(matrix)
    rhs = _checked_rhs(matrix.shape, rhs)
    # loading scipy.sparse.linalg costs a process about 13 ms and 2 MB of
    # peak memory, which solves that never fall back should not pay, so it
    # loads here; ``splu`` is read off the module at each call, so a patch of
    # the module's name (as a tracer makes) is seen
    import scipy.sparse.linalg as spla

    try:
        v = spla.splu(matrix.tocsc()).solve(rhs)
    except RuntimeError as exc:  # splu signals exact singularity this way
        raise SingularSystemError(f"direct factorization failed: {exc}") from exc
    r = np.abs(matrix @ v - rhs)
    row = int(np.argmax(r)) if r.size else None
    res = float(r[row]) if r.size else 0.0
    if res > _contract_bound(rhs):
        raise SolveError(
            f"direct solve missed ||Av-b||_inf <= {CONTRACT_TOL}*(1+||b||_inf): "
            f"residual {res:.3e} at row {row}",
            best_iterate=v, residual_norm=res, row=row,
        )
    return SolveReport(solution=v, method="direct-lu", iterations=0, residual_norm=res)


def split(matrix: sp.csr_matrix):
    """Take ``matrix``, a CSR stack of square row blocks, apart into its band
    and N, leaving ``matrix`` unchanged.

    The diagonal of row r is its column r mod n_cols.  Returns (band,
    (cols, vals)): band is a 3 x n_rows array whose rows (sub, diag, sup)
    hold per row the entries one column left of, on and right of the
    diagonal, and (cols, vals), both n_rows x K, are the rows of N = band -
    ``matrix``, the nonzero entries off the band negated, as a table of K
    entries each, K the length of the longest.  A shorter row keeps its
    entries in order and is padded with zeros at its diagonal column.
    """
    n_rows, n_cols = matrix.shape
    # index-width temporaries: this runs on the largest matrix of a solve
    rows = np.repeat(np.arange(n_rows, dtype=matrix.indices.dtype), np.diff(matrix.indptr))
    offset = np.remainder(rows, n_cols)
    np.subtract(matrix.indices, offset, out=offset)
    band = np.empty((3, n_rows))
    off = matrix.data != 0.0
    for piece, k in zip(band, (-1, 0, 1)):
        at = offset == k
        piece[:] = np.bincount(rows[at], matrix.data[at], minlength=n_rows)
        off[at] = False
    counts = np.bincount(rows[off], minlength=n_rows)
    del rows, offset  # freed before the table is built, which lowers the peak
    width = int(counts.max(initial=0))
    diagonal = np.remainder(np.arange(n_rows, dtype=matrix.indices.dtype), n_cols)
    cols = np.repeat(diagonal[:, None], width, axis=1)
    vals = np.zeros((n_rows, width))
    # off-band entry e of row r goes to slot r*width + (e - first of row r)
    first = np.cumsum(counts) - counts
    at = np.arange(counts.sum()) + np.repeat(width * np.arange(n_rows) - first, counts)
    cols.ravel()[at], vals.ravel()[at] = matrix.indices[off], -matrix.data[off]
    return band, (cols, vals)


def gather(table, rows: np.ndarray, n_cols: int) -> sp.csr_matrix:
    """Rows ``rows`` of a ``split`` table of N as a CSR matrix with n_cols
    columns and K stored entries per row, padding included."""
    cols, vals = (np.take(part, rows, axis=0).ravel() for part in table)
    indptr = table[0].shape[1] * np.arange(rows.size + 1, dtype=cols.dtype)
    return sp.csr_matrix((vals, cols, indptr), shape=(rows.size, n_cols))


def regather(n_part: sp.csr_matrix, table, rows: np.ndarray, at: np.ndarray) -> None:
    """Write rows ``rows`` of a ``split`` table of N into rows ``at`` of
    ``n_part``, a ``gather`` of that table, in place."""
    shape = (n_part.shape[0], table[0].shape[1])
    for part, source in zip((n_part.indices, n_part.data), table):
        part.reshape(shape)[at] = source[rows]


class Splitting:
    """Regular splitting A = M - N, M tridiagonal, with impulse chains closed.

    ``band`` = (sub, diag, sup) holds M by rows (``sub[0]`` and ``sup[-1]``
    are ignored) and ``n_part`` is N, which may store explicit zeros.
    ``chains`` = (starts, ends, (k, row)) lists each impulse row
    ``starts[k]``, the continuation node ``ends[k]`` its chain reaches and
    the impulse rows on chain k.  M is factored by LAPACK ``dgttrf`` when
    the splitting is made and again at each ``refactor``, which a caller
    runs after writing new rows into ``band`` and N in place.  For A not an
    M-matrix the sweeps may miss the contract and every solve then ends in
    the fallback.
    """

    def __init__(self, band, n_part: sp.csr_matrix, chains=None):
        self.band, self.n_part = band, n_part
        self.refactor(chains)

    def refactor(self, chains=None) -> None:
        """Factor M from ``band`` as it now stands and take ``chains``."""
        self.chains = chains
        sub, diag, sup = self.band
        # SciPy rejects a band below 3 rows, and a singular one leaves the
        # sweeps undefined: then every solve goes to the LU fallback.
        self._lu = None
        if diag.size >= 3:
            *lu, info = lapack.dgttrf(sub[1:], diag, sup[:-1])
            self._lu = lu if info == 0 else None

    def matrix(self) -> sp.csr_matrix:
        """A = M - N, built anew."""
        sub, diag, sup = self.band
        return sp.diags([sub[1:], diag, sup[:-1]], [-1, 0, 1], format="csr") - self.n_part

    def _lift(self, rhs: np.ndarray):
        """Per chain, the sum of ``rhs`` over its impulse rows, added in the
        order ``chains`` lists them."""
        if self.chains is not None:
            starts, _, (k, row) = self.chains
            return np.bincount(k, rhs[row], minlength=starts.size)

    def sweep(self, x: np.ndarray, rhs: np.ndarray, nx=None, lift=None) -> np.ndarray:
        """One sweep from ``x``: M^-1 (N x + rhs), then the impulse chains
        closed.  ``nx`` = N x and ``lift`` = ``_lift(rhs)`` when known."""
        x = lapack.dgttrs(*self._lu, (self.n_part @ x if nx is None else nx) + rhs)[0]
        if self.chains is not None:
            starts, ends, _ = self.chains
            x[starts] = x[ends] + (self._lift(rhs) if lift is None else lift)
        return x

    def residual(self, x: np.ndarray, rhs: np.ndarray, nx=None) -> float:
        """||A x - rhs||_inf on A = M - N, with ``nx`` = N x when known."""
        sub, diag, sup = self.band
        r = diag * x - (self.n_part @ x if nx is None else nx) - rhs
        r[1:] += sub[1:] * x[:-1]
        r[:-1] += sup[:-1] * x[1:]
        return float(np.max(np.abs(r), initial=0.0))

    def solve(self, rhs: np.ndarray, x0=None) -> SolveReport:
        """Solve ``A @ v = rhs`` by sweeps from ``x0`` (default zero).

        After sweep k the residual A x_k - rhs is N x_{k-1} - N x_k, from
        the products the sweeps compute anyway, on every row but the impulse
        rows, which closing the chains solves exactly, and their band
        neighbours, whose residual closing moves a little.  So every sweep
        is tested by that difference outside the impulse rows, and the first
        one whose test meets the contract has it confirmed by the full
        residual on A = M - N, which the report carries.  The solve never
        stops before the first sweep whose full residual meets the contract,
        and on every solve measured it stopped there.  After
        ``SWEEP_BUDGET`` sweeps without that, or at the first sweep whose
        test is not finite (sweeps that diverge, as they may for A not an
        M-matrix), the solve falls back to ``solve`` (sparse LU) on A, whose
        report then records the sweeps spent.
        """
        rhs = _checked_rhs(self.n_part.shape, rhs)
        x = np.zeros_like(rhs) if x0 is None else np.asarray(x0, dtype=float)
        bound = _contract_bound(rhs)
        budget = 0 if self._lu is None else SWEEP_BUDGET
        lift, nx = self._lift(rhs), self.n_part @ x
        sweeps = 0
        for sweeps in range(1, budget + 1):
            x = self.sweep(x, rhs, nx, lift)
            r = nx
            nx = self.n_part @ x
            r -= nx
            if self.chains is not None:
                r[self.chains[0]] = 0.0
            estimate = float(np.max(np.abs(r, out=r), initial=0.0))
            if estimate <= bound:
                res = self.residual(x, rhs, nx)
                if res <= bound:
                    return SolveReport(solution=x, method="splitting",
                                       iterations=sweeps, residual_norm=res)
            elif not np.isfinite(estimate):  # the sweeps diverged
                break
        return replace(solve(self.matrix(), rhs), iterations=sweeps)
