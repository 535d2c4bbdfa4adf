"""Uniform space-time lattice and the signal-shift maps.

The reduced value v(t, alpha, q) lives on a uniform grid: N time steps over
[0, T], an odd number of alpha nodes symmetric about 0 spanning
[-alpha_cap, alpha_cap], and integer inventories -q_bar..q_bar.  Nodes are
flattened q-major (inventory is the slow index) so the tridiagonal alpha
coupling stays contiguous.

Jump terms evaluate v at alpha +/- gamma, which generally falls between
nodes.  A shift map writes that evaluation, for every alpha node at once, as
a two-point convex combination of lattice values, degenerating to a pure
index shift when gamma is an exact multiple of the alpha spacing.  Shift
targets beyond the truncation cap are clamped: evaluated at the cap node,
which keeps every weight nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .model import ModelParams

# Shifts within this distance of an exact multiple of d_alpha snap to a pure
# index shift instead of a spurious two-point stencil.
EXACT_SHIFT_TOL = 1e-12

MODES = ("clamp",)


@dataclass(frozen=True)
class GridSpec:
    """Grid resolution and caps.  alpha/inventory caps must match the model."""

    n_time_steps: int
    n_alpha_points: int
    alpha_cap: float
    q_bar: int

    def __post_init__(self) -> None:
        if (isinstance(self.n_time_steps, bool) or not isinstance(self.n_time_steps, int)
                or self.n_time_steps < 1):
            raise ValueError(f"n_time_steps must be an integer >= 1, got {self.n_time_steps!r}")
        if not isinstance(self.n_alpha_points, int) or self.n_alpha_points < 3:
            raise ValueError(f"n_alpha_points must be an odd integer >= 3, got {self.n_alpha_points!r}")
        if self.n_alpha_points % 2 == 0:
            raise ValueError(
                f"n_alpha_points must be odd so alpha = 0 is a node, got {self.n_alpha_points}"
            )
        if not self.alpha_cap > 0:
            raise ValueError(f"alpha_cap must be > 0, got {self.alpha_cap!r}")
        if isinstance(self.q_bar, bool) or not isinstance(self.q_bar, int) or self.q_bar < 1:
            raise ValueError(f"q_bar must be a positive integer, got {self.q_bar!r}")


@dataclass(eq=False)
class Grid:
    """Concrete lattice with flattened node indexing (q-major, alpha minor)."""

    times: np.ndarray
    alphas: np.ndarray
    qs: np.ndarray
    d_t: float
    d_alpha: float

    n_alpha: int = field(init=False)
    n_q: int = field(init=False)
    n_nodes: int = field(init=False)
    alpha_of_node: np.ndarray = field(init=False)
    q_of_node: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.n_alpha = len(self.alphas)
        self.n_q = len(self.qs)
        self.n_nodes = self.n_alpha * self.n_q
        ii, jj = np.meshgrid(np.arange(self.n_alpha), np.arange(self.n_q))
        self.alpha_of_node = self.alphas[ii.ravel()]
        self.q_of_node = self.qs[jj.ravel()]

    def nearest_alpha_index(self, alpha: float) -> int:
        """Index of the alpha node closest to ``alpha`` (clipped to the grid)."""
        i = int(round((alpha - self.alphas[0]) / self.d_alpha))
        return min(max(i, 0), self.n_alpha - 1)


def build_grid(p: ModelParams, spec: GridSpec) -> Grid:
    """Build the lattice for model ``p`` at resolution ``spec``.

    The caps recorded in ``spec`` must agree with the model; t_N == T exactly
    and the alpha lattice is exactly symmetric about 0.
    """
    if spec.alpha_cap != p.alpha_cap:
        raise ValueError(
            f"grid alpha_cap {spec.alpha_cap!r} != model alpha_cap {p.alpha_cap!r}"
        )
    if spec.q_bar != p.q_bar:
        raise ValueError(f"grid q_bar {spec.q_bar!r} != model q_bar {p.q_bar!r}")

    n = spec.n_time_steps
    d_t = p.T / n
    times = d_t * np.arange(n + 1)
    times[-1] = p.T  # guard against accumulated rounding in n * (T/n)

    half = (spec.n_alpha_points - 1) // 2
    d_alpha = spec.alpha_cap / half
    alphas = d_alpha * np.arange(-half, half + 1)

    qs = np.arange(-spec.q_bar, spec.q_bar + 1)
    return Grid(times=times, alphas=alphas, qs=qs, d_t=d_t, d_alpha=d_alpha)


@dataclass(eq=False)
class StencilSet:
    """The shift maps of a grid, built once.

    ``up``/``down`` are n_alpha x n_alpha CSR maps: row i holds the lattice
    weights of v(alpha_i + gamma_a) and v(alpha_i - gamma_b) at fixed q, and
    every row sums to one.  ``boundary`` marks the alpha nodes where either
    shift target left the lattice and was clamped to the cap node.
    """

    up: sp.csr_matrix
    down: sp.csr_matrix
    boundary: np.ndarray


def _shift_map(grid: Grid, gamma: float, direction: int):
    """Map of v(alpha_i + direction*gamma) onto lattice values, and the rows
    whose target left the lattice.

    A shift within EXACT_SHIFT_TOL of a multiple of d_alpha is a pure index
    shift, any other a two-point linear interpolation.  Off-lattice points
    move to the cap node, where weights landing on one node add up.
    """
    n = grid.n_alpha
    rows = np.arange(n)
    m = gamma / grid.d_alpha
    if abs(m - round(m)) < EXACT_SHIFT_TOL:
        raw = (rows + direction * round(m))[:, None]
        w = np.ones((n, 1))
    else:
        fl = math.floor(m)
        raw = rows[:, None] + direction * np.array([fl, fl + 1])
        w = np.broadcast_to([1.0 - (m - fl), m - fl], raw.shape)
    near = np.clip(raw, 0, n - 1)
    matrix = sp.coo_matrix(
        (np.ravel(w), (np.repeat(rows, np.size(w) // n), np.ravel(near))), shape=(n, n)
    ).tocsr()
    matrix.eliminate_zeros()
    return matrix, (raw != near).any(axis=1)


def build_stencils(grid: Grid, p: ModelParams, mode: str = "clamp") -> StencilSet:
    """Build the up/down shift maps of every alpha node.

    ``mode`` accepts only ``"clamp"``, the one boundary treatment; any other
    value raises ValueError.  The argument stays only because
    ``perfbench/workloads.py`` still passes it.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    up, up_boundary = _shift_map(grid, p.gamma_a, +1)
    down, down_boundary = _shift_map(grid, p.gamma_b, -1)
    return StencilSet(up=up, down=down, boundary=up_boundary | down_boundary)
