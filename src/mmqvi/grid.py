"""Uniform space-time lattice and signal-shift interpolation stencils.

The reduced value v(t, alpha, q) lives on a uniform grid: N time steps over
[0, T], an odd number of alpha nodes symmetric about 0 spanning
[-alpha_cap, alpha_cap], and integer inventories -q_bar..q_bar.  Nodes are
flattened q-major (inventory is the slow index) so the tridiagonal alpha
coupling stays contiguous.

Jump terms evaluate v at alpha +/- gamma, which generally falls between
nodes.  A shift stencil writes that evaluation as a two-point convex
combination of lattice values, degenerating to a pure index shift when
gamma is an exact multiple of the alpha spacing.  Shift targets beyond the
truncation cap are handled by one of two modes:

* ``clamp``  - evaluate at the cap node (keeps all weights nonnegative),
* ``paper``  - linear extrapolation from the two outermost nodes (exact on
  linear surfaces but introduces one negative weight per affected stencil).
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

MODES = ("clamp", "paper")


@dataclass(frozen=True)
class GridSpec:
    """Grid resolution and caps.  alpha/inventory caps must match the model."""

    n_time_steps: int
    n_alpha_points: int
    alpha_cap: float
    q_bar: int

    def __post_init__(self) -> None:
        if not (isinstance(self.n_time_steps, int) and self.n_time_steps >= 1):
            raise ValueError(f"n_time_steps must be an integer >= 1, got {self.n_time_steps!r}")
        if not isinstance(self.n_alpha_points, int) or self.n_alpha_points < 3:
            raise ValueError(f"n_alpha_points must be an odd integer >= 3, got {self.n_alpha_points!r}")
        if self.n_alpha_points % 2 == 0:
            raise ValueError(
                f"n_alpha_points must be odd so alpha = 0 is a node, got {self.n_alpha_points}"
            )
        if not self.alpha_cap > 0:
            raise ValueError(f"alpha_cap must be > 0, got {self.alpha_cap!r}")
        if not (isinstance(self.q_bar, int) and self.q_bar > 0):
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

    def flatten(self, ii, jj):
        """Node index of (alpha index ii, inventory index jj); broadcasts."""
        return jj * self.n_alpha + ii

    def unflatten(self, m):
        """Inverse of flatten: node index -> (alpha index, inventory index)."""
        return m % self.n_alpha, m // self.n_alpha

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


@dataclass(frozen=True)
class ShiftStencil:
    """Evaluation of v(alpha_i +/- gamma, .) as lattice weights at fixed q.

    ``indices``/``weights`` give the linear functional; weights always sum to
    one.  ``boundary`` marks stencils whose shift target left the lattice and
    therefore received clamp or extrapolation treatment.
    """

    alpha_index: int
    indices: tuple[int, ...]
    weights: tuple[float, ...]
    target: float
    boundary: bool

    def apply(self, values_along_alpha: np.ndarray) -> float:
        out = 0.0
        for idx, w in zip(self.indices, self.weights):
            out += w * values_along_alpha[idx]
        return out


def _resolve(raw: list[tuple[int, float]], i_max: int, mode: str) -> tuple[list[tuple[int, float]], bool]:
    """Map raw (possibly off-lattice) stencil points into [0, i_max]."""
    boundary = False
    resolved: dict[int, float] = {}

    def add(idx: int, w: float) -> None:
        resolved[idx] = resolved.get(idx, 0.0) + w

    for idx, w in raw:
        if 0 <= idx <= i_max:
            add(idx, w)
            continue
        boundary = True
        if mode == "clamp":
            add(min(max(idx, 0), i_max), w)
        elif idx > i_max:
            # linear extrapolation from the two top nodes
            e = idx - i_max
            add(i_max, w * (1.0 + e))
            add(i_max - 1, -w * e)
        else:
            e = -idx
            add(0, w * (1.0 + e))
            add(1, -w * e)
    items = sorted(resolved.items())
    return items, boundary


def _stencil(grid: Grid, gamma: float, i: int, direction: int, mode: str) -> ShiftStencil:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    m = gamma / grid.d_alpha
    m_round = round(m)
    if abs(m - m_round) < EXACT_SHIFT_TOL:
        raw = [(i + direction * m_round, 1.0)]
    else:
        fl = math.floor(m)
        frac = m - fl
        raw = [(i + direction * fl, 1.0 - frac), (i + direction * (fl + 1), frac)]
    items, boundary = _resolve(raw, grid.n_alpha - 1, mode)
    return ShiftStencil(
        alpha_index=i,
        indices=tuple(idx for idx, _ in items),
        weights=tuple(w for _, w in items),
        target=grid.alphas[i] + direction * gamma,
        boundary=boundary,
    )


def shift_stencil_up(grid: Grid, p: ModelParams, i: int, mode: str = "clamp") -> ShiftStencil:
    """Stencil for v(alpha_i + gamma_a, .)."""
    return _stencil(grid, p.gamma_a, i, +1, mode)


def shift_stencil_down(grid: Grid, p: ModelParams, i: int, mode: str = "clamp") -> ShiftStencil:
    """Stencil for v(alpha_i - gamma_b, .)."""
    return _stencil(grid, p.gamma_b, i, -1, mode)


@dataclass(eq=False)
class StencilSet:
    """All shift stencils of a grid, precomputed once, plus packed forms.

    ``up_matrix``/``down_matrix`` apply the whole family at once to a vector
    indexed by alpha; ``*_idx``/``*_w`` are the same data padded to fixed
    width for vectorized sparse assembly.
    """

    mode: str
    up: list[ShiftStencil]
    down: list[ShiftStencil]
    up_idx: np.ndarray
    up_w: np.ndarray
    up_boundary: np.ndarray
    down_idx: np.ndarray
    down_w: np.ndarray
    down_boundary: np.ndarray
    up_matrix: sp.csr_matrix
    down_matrix: sp.csr_matrix


def _pack(stencils: list[ShiftStencil], n_alpha: int):
    width = max(len(s.indices) for s in stencils)
    idx = np.zeros((n_alpha, width), dtype=np.int64)
    w = np.zeros((n_alpha, width), dtype=float)
    boundary = np.zeros(n_alpha, dtype=bool)
    for s in stencils:
        idx[s.alpha_index, : len(s.indices)] = s.indices
        w[s.alpha_index, : len(s.weights)] = s.weights
        boundary[s.alpha_index] = s.boundary
    rows = np.repeat(np.arange(n_alpha), width)
    matrix = sp.csr_matrix(
        (w.ravel(), (rows, idx.ravel())), shape=(n_alpha, n_alpha)
    )
    matrix.eliminate_zeros()
    return idx, w, boundary, matrix


def build_stencils(grid: Grid, p: ModelParams, mode: str = "clamp") -> StencilSet:
    """Precompute up/down shift stencils for every alpha node."""
    up = [shift_stencil_up(grid, p, i, mode) for i in range(grid.n_alpha)]
    down = [shift_stencil_down(grid, p, i, mode) for i in range(grid.n_alpha)]
    up_idx, up_w, up_boundary, up_matrix = _pack(up, grid.n_alpha)
    down_idx, down_w, down_boundary, down_matrix = _pack(down, grid.n_alpha)
    return StencilSet(
        mode=mode,
        up=up,
        down=down,
        up_idx=up_idx,
        up_w=up_w,
        up_boundary=up_boundary,
        down_idx=down_idx,
        down_w=down_w,
        down_boundary=down_boundary,
        up_matrix=up_matrix,
        down_matrix=down_matrix,
    )
