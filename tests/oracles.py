"""Scalar reference implementations of the discrete operator.

Only tests use these.  They restate, one node and one stencil at a time,
what ``mmqvi.grid`` and ``mmqvi.scheme`` compute for whole grids at once:
the shift stencils behind ``StencilSet.up``/``down``, the rows behind
``scheme.row_types``, the row each node's controls select behind
``scheme.policy_rows``, the node residual behind ``scheme.residual``, the
impulse chains behind ``policy_iteration._impulse_chains``, and the impulse
obstacle behind ``solver._project_impulses``, by repeated neighbour sweeps.
``assemble_rhs`` builds b(P) from a policy's controls, as
``scheme.StepTables.rhs`` gathers it by row type, and ``apply_caps`` builds
a policy from raw controls with the inventory caps forced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mmqvi.grid import EXACT_SHIFT_TOL, Grid
from mmqvi.model import ModelParams, running_reward
from mmqvi.scheme import Policy


def flatten(grid: Grid, ii, jj):
    """Node index of (alpha index ii, inventory index jj); broadcasts."""
    return jj * grid.n_alpha + ii


def unflatten(grid: Grid, m):
    """Inverse of flatten: node index -> (alpha index, inventory index)."""
    return m % grid.n_alpha, m // grid.n_alpha


@dataclass(frozen=True)
class ShiftStencil:
    """Evaluation of v(alpha_i +/- gamma, .) as lattice weights at fixed q.

    ``indices``/``weights`` give the linear functional; weights always sum to
    one.  ``boundary`` marks stencils whose shift target left the lattice and
    was therefore clamped to the cap node.
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


def _resolve(raw: list[tuple[int, float]], i_max: int) -> tuple[list[tuple[int, float]], bool]:
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
        add(min(max(idx, 0), i_max), w)
    items = sorted(resolved.items())
    return items, boundary


def _stencil(grid: Grid, gamma: float, i: int, direction: int) -> ShiftStencil:
    m = gamma / grid.d_alpha
    m_round = round(m)
    if abs(m - m_round) < EXACT_SHIFT_TOL:
        raw = [(i + direction * m_round, 1.0)]
    else:
        fl = math.floor(m)
        frac = m - fl
        raw = [(i + direction * fl, 1.0 - frac), (i + direction * (fl + 1), frac)]
    items, boundary = _resolve(raw, grid.n_alpha - 1)
    return ShiftStencil(
        alpha_index=i,
        indices=tuple(idx for idx, _ in items),
        weights=tuple(w for _, w in items),
        target=grid.alphas[i] + direction * gamma,
        boundary=boundary,
    )


def shift_stencil_up(grid: Grid, p: ModelParams, i: int) -> ShiftStencil:
    """Stencil for v(alpha_i + gamma_a, .)."""
    return _stencil(grid, p.gamma_a, i, +1)


def shift_stencil_down(grid: Grid, p: ModelParams, i: int) -> ShiftStencil:
    """Stencil for v(alpha_i - gamma_b, .)."""
    return _stencil(grid, p.gamma_b, i, -1)


def residual_at_node(
    grid: Grid,
    p: ModelParams,
    ii: int,
    jj: int,
    r: float,
    v: np.ndarray,
    v_next: np.ndarray,
) -> float:
    """Scheme residual at one node with the center value replaced by ``r``.

    Scalar transliteration of the node-wise maximization, used to probe the
    monotonicity of the scheme in the off-center values.  ``v`` supplies the
    off-center values at the current level, ``v_next`` the full next level.
    The stencils come from ``shift_stencil_*``.
    """
    n_alpha, n_q = grid.n_alpha, grid.n_q
    v2d = v.reshape(n_q, n_alpha).copy()
    v2d[jj, ii] = r
    v_next_c = v_next.reshape(n_q, n_alpha)[jj, ii]
    alpha = grid.alphas[ii]
    q = float(grid.qs[jj])

    interior = 0 < ii < n_alpha - 1
    diff = 0.5 * p.rho**2 / grid.d_alpha**2 if interior else 0.0
    lup = p.k * max(-alpha, 0.0) / grid.d_alpha + diff
    ldn = p.k * max(alpha, 0.0) / grid.d_alpha + diff
    dd = 0.0
    if lup:
        dd += lup * (v2d[jj, ii + 1] - r)
    if ldn:
        dd += ldn * (v2d[jj, ii - 1] - r)

    up = shift_stencil_up(grid, p, ii)
    down = shift_stencil_down(grid, p, ii)
    best = -np.inf
    for la in (0, 1):
        if la and jj == 0:
            continue
        for lb in (0, 1):
            if lb and jj == n_q - 1:
                continue
            jump = p.lambda_a * (up.apply(v2d[jj - la]) - r)
            jump += p.lambda_b * (down.apply(v2d[jj + lb]) - r)
            cont = (
                (v_next_c - r) / grid.d_t
                + dd
                + jump
                + running_reward(p, alpha, q, la, lb)
            )
            best = max(best, cont)
    for z in (1, -1):
        nbr = jj + z
        if 0 <= nbr < n_q:
            best = max(best, v2d[nbr, ii] - r - p.upsilon)
    return best


def continuation_row(grid: Grid, p: ModelParams, ii: int, jj: int, la: int, lb: int):
    """One row of I - dt*L(w) plus the reward part of its right side.

    Returns (cols, vals, rhs_reward) where rhs_reward = dt * f(alpha, q, la,
    lb); the full right side adds v^{n+1} at the node.  Raises if a quote bit
    would move inventory past a cap.  The stencils come from
    ``shift_stencil_*``.
    """
    if la not in (0, 1) or lb not in (0, 1):
        raise ValueError(f"quote bits must be 0/1, got la={la!r} lb={lb!r}")
    if la and jj == 0:
        raise ValueError(f"la = 1 at q = {grid.qs[0]} would breach the inventory cap")
    if lb and jj == grid.n_q - 1:
        raise ValueError(f"lb = 1 at q = {grid.qs[-1]} would breach the inventory cap")

    dt = grid.d_t
    alpha = grid.alphas[ii]
    interior = 0 < ii < grid.n_alpha - 1
    diff = 0.5 * p.rho**2 / grid.d_alpha**2 if interior else 0.0
    lup = p.k * max(-alpha, 0.0) / grid.d_alpha + diff
    ldn = p.k * max(alpha, 0.0) / grid.d_alpha + diff

    entries: dict[int, float] = {}

    def add(col: int, val: float) -> None:
        entries[col] = entries.get(col, 0.0) + val

    add(flatten(grid, ii, jj), 1.0 + dt * (lup + ldn + p.lambda_a + p.lambda_b))
    if lup:
        add(flatten(grid, ii + 1, jj), -dt * lup)
    if ldn:
        add(flatten(grid, ii - 1, jj), -dt * ldn)
    up = shift_stencil_up(grid, p, ii)
    for idx, w in zip(up.indices, up.weights):
        add(flatten(grid, idx, jj - la), -dt * p.lambda_a * w)
    down = shift_stencil_down(grid, p, ii)
    for idx, w in zip(down.indices, down.weights):
        add(flatten(grid, idx, jj + lb), -dt * p.lambda_b * w)

    cols = sorted(entries)
    vals = [entries[c] for c in cols]
    rhs_reward = dt * running_reward(p, alpha, float(grid.qs[jj]), la, lb)
    return cols, vals, rhs_reward


def impulse_row(grid: Grid, p: ModelParams, ii: int, jj: int, z: int):
    """One row of I - B(z): v(q) - v(q +/- z) with right side -upsilon."""
    if z not in (-1, 1):
        raise ValueError(f"impulse direction must be -1 or +1, got {z!r}")
    nbr = jj + z
    if not 0 <= nbr < grid.n_q:
        raise ValueError(
            f"impulse z={z} at q={grid.qs[jj]} would leave the inventory band"
        )
    cols = [flatten(grid, ii, jj), flatten(grid, ii, nbr)]
    vals = [1.0, -1.0]
    return cols, vals, -p.upsilon


def policy_row(grid: Grid, la: int, lb: int, z: int, d: int, node: int) -> int:
    """Index into ``row_types`` of the row that the controls (la, lb, z, d)
    select at ``node``: block 2*la + lb on continuation, 4 + (z = -1) on an
    impulse."""
    block = 4 + (z == -1) if d else 2 * la + lb
    return block * grid.n_nodes + node


def walk_impulse_chain(grid: Grid, d, z, start: int):
    """The nodes of the impulse chain from d = 1 node ``start``, one move at
    a time: (nodes, end), with ``end`` the continuation node it lands on, or
    None when it leaves the inventory band or has not landed within 2*q_bar
    moves."""
    nodes, node = [], start
    for _ in range(grid.n_q - 1):
        nodes.append(node)
        ii, jj = unflatten(grid, node)
        jj += int(z[node])
        if not 0 <= jj < grid.n_q:
            return nodes, None
        node = int(flatten(grid, ii, jj))
        if d[node] == 0:
            return nodes, node
    return nodes, None


def project_impulses(grid: Grid, p: ModelParams, v2d: np.ndarray):
    """Raise values to the impulse obstacle max_z v(q +/- 1) - upsilon.

    Repeated sweeps let impulses chain across inventory levels; at most
    n_q - 1 sweeps are needed.
    """
    d = np.zeros_like(v2d, dtype=bool)
    z = np.ones_like(v2d, dtype=np.int8)
    for _ in range(grid.n_q - 1):
        cand_up = np.full_like(v2d, -np.inf)
        cand_up[:-1] = v2d[1:] - p.upsilon
        cand_dn = np.full_like(v2d, -np.inf)
        cand_dn[1:] = v2d[:-1] - p.upsilon
        best = np.maximum(cand_up, cand_dn)
        improved = best > v2d
        if not improved.any():
            break
        z = np.where(improved, np.where(cand_up >= cand_dn, 1, -1), z).astype(np.int8)
        d |= improved
        v2d = np.where(improved, best, v2d)
    return v2d, d, z


def assemble_rhs(grid: Grid, p: ModelParams, policy, v_next: np.ndarray) -> np.ndarray:
    """Right side b(P): v^{n+1} + dt*f on continuation rows, -upsilon on
    impulse rows, from the policy's controls.  It does not validate
    ``policy``."""
    rhs = v_next + grid.d_t * running_reward(
        p, grid.alpha_of_node, grid.q_of_node.astype(float), policy.la, policy.lb
    )
    rhs[policy.d.astype(bool)] = -p.upsilon
    return rhs


def apply_caps(grid: Grid, la, lb, z, d) -> Policy:
    """Build a Policy from raw arrays, forcing the cap constraints.

    Quote bits pointing out of the inventory band are zeroed and impulses
    with an outward direction at a cap are demoted to continuation.
    """
    jj = np.arange(grid.n_nodes) // grid.n_alpha
    bottom, top = jj == 0, jj == grid.n_q - 1
    outward = (top & np.equal(z, 1)) | (bottom & np.equal(z, -1))
    return Policy.of(np.where(bottom, 0, la), np.where(top, 0, lb), z, np.where(outward, 0, d))
