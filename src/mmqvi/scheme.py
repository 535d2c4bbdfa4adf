"""Discrete operators for one implicit backward step of the control problem.

At each node the value either continues (quoting decision ``la``, ``lb`` on
the ask/bid side) or jumps by an impulse market order (direction ``z``,
selected by ``d = 1``).  The continuation operator upwinds the signal drift
-k*alpha, takes a central second difference in alpha (zeroed on the cap
nodes), and moves jump terms through the precomputed shift stencils; fills
move inventory by one unit.  An impulse row encodes v(q) = v(q +/- 1) -
upsilon exactly.

The assembled linear system for a policy P is

    [(I - D) (I - dt*L(w)) + D (I - B(z))] v^n = (I - D)(v^{n+1} + dt*f) - D*upsilon

with D the diagonal 0/1 impulse selector.  ``residual`` evaluates the
node-wise max over all admissible choices of the unscaled step residual and
doubles as the policy-improvement oracle.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .grid import Grid, StencilSet
from .model import ModelParams, running_reward


@dataclass(eq=False)
class Policy:
    """Per-node controls: quote bits la/lb, impulse direction z, selector d.

    ``z`` is stored for every node but only acts where ``d = 1``.  At the
    inventory caps, fills or impulses that would leave [-q_bar, q_bar] are
    inadmissible: la = 0 at q = -q_bar, lb = 0 at q = +q_bar, and d = 1 with
    an outward z is forbidden.
    """

    la: np.ndarray
    lb: np.ndarray
    z: np.ndarray
    d: np.ndarray

    def validate(self, grid: Grid) -> None:
        m = grid.n_nodes
        for name in ("la", "lb", "z", "d"):
            arr = getattr(self, name)
            if arr.shape != (m,):
                raise ValueError(f"policy field {name} has shape {arr.shape}, expected ({m},)")
        for name in ("la", "lb", "d"):
            arr = getattr(self, name)
            if not np.isin(arr, (0, 1)).all():
                raise ValueError(f"policy field {name} must be 0/1 valued")
        if not np.isin(self.z, (-1, 1)).all():
            raise ValueError("policy field z must be -1/+1 valued")
        jj = np.arange(m) // grid.n_alpha
        bottom = jj == 0
        top = jj == grid.n_q - 1
        bad = np.flatnonzero(bottom & (self.la == 1))
        if bad.size:
            raise ValueError(f"la = 1 at q = -q_bar (node {bad[0]}) would breach the cap")
        bad = np.flatnonzero(top & (self.lb == 1))
        if bad.size:
            raise ValueError(f"lb = 1 at q = +q_bar (node {bad[0]}) would breach the cap")
        bad = np.flatnonzero(top & (self.d == 1) & (self.z == 1))
        if bad.size:
            raise ValueError(f"impulse z = +1 at q = +q_bar (node {bad[0]}) would breach the cap")
        bad = np.flatnonzero(bottom & (self.d == 1) & (self.z == -1))
        if bad.size:
            raise ValueError(f"impulse z = -1 at q = -q_bar (node {bad[0]}) would breach the cap")

    def digest(self) -> str:
        h = hashlib.sha1()
        for arr in (self.la, self.lb, self.z, self.d):
            h.update(np.ascontiguousarray(arr, dtype=np.int8).tobytes())
        return h.hexdigest()[:16]

    def matrix_key(self) -> bytes:
        """Bytes that determine A(P): la, lb, d, and z where d = 1.

        Two policies with equal keys assemble the same matrix, impulse mask
        and boundary rows, and pass or fail the same verification.
        """
        active_z = np.where(self.d == 1, self.z, 0)
        return b"".join(
            np.ascontiguousarray(arr, dtype=np.int8).tobytes()
            for arr in (self.la, self.lb, self.d, active_z)
        )

    def equals(self, other: "Policy") -> bool:
        return (
            np.array_equal(self.la, other.la)
            and np.array_equal(self.lb, other.lb)
            and np.array_equal(self.z, other.z)
            and np.array_equal(self.d, other.d)
        )


def apply_caps(grid: Grid, la, lb, z, d) -> Policy:
    """Build a Policy from raw arrays, forcing the cap constraints.

    Quote bits pointing out of the inventory band are zeroed and impulses
    with an outward direction at a cap are demoted to continuation.
    """
    la = np.asarray(la, dtype=np.int8).copy()
    lb = np.asarray(lb, dtype=np.int8).copy()
    z = np.asarray(z, dtype=np.int8).copy()
    d = np.asarray(d, dtype=np.int8).copy()
    jj = np.arange(grid.n_nodes) // grid.n_alpha
    la[jj == 0] = 0
    lb[jj == grid.n_q - 1] = 0
    d[(jj == grid.n_q - 1) & (z == 1)] = 0
    d[(jj == 0) & (z == -1)] = 0
    policy = Policy(la=la, lb=lb, z=z, d=d)
    policy.validate(grid)
    return policy


@dataclass(eq=False)
class SparseSystem:
    """Assembled linear system A(P) v = b(P), matrix in CSR form.

    ``impulse_mask`` marks rows taken from I - B(z); ``boundary_rows`` marks
    continuation rows whose shift stencils needed cap handling (the rows
    whose dominance margin degrades in paper extrapolation mode).
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    impulse_mask: np.ndarray
    boundary_rows: np.ndarray
    mode: str


def _upwind_coeffs(grid: Grid, p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-alpha-node coefficients of L on v(i+1)-v(i) and v(i-1)-v(i).

    Upwinding puts the drift -k*alpha on the forward difference where
    alpha < 0 and on the backward difference where alpha > 0; the second
    difference is zeroed on the cap nodes, which also keeps both stencil legs
    inside the lattice.
    """
    a = grid.alphas
    interior = np.ones(grid.n_alpha)
    interior[0] = interior[-1] = 0.0
    diff = 0.5 * p.rho**2 / grid.d_alpha**2 * interior
    lup = p.k * np.maximum(-a, 0.0) / grid.d_alpha + diff
    ldn = p.k * np.maximum(a, 0.0) / grid.d_alpha + diff
    return lup, ldn


def _drift_diffusion(grid: Grid, p: ModelParams, v2d: np.ndarray) -> np.ndarray:
    lup, ldn = _upwind_coeffs(grid, p)
    out = np.zeros_like(v2d)
    out[:, :-1] += lup[:-1] * (v2d[:, 1:] - v2d[:, :-1])
    out[:, 1:] += ldn[1:] * (v2d[:, :-1] - v2d[:, 1:])
    return out


def _branches(grid: Grid, p: ModelParams, st: StencilSet, v: np.ndarray, v_next: np.ndarray):
    """Node-wise branch values and argmax bits, all shaped (n_q, n_alpha).

    Returns (cont, la, lb, imp, z) where ``cont`` is the best continuation
    residual (v_next - v)/dt + L v + f over the admissible quote bits and
    ``imp`` the best admissible impulse value B v - upsilon.  Ties prefer
    quote bit 0 and impulse direction +1.
    """
    n_q, n_alpha = grid.n_q, grid.n_alpha
    v2d = v.reshape(n_q, n_alpha)
    v_next2d = v_next.reshape(n_q, n_alpha)

    up_all = (st.up_matrix @ v2d.T).T
    dn_all = (st.down_matrix @ v2d.T).T

    jump_up0 = p.lambda_a * up_all
    jump_up1 = np.full_like(up_all, -np.inf)
    jump_up1[1:] = p.lambda_a * up_all[:-1] + p.lambda_a * p.delta
    jump_dn0 = p.lambda_b * dn_all
    jump_dn1 = np.full_like(dn_all, -np.inf)
    jump_dn1[:-1] = p.lambda_b * dn_all[1:] + p.lambda_b * p.delta

    la = jump_up1 > jump_up0
    lb = jump_dn1 > jump_dn0

    q_col = grid.qs[:, None].astype(float)
    base = (
        (v_next2d - v2d) / grid.d_t
        + _drift_diffusion(grid, p, v2d)
        + p.sigma * q_col * grid.alphas[None, :]
        - p.phi * q_col**2
        - (p.lambda_a + p.lambda_b) * v2d
    )
    cont = base + np.where(la, jump_up1, jump_up0) + np.where(lb, jump_dn1, jump_dn0)

    imp_up = np.full_like(v2d, -np.inf)
    imp_up[:-1] = v2d[1:] - v2d[:-1] - p.upsilon
    imp_dn = np.full_like(v2d, -np.inf)
    imp_dn[1:] = v2d[:-1] - v2d[1:] - p.upsilon
    z = np.where(imp_up >= imp_dn, 1, -1).astype(np.int8)
    imp = np.maximum(imp_up, imp_dn)
    return cont, la, lb, imp, z


def residual(grid: Grid, p: ModelParams, st: StencilSet, v: np.ndarray, v_next: np.ndarray):
    """Node-wise scheme residual and its argmax policy.

    For every node, the max over the admissible continuation choices of
    (v_next - v)/dt + L v + f and the admissible impulse values B v - upsilon.
    At the solution of the step this max is zero node-wise.  Ties break
    toward continuation, unquoted sides, and impulse direction +1.
    """
    cont, la, lb, imp, z = _branches(grid, p, st, v, v_next)
    d = imp > cont
    res = np.maximum(cont, imp)
    policy = Policy(
        la=la.ravel().astype(np.int8),
        lb=lb.ravel().astype(np.int8),
        z=z.ravel(),
        d=d.ravel().astype(np.int8),
    )
    return res.ravel(), policy


def residual_at_node(
    grid: Grid,
    p: ModelParams,
    st: StencilSet,
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

    best = -np.inf
    for la in (0, 1):
        if la and jj == 0:
            continue
        for lb in (0, 1):
            if lb and jj == n_q - 1:
                continue
            jump = p.lambda_a * (st.up[ii].apply(v2d[jj - la]) - r)
            jump += p.lambda_b * (st.down[ii].apply(v2d[jj + lb]) - r)
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


def continuation_row(
    grid: Grid, p: ModelParams, st: StencilSet, ii: int, jj: int, la: int, lb: int
):
    """One row of I - dt*L(w) plus the reward part of its right side.

    Returns (cols, vals, rhs_reward) where rhs_reward = dt * f(alpha, q, la,
    lb); the full right side adds v^{n+1} at the node.  Raises if a quote bit
    would move inventory past a cap.
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

    add(grid.flatten(ii, jj), 1.0 + dt * (lup + ldn + p.lambda_a + p.lambda_b))
    if lup:
        add(grid.flatten(ii + 1, jj), -dt * lup)
    if ldn:
        add(grid.flatten(ii - 1, jj), -dt * ldn)
    for idx, w in zip(st.up[ii].indices, st.up[ii].weights):
        add(grid.flatten(idx, jj - la), -dt * p.lambda_a * w)
    for idx, w in zip(st.down[ii].indices, st.down[ii].weights):
        add(grid.flatten(idx, jj + lb), -dt * p.lambda_b * w)

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
    cols = [grid.flatten(ii, jj), grid.flatten(ii, nbr)]
    vals = [1.0, -1.0]
    return cols, vals, -p.upsilon


def assemble_rhs(
    grid: Grid, p: ModelParams, policy: Policy, v_next: np.ndarray
) -> np.ndarray:
    """Right side b(P): v^{n+1} + dt*f on continuation rows, -upsilon on impulse rows.

    Unlike ``assemble_system`` it does not validate ``policy``.
    """
    rhs = v_next + grid.d_t * running_reward(
        p, grid.alpha_of_node, grid.q_of_node.astype(float), policy.la, policy.lb
    )
    rhs[policy.d.astype(bool)] = -p.upsilon
    return rhs


def assemble_system(
    grid: Grid,
    p: ModelParams,
    st: StencilSet,
    policy: Policy,
    v_next: np.ndarray,
) -> SparseSystem:
    """Assemble A(P) and b(P) for one implicit step under ``policy``.

    A(P) depends only on ``policy.matrix_key()``; ``v_next`` enters b(P)
    alone.
    """
    policy.validate(grid)
    m = grid.n_nodes
    n_alpha = grid.n_alpha
    dt = grid.d_t
    nodes = np.arange(m)
    ii = nodes % n_alpha
    jj = nodes // n_alpha

    lup, ldn = _upwind_coeffs(grid, p)
    diag0 = 1.0 + dt * (lup + ldn + p.lambda_a + p.lambda_b)

    rows = [nodes]
    cols = [nodes]
    data = [diag0[ii]]

    keep = lup[ii] != 0
    rows.append(nodes[keep])
    cols.append(nodes[keep] + 1)
    data.append(-dt * lup[ii[keep]])

    keep = ldn[ii] != 0
    rows.append(nodes[keep])
    cols.append(nodes[keep] - 1)
    data.append(-dt * ldn[ii[keep]])

    la = policy.la.astype(np.int64)
    lb = policy.lb.astype(np.int64)
    for s in range(st.up_idx.shape[1]):
        w = st.up_w[ii, s]
        keep = w != 0
        rows.append(nodes[keep])
        cols.append((jj[keep] - la[keep]) * n_alpha + st.up_idx[ii[keep], s])
        data.append(-dt * p.lambda_a * w[keep])
    for s in range(st.down_idx.shape[1]):
        w = st.down_w[ii, s]
        keep = w != 0
        rows.append(nodes[keep])
        cols.append((jj[keep] + lb[keep]) * n_alpha + st.down_idx[ii[keep], s])
        data.append(-dt * p.lambda_b * w[keep])

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    data = np.concatenate(data)

    impulse = policy.d.astype(bool)
    keep = ~impulse[rows]
    rows, cols, data = rows[keep], cols[keep], data[keep]

    imp_nodes = nodes[impulse]
    imp_nbrs = imp_nodes + policy.z[imp_nodes].astype(np.int64) * n_alpha
    rows = np.concatenate([rows, imp_nodes, imp_nodes])
    cols = np.concatenate([cols, imp_nodes, imp_nbrs])
    data = np.concatenate([data, np.ones(imp_nodes.size), -np.ones(imp_nodes.size)])

    matrix = sp.coo_matrix((data, (rows, cols)), shape=(m, m)).tocsr()
    matrix.eliminate_zeros()

    boundary = (st.up_boundary[ii] | st.down_boundary[ii]) & ~impulse
    return SparseSystem(
        matrix=matrix,
        rhs=assemble_rhs(grid, p, policy, v_next),
        impulse_mask=impulse,
        boundary_rows=boundary,
        mode=st.mode,
    )
