"""Discrete operators for one implicit backward step of the control problem.

At each node the value either continues (quoting decision ``la``, ``lb`` on
the ask/bid side) or jumps by an impulse market order (direction ``z``,
selected by ``d = 1``).  The continuation operator upwinds the signal drift
-k*alpha, takes a central second difference in alpha (zeroed on the cap
nodes), and moves jump terms through the grid's shift maps; fills move
inventory by one unit.  An impulse row encodes v(q) = v(q +/- 1) - upsilon
exactly.

The linear system for a policy P is

    [(I - D) (I - dt*L(w)) + D (I - B(z))] v^n = (I - D)(v^{n+1} + dt*f) - D*upsilon

with D the diagonal 0/1 impulse selector.  Each row of A(P) is fixed by its
node and that node's choice, so ``row_types`` builds every candidate row
once per grid and A(P) is the selection of one row per node.  ``residual``
evaluates the node-wise max over all admissible choices of the unscaled step
residual and doubles as the policy-improvement oracle.
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

    def switched_nodes(self, other: "Policy") -> int:
        """Number of nodes whose (la, lb, d, z) differ from ``other``'s;
        0 when the two policies are equal."""
        changed = (self.la != other.la) | (self.lb != other.lb) | (self.d != other.d)
        return int(np.count_nonzero(changed | (self.z != other.z)))


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

    up_all = (st.up @ v2d.T).T
    dn_all = (st.down @ v2d.T).T

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


def row_types(grid: Grid, p: ModelParams, st: StencilSet) -> sp.csr_matrix:
    """Every candidate row of A(P), stacked as six m x m blocks (m nodes).

    Blocks 0-3 are the continuation rows of I - dt*L for (la, lb) = (0, 0),
    (0, 1), (1, 0), (1, 1); blocks 4 and 5 the impulse rows of I - B(z) for
    z = +1 and -1.  Row ``policy_rows(grid, P)[node]`` is the row of A(P) at
    ``node``.  Rows whose choice would leave the inventory band are never
    selected.
    """
    dt = grid.d_t
    lup, ldn = _upwind_coeffs(grid, p)
    tri = sp.diags(
        [-dt * ldn[1:], 1.0 + dt * (lup + ldn + p.lambda_a + p.lambda_b), -dt * lup[:-1]],
        [-1, 0, 1],
        format="csr",
    )
    tri.eliminate_zeros()
    # move[s] maps inventory index jj to jj + s
    move = {s: sp.eye(grid.n_q, k=s, format="csr") for s in (-1, 0, 1)}
    local = sp.kron(move[0], tri, format="csr")
    # T first, then the up and down shifts: columns where they coincide sum
    # in that order, as a row-by-row assembly of the same terms does
    blocks = [
        local
        - dt * p.lambda_a * sp.kron(move[-la], st.up, format="csr")
        - dt * p.lambda_b * sp.kron(move[lb], st.down, format="csr")
        for la in (0, 1)
        for lb in (0, 1)
    ]
    eye_alpha = sp.identity(grid.n_alpha, format="csr")
    blocks += [sp.kron(move[0] - move[z], eye_alpha, format="csr") for z in (1, -1)]
    return sp.vstack(blocks, format="csr")


def policy_rows(grid: Grid, policy: Policy) -> np.ndarray:
    """Index into ``row_types`` of the row that ``policy`` chooses at each node."""
    block = np.where(policy.d == 1, 4 + (policy.z == -1), 2 * policy.la + policy.lb)
    return block.astype(np.int64) * grid.n_nodes + np.arange(grid.n_nodes)


def policy_masks(grid: Grid, st: StencilSet, policy: Policy):
    """(impulse_mask, boundary_rows) of A(P), as ``SparseSystem`` holds them."""
    impulse = policy.d.astype(bool)
    return impulse, np.tile(st.boundary, grid.n_q) & ~impulse


def assemble_system(
    grid: Grid,
    p: ModelParams,
    st: StencilSet,
    policy: Policy,
    v_next: np.ndarray,
) -> SparseSystem:
    """Assemble A(P) and b(P) for one implicit step under ``policy``.

    A(P) is the ``policy_rows`` selection from ``row_types``, and two
    policies with equal selections assemble the same system; ``v_next``
    enters b(P) alone.
    """
    policy.validate(grid)
    return SparseSystem(row_types(grid, p, st)[policy_rows(grid, policy)],
                        assemble_rhs(grid, p, policy, v_next),
                        *policy_masks(grid, st, policy), st.mode)
