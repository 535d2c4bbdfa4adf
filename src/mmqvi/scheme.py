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
residual and doubles as the policy-improvement oracle.  Everything in it that
does not depend on the iterate, and dt*f of each row type, is built once per
problem in ``StepTables``: a new iterate costs one stacked shift product and
elementwise maxima, and a new policy's right side is a gather by row type.
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


class StepTables:
    """Per-grid constants of one implicit step, built once per problem.

    Policy improvement reads the upwind coefficients ``lup``/``ldn`` (the
    forward and backward legs, sliced as the differences use them), the
    reward terms ``sqa`` = sigma*q*alpha and ``pq2`` = phi*q^2 as (n_q,
    n_alpha) arrays, and ``shifts``, the up and down shift maps stacked into
    one [up; down] map.  ``dt_reward`` holds dt*f for each of the six row
    types of ``row_types`` (zero on the impulse blocks), so the right side of
    a policy is a gather by its ``policy_rows``.
    """

    def __init__(self, grid: Grid, p: ModelParams, st: StencilSet):
        self.grid, self.p = grid, p
        lup, ldn = _upwind_coeffs(grid, p)
        self.lup, self.ldn = lup[:-1], ldn[1:]
        q_col = grid.qs[:, None].astype(float)
        shape = (grid.n_q, grid.n_alpha)
        self.sqa = p.sigma * q_col * grid.alphas[None, :]
        self.pq2 = np.ascontiguousarray(np.broadcast_to(p.phi * q_col**2, shape))
        self.shifts = sp.vstack([st.up, st.down], format="csr")
        alpha, q = grid.alpha_of_node, grid.q_of_node.astype(float)
        self.dt_reward = np.concatenate(
            [grid.d_t * running_reward(p, alpha, q, la, lb) for la in (0, 1) for lb in (0, 1)]
            + [np.zeros(2 * grid.n_nodes)]
        )

    def rhs(self, rows: np.ndarray, v_next: np.ndarray) -> np.ndarray:
        """b(P) of the policy whose ``policy_rows`` are ``rows``: v^{n+1} +
        dt*f gathered by row type, -upsilon on the impulse rows."""
        rhs = v_next + self.dt_reward[rows]
        rhs[rows >= 4 * self.grid.n_nodes] = -self.p.upsilon
        return rhs


def _branches(tables: StepTables, v: np.ndarray, v_next: np.ndarray):
    """Node-wise branch values and argmax bits, all shaped (n_q, n_alpha).

    Returns (cont, la, lb, imp, z) where ``cont`` is the best continuation
    residual (v_next - v)/dt + L v + f over the admissible quote bits and
    ``imp`` the best admissible impulse value B v - upsilon.  Ties prefer
    quote bit 0 and impulse direction +1.  ``tables`` are the problem's
    ``StepTables``.  An ask fill (la = 1) needs q > -q_bar and a bid fill
    q < q_bar; an impulse up needs q < q_bar and one down q > -q_bar.
    """
    grid, p = tables.grid, tables.p
    n_q, n_alpha = grid.n_q, grid.n_alpha
    v2d = v.reshape(n_q, n_alpha)
    v_next2d = v_next.reshape(n_q, n_alpha)

    shifted = tables.shifts @ v2d.T
    jump_up = np.multiply(shifted[:n_alpha].T, p.lambda_a, order="C")
    jump_dn = np.multiply(shifted[n_alpha:].T, p.lambda_b, order="C")
    # a fill moves inventory one unit: v(q - 1) on the ask, v(q + 1) on the bid
    fill_up = jump_up[:-1] + p.lambda_a * p.delta
    fill_dn = jump_dn[1:] + p.lambda_b * p.delta
    la = np.zeros((n_q, n_alpha), dtype=bool)
    lb = np.zeros((n_q, n_alpha), dtype=bool)
    np.greater(fill_up, jump_up[1:], out=la[1:])
    np.greater(fill_dn, jump_dn[:-1], out=lb[:-1])
    np.maximum(jump_up[1:], fill_up, out=jump_up[1:])
    np.maximum(jump_dn[:-1], fill_dn, out=jump_dn[:-1])

    drift = np.zeros_like(v2d)
    step = v2d[:, 1:] - v2d[:, :-1]
    drift[:, :-1] += tables.lup * step
    drift[:, 1:] += tables.ldn * -step
    cont = (
        (v_next2d - v2d) / grid.d_t
        + drift
        + tables.sqa
        - tables.pq2
        - (p.lambda_a + p.lambda_b) * v2d
    )
    cont += jump_up
    cont += jump_dn

    rise = v2d[1:] - v2d[:-1]
    imp_up = rise - p.upsilon
    imp_dn = -rise - p.upsilon
    z = np.ones((n_q, n_alpha), dtype=np.int8)
    imp = np.empty_like(v2d)
    imp[0], imp[-1], z[-1] = imp_up[0], imp_dn[-1], -1
    np.maximum(imp_up[1:], imp_dn[:-1], out=imp[1:-1])
    z[1:-1][imp_up[1:] < imp_dn[:-1]] = -1
    return cont, la, lb, imp, z


def residual(tables: StepTables, v: np.ndarray, v_next: np.ndarray):
    """Node-wise scheme residual and its argmax policy.

    For every node, the max over the admissible continuation choices of
    (v_next - v)/dt + L v + f and the admissible impulse values B v - upsilon.
    At the solution of the step this max is zero node-wise.  Ties break
    toward continuation, unquoted sides, and impulse direction +1.
    ``tables`` are the problem's ``StepTables``.
    """
    cont, la, lb, imp, z = _branches(tables, v, v_next)
    d = imp > cont
    res = np.maximum(cont, imp)
    policy = Policy(
        la=la.ravel().astype(np.int8),
        lb=lb.ravel().astype(np.int8),
        z=z.ravel(),
        d=d.ravel().astype(np.int8),
    )
    return res.ravel(), policy


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
    block = 2 * policy.la + policy.lb
    impulse = policy.d == 1
    block[impulse] = 4 + (policy.z[impulse] == -1)
    rows = block.astype(np.int64)
    rows *= grid.n_nodes
    return rows + np.arange(grid.n_nodes)


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
    rows = policy_rows(grid, policy)
    impulse = policy.d.astype(bool)
    return SparseSystem(row_types(grid, p, st)[rows], StepTables(grid, p, st).rhs(rows, v_next),
                        impulse, np.tile(st.boundary, grid.n_q) & ~impulse, st.mode)
