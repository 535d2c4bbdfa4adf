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

with D the diagonal 0/1 impulse selector.  A policy is one byte per node,
``Policy.code``, of the bits LA, LB, D and UP defined here and nowhere else.
Each row of A(P) is fixed by its node and that node's code, so ``row_types``
builds every candidate row once per grid and A(P) is the selection of one
row per node, by the code's ``ROW_BLOCK``.  ``residual`` evaluates the
node-wise max over all admissible choices of the unscaled step residual and
doubles as the policy-improvement oracle.  Everything in it that does not
depend on the iterate, and dt*f of each row type, is built once per problem
in ``StepTables``: a new iterate costs one stacked shift product and
elementwise maxima, and a new policy's right side is a gather by row type.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .grid import Grid, StencilSet
from .model import ModelParams, running_reward


# Bits of a policy code: ask quoted, bid quoted, impulse selected, and an
# impulse up (z = +1; z = -1 without it)
LA, LB, D, UP = 1, 2, 4, 8
# ``row_types`` block of each code: 2*la + lb on continuation, 4 for an
# impulse up and 5 for one down
ROW_BLOCK = np.array([0, 2, 1, 3, 5, 5, 5, 5, 0, 2, 1, 3, 4, 4, 4, 4], dtype=np.int64)


def _pack(la, lb, d, up) -> np.ndarray:
    """The codes of boolean arrays of the four bits."""
    code = np.asarray(la, dtype=bool).view(np.uint8) * LA
    for bit, on in ((LB, lb), (D, d), (UP, up)):
        code |= np.asarray(on, dtype=bool).view(np.uint8) * bit
    return code


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = arr.astype(np.int8)
    out.flags.writeable = False
    return out


@dataclass(eq=False)
class Policy:
    """Per-node controls as one uint8 ``code`` per node, of the bits LA, LB,
    D and UP: quote bits la/lb, impulse selector d and impulse direction z.

    ``z`` is stored for every node but only acts where ``d = 1``.  At the
    inventory caps, fills or impulses that would leave [-q_bar, q_bar] are
    inadmissible: la = 0 at q = -q_bar, lb = 0 at q = +q_bar, and d = 1 with
    an outward z is forbidden.  ``Policy.of`` packs the four fields; they
    read back as read-only int8 arrays.
    """

    code: np.ndarray

    la = property(lambda self: _frozen((self.code & LA) != 0))
    lb = property(lambda self: _frozen((self.code & LB) != 0))
    d = property(lambda self: _frozen((self.code & D) != 0))
    z = property(lambda self: _frozen(np.where(self.code & UP, 1, -1)))

    @classmethod
    def of(cls, la, lb, z, d) -> "Policy":
        """Pack 0/1 arrays la, lb, d and a -1/+1 array z of la's shape;
        raises ValueError on any other shape or value."""
        for name, arr in {"la": la, "lb": lb, "z": z, "d": d}.items():
            allowed, label = ((-1, 1), "-1/+1") if name == "z" else ((0, 1), "0/1")
            if np.shape(arr) != np.shape(la):
                raise ValueError(f"policy field {name} has shape {np.shape(arr)}, "
                                 f"expected {np.shape(la)}")
            if not np.isin(arr, allowed).all():
                raise ValueError(f"policy field {name} must be {label} valued")
        return cls(_pack(la, lb, d, np.equal(z, 1)))

    def validate(self, grid: Grid) -> None:
        m = grid.n_nodes
        if self.code.shape != (m,) or self.code.dtype != np.uint8 or (self.code > 15).any():
            raise ValueError(f"policy code must be ({m},) uint8 values below 16, got "
                             f"{self.code.dtype} {self.code.shape}")
        jj = np.arange(m) // grid.n_alpha
        bottom, top = jj == 0, jj == grid.n_q - 1
        la, lb, d, up = ((self.code & bit) != 0 for bit in (LA, LB, D, UP))
        for bad, what in ((bottom & la, "la = 1 at q = -q_bar"),
                          (top & lb, "lb = 1 at q = +q_bar"),
                          (top & d & up, "impulse z = +1 at q = +q_bar"),
                          (bottom & d & ~up, "impulse z = -1 at q = -q_bar")):
            if bad.any():
                raise ValueError(f"{what} (node {np.argmax(bad)}) would breach the cap")

    def digest(self) -> str:
        return hashlib.sha1(np.ascontiguousarray(self.code).tobytes()).hexdigest()[:16]

    def switched_nodes(self, other: "Policy") -> int:
        """Number of nodes whose (la, lb, d, z) differ from ``other``'s;
        0 when the two policies are equal."""
        return int(np.count_nonzero(self.code != other.code))


@dataclass(eq=False)
class SparseSystem:
    """Assembled linear system A(P) v = b(P), matrix in CSR form.

    ``impulse_mask`` marks rows taken from I - B(z); ``boundary_rows`` marks
    continuation rows whose shift stencils were clamped at the cap (the rows
    checked for a positive rather than a unit dominance margin).
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    impulse_mask: np.ndarray
    boundary_rows: np.ndarray


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
    forward leg of node i and the backward leg of node i + 1 on the
    difference v(i + 1) - v(i) of consecutive nodes, zero where the two lie
    in different inventory rows), the reward terms sigma*q*alpha - phi*q^2
    as the (n_q, n_alpha) array ``reward``, and ``jumps``, the up and down
    shift maps of every node stacked into one [lambda_a up; lambda_b down]
    map, rates included.  ``dt_reward`` holds dt*f for each of the six row
    types of ``row_types`` (zero on the impulse blocks), so the right side
    of a policy is a gather by its ``policy_rows``.
    """

    def __init__(self, grid: Grid, p: ModelParams, st: StencilSet):
        self.grid, self.p = grid, p
        lup, ldn = _upwind_coeffs(grid, p)
        self.lup, self.ldn = (np.tile(np.append(leg, 0.0), grid.n_q)[:-1]
                              for leg in (lup[:-1], ldn[1:]))
        q_col = grid.qs[:, None].astype(float)
        self.reward = p.sigma * q_col * grid.alphas[None, :] - p.phi * q_col**2
        eye_q = sp.identity(grid.n_q, format="csr")
        self.jumps = sp.vstack([p.lambda_a * sp.kron(eye_q, st.up),
                                p.lambda_b * sp.kron(eye_q, st.down)], format="csr")
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

    Returns (cont, la, lb, imp, up) where ``cont`` is the best continuation
    residual (v_next - v)/dt + L v + f over the admissible quote bits and
    ``imp`` the best admissible impulse value B v - upsilon, ``up`` its
    direction (True for z = +1).  Ties prefer quote bit 0 and impulse
    direction +1.  ``tables`` are the problem's
    ``StepTables``.  An ask fill (la = 1) needs q > -q_bar and a bid fill
    q < q_bar; an impulse up needs q < q_bar and one down q > -q_bar.
    """
    grid, p = tables.grid, tables.p
    shape = (grid.n_q, grid.n_alpha)
    v2d = v.reshape(shape)

    jump_up, jump_dn = (tables.jumps @ v).reshape(2, *shape)
    # a fill moves inventory one unit: v(q - 1) on the ask, v(q + 1) on the bid
    fill_up = jump_up[:-1] + p.lambda_a * p.delta
    fill_dn = jump_dn[1:] + p.lambda_b * p.delta
    la = np.zeros(shape, dtype=bool)
    lb = np.zeros(shape, dtype=bool)
    np.greater(fill_up, jump_up[1:], out=la[1:])
    np.greater(fill_dn, jump_dn[:-1], out=lb[:-1])
    np.maximum(jump_up[1:], fill_up, out=jump_up[1:])
    np.maximum(jump_dn[:-1], fill_dn, out=jump_dn[:-1])

    step = v[1:] - v[:-1]
    cont = v_next - v
    cont /= grid.d_t
    cont[:-1] += tables.lup * step
    cont[1:] -= tables.ldn * step
    cont = cont.reshape(shape)
    cont += tables.reward
    cont -= (p.lambda_a + p.lambda_b) * v2d
    cont += jump_up
    cont += jump_dn

    rise = v2d[1:] - v2d[:-1]
    imp_up = rise - p.upsilon
    imp_dn = -rise - p.upsilon
    up = np.ones(shape, dtype=bool)
    imp = np.empty_like(v2d)
    imp[0], imp[-1], up[-1] = imp_up[0], imp_dn[-1], False
    np.maximum(imp_up[1:], imp_dn[:-1], out=imp[1:-1])
    np.greater_equal(imp_up[1:], imp_dn[:-1], out=up[1:-1])
    return cont, la, lb, imp, up


def residual(tables: StepTables, v: np.ndarray, v_next: np.ndarray):
    """Node-wise scheme residual and its argmax policy.

    For every node, the max over the admissible continuation choices of
    (v_next - v)/dt + L v + f and the admissible impulse values B v - upsilon.
    At the solution of the step this max is zero node-wise.  Ties break
    toward continuation, unquoted sides, and impulse direction +1.
    ``tables`` are the problem's ``StepTables``.  The policy is admissible by
    construction, so its bits are packed unchecked.
    """
    cont, la, lb, imp, up = _branches(tables, v, v_next)
    return np.maximum(cont, imp).ravel(), Policy(_pack(la, lb, imp > cont, up).ravel())


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
    ask = [dt * p.lambda_a * sp.kron(move[-la], st.up, format="csr") for la in (0, 1)]
    bid = [dt * p.lambda_b * sp.kron(move[lb], st.down, format="csr") for lb in (0, 1)]
    blocks = [local - ask[la] - bid[lb] for la in (0, 1) for lb in (0, 1)]
    eye_alpha = sp.identity(grid.n_alpha, format="csr")
    blocks += [sp.kron(move[0] - move[z], eye_alpha, format="csr") for z in (1, -1)]
    return sp.vstack(blocks, format="csr")


def policy_rows(grid: Grid, policy: Policy) -> np.ndarray:
    """Index into ``row_types`` of the row that ``policy`` chooses at each node."""
    rows = ROW_BLOCK[policy.code]
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
    impulse = (policy.code & D) != 0
    return SparseSystem(row_types(grid, p, st)[rows], StepTables(grid, p, st).rhs(rows, v_next),
                        impulse, np.tile(st.boundary, grid.n_q) & ~impulse)
