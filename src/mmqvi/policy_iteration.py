"""Howard policy iteration for one implicit time step.

Alternates the node-wise argmax of the step residual with an evaluation of
the selected policy system until, after a full solve, the relative change
of the iterate drops below tolerance or the policy's rows repeat.  While
the policy moves, an evaluation is one splitting sweep (a single-sweep step,
as in modified policy iteration; Puterman & Shin 1978); a policy that holds
across a sweep is solved to the residual contract.  Under the verified
matrix conditions (Z-matrix, diagonal dominance, and an impulse chain from
every d = 1 node to a continuation node) A(P) is a nonsingular M-matrix, so
the sweeps of a regular splitting started from a subsolution stay
subsolutions, and the argmax at a subsolution has a nonnegative residual:
every evaluation starts from a subsolution of the improved policy's system.
The iterates are then entrywise nondecreasing, and the iteration converges;
every call asserts the matrix conditions of each system it solves,
monotonicity at every step and complementarity at every stop on the
relative change.

Every row of A(P) is one of the grid's row types, which are split once per
grid into band pieces and a table of N's rows, and checked once for
the row-local Z-matrix and dominance conditions (Azimzadeh & Forsyth 2016):
per row type, its interior and boundary dominance margins and one word of
failure flags.  Per policy the report, the splitting and the right side
gather their rows from these tables (the splitting only its changed rows),
and one impulse-chain walk by pointer doubling verifies the impulse graph
and gives the splitting the chains it closes; no A(P) is built on the solve
path.  Improvement reads the problem's ``scheme.StepTables``.  The problem's
``SystemCache`` holds all of these tables and is the one input of
``iterate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import time
from typing import ClassVar

import numpy as np

from . import linsolve, scheme
from .grid import Grid, StencilSet
from .model import ModelParams
from .scheme import D, ROW_BLOCK, UP, Policy, SparseSystem

# Relative stopping metric falls back to absolute differences below this.
RELATIVE_FLOOR = 1e-12
# Verifier tolerances: off-diagonal entries above Z_TOL count as positive,
# and interior rows must keep a dominance margin of at least 1 - MARGIN_TOL.
Z_TOL = 1e-12
MARGIN_TOL = 1e-10
# Failure flags of one row in ``_row_facts``: nonpositive diagonal, positive
# off-diagonal, impulse row that is not (diag 1, row sum 0).
NONPOSITIVE_DIAG, POS_OFF, BAD_IMPULSE = 1, 2, 4

PHASES = ("improve", "load", "solve")


class PolicyIterationError(RuntimeError):
    """Policy iteration failed; carries the trace collected so far."""

    def __init__(self, message: str, trace: "PiterTrace | None" = None):
        super().__init__(message)
        self.trace = trace


class VerificationError(RuntimeError):
    """A matrix or impulse-graph condition failed; carries the report."""

    def __init__(self, message: str, report: "VerificationReport"):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class PiterConfig:
    """The fixed numerical contract of policy iteration, as class constants
    that no input can loosen: ``tol`` bounds the relative change of a metric
    stop, ``max_iter`` the solves and single sweeps of one call, and
    ``solver_tol`` mirrors ``linsolve.CONTRACT_TOL``, the unit of the
    monotonicity and complementarity checks.  An instance has no fields and
    sets nothing."""

    tol: ClassVar[float] = 1e-8
    max_iter: ClassVar[int] = 200
    solver_tol: ClassVar[float] = linsolve.CONTRACT_TOL


@dataclass
class PiterTrace:
    """Per-iteration diagnostics.  Per full solve: the policy digest, the
    stopping metric, the route of the load that made its system
    (``fresh``: report and splitting gathered; ``reused``: the cached report
    and splitting) and its splitting sweeps.  The smallest entrywise
    increment of each new iterate, of solves and single sweeps alike
    (negative = decrease); the number of single-sweep steps and of solves
    that fell back to sparse LU; the verification report of each loaded
    system; and for every improvement after the first the number of nodes
    whose row of A(P) it changed (0 for a repeat).  ``phase_s`` totals
    the seconds spent in improvement, in ``SystemCache.load`` and in the
    sweeps and solves (with their fallback).
    """

    policy_digests: list[str] = field(default_factory=list)
    stop_metrics: list[float] = field(default_factory=list)
    min_increments: list[float] = field(default_factory=list)
    routes: list[str] = field(default_factory=list)
    sweeps: list[int] = field(default_factory=list)
    fallbacks: int = 0
    reports: list["VerificationReport"] = field(default_factory=list)
    switched: list[int] = field(default_factory=list)
    sweep_steps: int = 0
    converged_by: str = ""
    phase_s: dict = field(default_factory=lambda: dict.fromkeys(PHASES, 0.0))

    @property
    def iterations(self) -> int:
        return len(self.stop_metrics)


@dataclass
class VerificationReport:
    """Outcome of the matrix/impulse-graph checks for one assembled system.

    ``failing_node`` is the d = 1 node whose impulse chain ends nowhere (None
    when all end), the margins the smallest interior and boundary dominance
    margins (inf for no such rows).  Each failed condition adds one message
    to ``hard_failures``, which make the solve unsound.
    """

    failing_node: int | None
    min_interior_margin: float
    min_boundary_margin: float
    hard_failures: list[str] = field(default_factory=list)

    @property
    def sound(self) -> bool:
        return not self.hard_failures


class SystemCache:
    """Per-grid tables of one problem and the system of the last solved policy.

    The problem's ``scheme.row_types`` are split once (``linsolve.split``)
    into the ``band`` pieces, a 3 x n_row_types array, and ``n_types``, the
    table of N's rows; ``facts`` are the ``_row_facts`` of the row types and
    ``step`` the ``scheme.StepTables`` of improvement and right side.  No
    other copy of the row types is kept.  The one entry is ``rows``, the
    ``policy_rows`` selection that fixes A(P), with the ``code`` of a policy
    that selects it, its verification ``report`` and ``split``, the
    ``linsolve.Splitting`` of A(P); later loads rewrite all but the report
    in place.
    """

    def __init__(self, grid: Grid, p: ModelParams, st: StencilSet):
        self.band, self.n_types = linsolve.split(scheme.row_types(grid, p, st))
        impulse = np.arange(self.band.shape[1]) >= 4 * grid.n_nodes
        self.facts = _row_facts(_row_checks(self.band, self.n_types), impulse,
                                np.tile(st.boundary, 6 * grid.n_q) & ~impulse)
        self.step = scheme.StepTables(grid, p, st)
        self.rows = self.code = self.report = self.split = None

    def load(self, policy: Policy) -> int:
        """Make the entry A(P)'s and return the number of its rows that
        changed: 0 when the entry already selects the rows of ``policy``,
        every row on the first load.  After that the ``scheme.ROW_BLOCK``
        rows are compared only at the nodes whose code changed, and only
        the changed rows are written into the splitting, which is then
        factored anew; the impulse chains are walked again only when a
        changed row is an impulse row before or after.  Chains are closed
        only when the walk finds every one ending in a continuation node."""
        grid = self.step.grid
        if self.rows is None:
            rows = self.rows = scheme.policy_rows(grid, policy)
            self.code = policy.code.copy()
            failing_node, chains = _impulse_chains(grid, policy)
            self.split = linsolve.Splitting(np.take(self.band, rows, axis=1),
                                            linsolve.gather(self.n_types, rows, grid.n_nodes),
                                            chains)
            changed = rows.size
        else:
            at = np.flatnonzero(policy.code != self.code)
            if at.size == 0:
                return 0
            old, new = ROW_BLOCK[self.code[at]], ROW_BLOCK[policy.code[at]]
            self.code[at] = policy.code[at]
            moved = new != old
            if not moved.any():
                return 0
            at, old, new, split = at[moved], old[moved], new[moved], self.split
            rows = new * grid.n_nodes + at
            split.band[:, at] = self.band[:, rows]
            linsolve.regather(split.n_part, self.n_types, rows, at)
            # blocks 4 and 5 are the impulse rows
            if (old >= 4).any() or (new >= 4).any():
                failing_node, chains = _impulse_chains(grid, policy)
            else:
                failing_node, chains = self.report.failing_node, split.chains
            split.refactor(chains)
            self.rows[at] = rows
            changed = at.size
        self.report = _report(self.facts, self.rows, failing_node)
        return changed

    def rhs(self, v_next: np.ndarray) -> np.ndarray:
        """b(P) of the entry's policy, gathered by its rows."""
        return self.step.rhs(self.rows, v_next)


def improve_policy(tables: scheme.StepTables, v: np.ndarray, v_next: np.ndarray) -> Policy:
    """Node-wise argmax policy of the step residual at the iterate ``v``;
    ``tables`` as ``scheme.residual`` takes them.

    Admissible by construction, so it is not validated."""
    _, policy = scheme.residual(tables, v, v_next)
    return policy


def verify_theorem_conditions(
    grid: Grid, policy: Policy, system: SparseSystem
) -> VerificationReport:
    """Check the matrix and impulse-graph conditions behind convergence.

    Continuation rows of A(P) must form a Z-matrix with positive diagonal,
    strictly dominant on rows untouched by cap handling and positively
    dominant on the rest; impulse rows must be weakly dominant with zero row
    sum; and the z-directed chain from every d = 1 node must reach a d = 0
    node within 2*q_bar moves.  The row conditions are read off
    ``system.matrix`` itself, at the module tolerances ``Z_TOL`` and
    ``MARGIN_TOL``.
    """
    checks = _row_checks(*linsolve.split(system.matrix))
    facts = _row_facts(checks, system.impulse_mask, system.boundary_rows)
    return _report(facts, np.arange(checks.shape[1]), _impulse_chains(grid, policy)[0])


def _row_checks(band, table) -> np.ndarray:
    """Per-row (diagonal, positive off-diagonal flag, dominance margin, row
    sum) of a matrix ``linsolve.split`` into ``band`` and the ``table`` of
    N, as a 4 x n_rows array; a stack of row blocks is checked row by row."""
    sub, diag, sup = band
    off = table[1]  # = -A off the band; the padding zeros change no sum
    pos_off = (sub > Z_TOL) | (sup > Z_TOL) | (off < -Z_TOL).any(axis=1)
    margin = diag - np.abs(sub) - np.abs(sup) - np.abs(off).sum(axis=1)
    row_sums = sub + diag + sup - off.sum(axis=1)
    return np.stack([diag, pos_off, margin, row_sums])


def _row_facts(checks: np.ndarray, impulse: np.ndarray, boundary: np.ndarray):
    """What a report needs of each row, from its ``_row_checks``, whether it
    is an impulse row and whether a boundary row (as ``SparseSystem`` marks
    them): (margins, flags, diagonal).  ``margins`` stacks the interior and
    the boundary dominance margin, each +inf on rows of the other kinds;
    ``flags`` ORs the module's flag bits of the conditions the row fails."""
    diag, pos_off, margin, row_sums = checks
    impulse_ok = (np.abs(row_sums) <= Z_TOL) & (np.abs(diag - 1.0) <= Z_TOL)
    flags = np.zeros(diag.size, dtype=np.uint8)
    flags[~(diag > 0)] |= NONPOSITIVE_DIAG
    flags[pos_off.astype(bool)] |= POS_OFF
    flags[impulse & ~impulse_ok] |= BAD_IMPULSE
    margins = np.stack([np.where(~impulse & ~boundary, margin, np.inf),
                        np.where(boundary, margin, np.inf)])
    return margins, flags, diag.copy()


def _report(facts, rows: np.ndarray, failing_node: int | None) -> VerificationReport:
    """Verification report of A(P), whose row r is row ``rows[r]`` of the
    ``_row_facts`` ``facts``, with the ``failing_node`` of the impulse-chain
    walk; one message per failed condition."""
    margin_table, flag_table, diag = facts
    margins = np.take(margin_table, rows, axis=1)
    min_interior, min_boundary = map(float, margins.min(axis=1, initial=np.inf))
    report = VerificationReport(failing_node, min_interior, min_boundary)
    hard = report.hard_failures
    flags = np.take(flag_table, rows)
    raised = int(np.bitwise_or.reduce(flags, initial=0))

    if raised & NONPOSITIVE_DIAG:
        hard.append(f"nonpositive diagonal at row {int(np.argmin(np.take(diag, rows)))}")

    if raised & POS_OFF:
        hard.append(f"positive off-diagonal entry on row {int(np.argmax(flags & POS_OFF))}")

    if not min_interior >= 1.0 - MARGIN_TOL:
        hard.append(
            f"interior dominance margin {min_interior:.3e} < 1 at row "
            f"{int(np.argmin(margins[0]))}"
        )
    if not min_boundary > 0.0:
        hard.append(f"boundary-row dominance margin {min_boundary:.3e} <= 0 at row "
                    f"{int(np.argmin(margins[1]))}")

    if raised & BAD_IMPULSE:
        hard.append("impulse row deviates from (diag 1, neighbor -1, row sum 0)")

    if failing_node is not None:
        hard.append(
            f"no impulse chain from d=1 node {failing_node} reaches a continuation node"
        )

    return report


def _impulse_chains(grid: Grid, policy: Policy):
    """Follow the z-directed inventory moves from every d = 1 node.

    Returns (failing_node, chains).  The walk succeeds when every
    chain lands on a d = 0 node within 2*q_bar moves; a chain that leaves
    the inventory band or cycles fails, ``failing_node`` is the smallest
    failing start and ``chains`` is None.  Otherwise ``chains`` = (starts,
    ends, (k, node)) as ``linsolve.Splitting`` takes them: the d = 1 nodes,
    the continuation node each chain ends in, and every d = 1 node on chain
    k, chain by chain in the order of the walk.

    The walk is pointer doubling: every node points one move ahead (a
    continuation node at itself, a move out of the band at a sink), and
    ceil(log2(2*q_bar)) doublings make that 2^j >= 2*q_bar moves.  A chain
    that ends moves in one direction, since one that turns back cycles, so
    its length and nodes follow from its start and end.
    """
    m = grid.n_nodes
    d = (policy.code & D) != 0
    starts = np.flatnonzero(d)
    step = np.where(policy.code[starts] & UP, grid.n_alpha, -grid.n_alpha)
    # nodes are q-major, so a move out of the inventory band leaves [0, m)
    ahead = np.arange(m + 1)  # node m is the sink
    target = starts + step
    target[(target < 0) | (target >= m)] = m
    ahead[starts] = target
    for _ in range((grid.n_q - 2).bit_length()):
        ahead = ahead[ahead]
    ends = ahead[starts]
    failed = np.flatnonzero(np.append(d, True)[ends])
    if failed.size:
        return int(starts[failed[0]]), None
    length = (ends - starts) // step
    k = np.repeat(np.arange(starts.size), length)
    hop = np.arange(k.size) - np.repeat(np.cumsum(length) - length, length)
    return None, (starts, ends, (k, starts[k] + hop * step[k]))


def _stopping_metric(v_new: np.ndarray, v_old: np.ndarray) -> float:
    err = np.abs(v_new - v_old)
    denom = np.abs(v_new)
    rel = np.where(denom >= RELATIVE_FLOOR, err / np.maximum(denom, RELATIVE_FLOOR), err)
    return float(rel.max())


def iterate(
    cache: SystemCache,
    v0: np.ndarray,
    v_next: np.ndarray,
    policy: Policy | None = None,
) -> tuple[np.ndarray, Policy, PiterTrace]:
    """Run policy iteration from warm start ``v0`` for one time step of the
    problem of ``cache``, starting from ``policy``, or from the improvement
    at ``v0`` when it is None.

    Returns the converged value vector, the policy whose system it solves,
    and the iteration trace.  Raises PolicyIterationError when
    ``PiterConfig.max_iter`` solves and single sweeps have not converged,
    when an iterate decreases by more than 10x ``PiterConfig.solver_tol``,
    or when a metric stop misses complementarity.

    The first policy is solved to the residual contract.  After that, each
    improvement is loaded into ``cache``: one that changes a row of A(P) is
    followed by one splitting sweep under it (a single-sweep step), and one
    that changes none by a full solve from the swept iterate, so a free
    boundary moves a cell per sweep rather than per solve.  Every stop
    follows a full solve: on an improvement that changes no row, or on a
    relative change of that solve below ``PiterConfig.tol``.  A call given a
    ``policy`` stops only after at least one improvement.  From a
    subsolution of the first system every step stays monotone: a sweep
    keeps a subsolution one, and the improved policy's residual at it is
    nonnegative.

    A policy that selects the rows of the entry in ``cache`` reuses its
    report and splitting; any other gathers its changed rows from the
    cache's per-grid tables.  Every new system gathers its right side from
    them, and every improvement reads the cache's ``scheme.StepTables``.
    Every new system raises VerificationError when its report has a hard
    failure, as does a reused first one.  A solve whose sweeps miss the
    residual contract within ``linsolve.SWEEP_BUDGET`` falls back to sparse
    LU.  Pass one cache to successive calls to carry the split row types and
    the splitting across time steps.
    """
    v = np.array(v0, dtype=float, copy=True)
    v_next = np.asarray(v_next, dtype=float)
    trace = PiterTrace()

    def timed(phase, fn, *args):
        started = time.perf_counter()
        out = fn(*args)
        trace.phase_s[phase] += time.perf_counter() - started
        return out

    improved = policy is None
    if improved:
        policy = timed("improve", improve_policy, cache.step, v, v_next)
    changed, exact = timed("load", cache.load, policy), True

    for _ in range(PiterConfig.max_iter):
        if changed or not trace.reports:
            # a system not yet checked in this call
            if not cache.report.sound:
                raise VerificationError("; ".join(cache.report.hard_failures), cache.report)
            trace.reports.append(cache.report)
            route, rhs = ("fresh" if changed else "reused"), cache.rhs(v_next)
        if exact:
            report = timed("solve", cache.split.solve, rhs, v)
            v_new = report.solution
            metric = _stopping_metric(v_new, v)
            trace.policy_digests.append(policy.digest())
            trace.stop_metrics.append(metric)
            trace.routes.append(route)
            trace.sweeps.append(report.iterations)
            trace.fallbacks += report.method != "splitting"
        else:
            v_new = timed("solve", cache.split.sweep, v, rhs)
            trace.sweep_steps += 1
        increment = float((v_new - v).min())
        trace.min_increments.append(increment)

        if increment < -10.0 * PiterConfig.solver_tol:
            raise PolicyIterationError(
                f"iterate decreased by {-increment:.3e} at node "
                f"{int(np.argmin(v_new - v))} (> 10x solver tol {PiterConfig.solver_tol:.1e})",
                trace,
            )

        v = v_new
        # a metric stop needs an improvement in this call
        if exact and (improved or trace.switched) and metric < PiterConfig.tol:
            trace.converged_by = "metric"
            _check_complementarity(cache.step, v, v_next)
            return v, policy, trace

        candidate = timed("improve", improve_policy, cache.step, v, v_next)
        changed = timed("load", cache.load, candidate)
        trace.switched.append(changed)
        if exact and not changed:
            trace.converged_by = "policy-repeat"
            return v, policy, trace
        exact, policy = not changed, candidate

    raise PolicyIterationError(
        f"no convergence within {PiterConfig.max_iter} iterations "
        f"({_count(trace.iterations, 'solve')}, {_count(trace.sweep_steps, 'single sweep')}; "
        f"last metric {trace.stop_metrics[-1]:.3e}; "
        f"last improvement switched {_count(changed, 'node')})",
        trace,
    )


def _count(n: int, noun: str) -> str:
    return f"{n} {noun}{'s' * (n != 1)}"


def _check_complementarity(tables, v, v_next) -> None:
    """At termination the node-wise residual max must vanish to solve scale."""
    res, _ = scheme.residual(tables, v, v_next)
    scale = float(np.max(np.abs(v), initial=1.0))
    bound = (10.0 * PiterConfig.tol * max(1.0, scale)
             + 100.0 * PiterConfig.solver_tol) / tables.grid.d_t
    worst = float(np.max(np.abs(res)))
    if worst > bound:
        raise PolicyIterationError(
            f"complementarity residual {worst:.3e} exceeds bound {bound:.3e}"
        )
