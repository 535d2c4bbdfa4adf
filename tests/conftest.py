"""Shared fixtures.

Three model configurations recur across the suite:

* the reference configuration shipped by ``presets`` (slow mean reversion
  horizon T = 10, 909-node grid) -- solved once per session and shared by the
  Monte Carlo and acceptance tests;
* a "fast" configuration (T = 1, alpha_cap = 30, q_bar = 2) whose solve takes
  well under a second, used wherever a realistic but cheap policy is needed;
* a three-alpha-node, single-step "toy" sized so that exhaustive policy
  enumeration is feasible; ``toy_enumeration`` holds the dense system of
  every admissible toy policy, built once per test module that uses it.
"""

import warnings

import numpy as np
import pytest

import mmqvi
from mmqvi import GridSpec, ModelParams, ParameterWarning
from mmqvi.linsolve import Splitting, _checked, gather, split
from oracles import apply_caps, continuation_row, impulse_row, unflatten


# A splitting solve and a sparse-LU solve of one step system both meet
# ||A v - b||_inf <= solver_tol * (1 + ||b||_inf), so they differ by at most
# ||A^-1||_inf times twice that bound.  Accepted: SPLIT_MATCH_FACTOR times
# the bound.  Measured: at most 2.9 times at the reference parameters with
# dt*(lambda_a + lambda_b) from 0.1 to 20, and 3.7 times over 1,000 random
# step systems that Hypothesis steered towards the largest ratio.
SPLIT_MATCH_FACTOR = 30.0


def split_match_ratio(v, exact, rhs) -> float:
    """max|v - exact| in units of the residual contract's bound for ``rhs``
    at the default solver tolerance."""
    bound = mmqvi.PiterConfig().solver_tol * (1.0 + float(np.abs(rhs).max()))
    return float(np.abs(v - exact).max()) / bound


def residual_norm(a, b, x) -> float:
    """||a x - b||_inf, summed in CSR column order."""
    return float(np.max(np.abs(a @ x - b)))


def residual_rounding(a, b, x) -> float:
    """Largest rounding gap between two evaluations of ||a x - b||_inf that
    sum the same terms in different orders (a splitting sums M x - N x - b,
    a CSR product sums each row of a in column order)."""
    terms = abs(a) @ np.abs(x) + np.abs(b)
    n = int(np.diff(a.indptr).max()) + 2
    return 2.0 * n * np.finfo(float).eps * float(terms.max())


def splitting_of(matrix) -> Splitting:
    """``Splitting`` of a square matrix, without chains, whose N holds the
    off-band entries alone (no padding zeros, which would change the
    sparsity of its LU fallback); raises SingularSystemError for a zero
    diagonal entry."""
    matrix = _checked(matrix)
    band, table = split(matrix)
    n_part = gather(table, np.arange(matrix.shape[0]), matrix.shape[1])
    n_part.eliminate_zeros()
    return Splitting(band, n_part)


def first_sweep_meeting(split, rhs, x0) -> int | None:
    """The first of plain ``split.sweep`` calls from ``x0`` after which the
    full residual meets the contract ||A x - rhs||_inf <= CONTRACT_TOL * (1
    + ||rhs||_inf) on A = M - N; None when none within the sweep budget."""
    bound = mmqvi.linsolve.CONTRACT_TOL * (1.0 + float(np.abs(rhs).max()))
    x = x0
    for sweeps in range(1, mmqvi.linsolve.SWEEP_BUDGET + 1):
        x = split.sweep(x, rhs)
        if split.residual(x, rhs) <= bound:
            return sweeps
    return None


@pytest.fixture
def stops_checked(monkeypatch):
    """Checks that every splitting solve of the test stops at the first
    sweep whose full residual meets the contract; the list it returns
    collects the sweep counts of the solves it checked."""
    checked = []
    real_solve = Splitting.solve

    def checking_solve(self, rhs, x0=None):
        report = real_solve(self, rhs, x0)
        if report.method == "splitting":
            start = np.zeros_like(rhs) if x0 is None else x0
            assert report.iterations == first_sweep_meeting(self, rhs, start)
            checked.append(report.iterations)
        return report

    monkeypatch.setattr(Splitting, "solve", checking_solve)
    return checked


def admissible(grid, la, lb, d, zbit):
    """A policy whose impulses all point toward q = 0, where d = 0, so every
    impulse chain reaches a continuation node and A(P) passes verification."""
    q = grid.q_of_node
    d = d * (q != 0)
    z = np.where(d == 1, np.where(q > 0, -1, 1), 2 * zbit - 1)
    return apply_caps(grid, la, lb, z, d)


def quiet_params(**kwargs) -> ModelParams:
    """Construct ModelParams with zero-valued-field warnings suppressed."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterWarning)
        return ModelParams(**kwargs)


@pytest.fixture(scope="session")
def params6() -> ModelParams:
    return mmqvi.default_params()


@pytest.fixture(scope="session")
def spec6() -> GridSpec:
    return mmqvi.default_grid_spec()


@pytest.fixture(scope="session")
def grid6(params6, spec6):
    return mmqvi.build_grid(params6, spec6)


@pytest.fixture(scope="session")
def stencils6(grid6, params6):
    return mmqvi.build_stencils(grid6, params6, "clamp")


@pytest.fixture(scope="session")
def sol6(params6, spec6):
    return mmqvi.solve_backward(params6, spec6)


@pytest.fixture(scope="session")
def fast_params() -> ModelParams:
    return quiet_params(
        T=1.0,
        sigma=0.01,
        theta=0.1,
        delta=0.005,
        eps=0.005,
        lambda_a=1.0,
        lambda_b=1.0,
        k=20.0,
        rho=1.0,
        gamma_a=6.0,
        gamma_b=6.0,
        phi=1e-6,
        psi=0.0,
        q_bar=2,
        alpha_cap=30.0,
    )


@pytest.fixture(scope="session")
def fast_spec() -> GridSpec:
    return GridSpec(n_time_steps=50, n_alpha_points=31, alpha_cap=30.0, q_bar=2)


@pytest.fixture(scope="session")
def fast_sol(fast_params, fast_spec):
    return mmqvi.solve_backward(fast_params, fast_spec)


@pytest.fixture(scope="session")
def toy_params() -> ModelParams:
    return ModelParams(
        T=0.1,
        sigma=1.0,
        theta=0.1,
        delta=0.005,
        eps=0.005,
        lambda_a=1.0,
        lambda_b=1.0,
        k=1.0,
        rho=1.0,
        gamma_a=0.5,
        gamma_b=0.5,
        phi=0.1,
        psi=0.05,
        q_bar=1,
        alpha_cap=1.0,
    )


@pytest.fixture(scope="session")
def toy_spec() -> GridSpec:
    return GridSpec(n_time_steps=1, n_alpha_points=3, alpha_cap=1.0, q_bar=1)


@pytest.fixture(scope="session")
def toy_grid(toy_params, toy_spec):
    return mmqvi.build_grid(toy_params, toy_spec)


@pytest.fixture(scope="session")
def toy_stencils(toy_grid, toy_params):
    return mmqvi.build_stencils(toy_grid, toy_params, "clamp")


@pytest.fixture()
def no_profit_params() -> ModelParams:
    """A model with essentially no reward anywhere: spreads and signal are
    negligible, so the value function must vanish and impulses never pay."""
    tiny = 1e-30
    return quiet_params(
        T=1.0,
        sigma=tiny,
        theta=0.1,
        delta=0.0,
        eps=tiny,
        lambda_a=1.0,
        lambda_b=1.0,
        k=1.0,
        rho=tiny,
        gamma_a=0.5,
        gamma_b=0.5,
        phi=0.0,
        psi=0.0,
        q_bar=1,
        alpha_cap=1.0,
    )


@pytest.fixture(scope="module")
def toy_enumeration(toy_grid, toy_params):
    """Dense systems for every admissible policy of the toy instance.

    Per node the choices are the admissible (la, lb) continuation pairs plus
    the admissible impulse directions; per alpha column the choice triples
    whose impulse graph cycles between adjacent inventory levels are dropped
    (their systems are singular, and the path condition of the convergence
    theorem excludes exactly these).  Kind codes: 0 continuation, +1/-1
    impulse direction.
    """
    grid, p = toy_grid, toy_params
    m = grid.n_nodes
    v_next = mmqvi.terminal_vector(grid, p)

    rows, rhss, kinds, quote_bits = [], [], [], []
    for node in range(m):
        ii, jj = unflatten(grid, node)
        node_rows, node_rhs, node_kind, node_quotes = [], [], [], []
        for la in (0, 1):
            for lb in (0, 1):
                if (jj == 0 and la) or (jj == grid.n_q - 1 and lb):
                    continue
                cols, vals, reward = continuation_row(grid, p, ii, jj, la, lb)
                dense = np.zeros(m)
                np.add.at(dense, np.asarray(cols), np.asarray(vals))
                node_rows.append(dense)
                node_rhs.append(v_next[node] + reward)
                node_kind.append(0)
                node_quotes.append((la, lb))
        for z in (1, -1):
            if (jj == grid.n_q - 1 and z > 0) or (jj == 0 and z < 0):
                continue
            cols, vals, rhs = impulse_row(grid, p, ii, jj, z)
            dense = np.zeros(m)
            dense[np.asarray(cols)] = vals
            node_rows.append(dense)
            node_rhs.append(rhs)
            node_kind.append(z)
            node_quotes.append((0, 0))
        rows.append(np.array(node_rows))
        rhss.append(np.array(node_rhs))
        kinds.append(np.array(node_kind))
        quote_bits.append(np.array(node_quotes))

    # Column-wise admissible triples (identical for every column).
    n_by_level = [len(kinds[jj * grid.n_alpha]) for jj in range(grid.n_q)]
    triples = [
        (c0, c1, c2)
        for c0 in range(n_by_level[0])
        for c1 in range(n_by_level[1])
        for c2 in range(n_by_level[2])
        if not (kinds[0][c0] == 1 and kinds[grid.n_alpha][c1] == -1)
        and not (kinds[grid.n_alpha][c1] == 1 and kinds[2 * grid.n_alpha][c2] == -1)
    ]
    triples = np.array(triples)
    n_tr = len(triples)
    assert n_tr == 48

    grids_idx = np.meshgrid(*([np.arange(n_tr)] * grid.n_alpha), indexing="ij")
    combos = np.stack([axis.ravel() for axis in grids_idx], axis=1)
    n_pol = combos.shape[0]
    choice = np.empty((n_pol, m), dtype=np.int64)
    for ii in range(grid.n_alpha):
        per_col = triples[combos[:, ii]]
        for jj in range(grid.n_q):
            choice[:, jj * grid.n_alpha + ii] = per_col[:, jj]

    a = np.empty((n_pol, m, m))
    b = np.empty((n_pol, m))
    kind_of = np.empty((n_pol, m), dtype=np.int64)
    for node in range(m):
        a[:, node, :] = rows[node][choice[:, node]]
        b[:, node] = rhss[node][choice[:, node]]
        kind_of[:, node] = kinds[node][choice[:, node]]
    values = np.linalg.solve(a, b[..., None])[..., 0]

    return {
        "v_next": v_next,
        "matrices": a,
        "rhs": b,
        "kind_of": kind_of,
        "values": values,
        "choice": choice,
        "kinds": kinds,
        "quote_bits": quote_bits,
    }
