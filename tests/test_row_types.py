"""One operator per grid: the shift maps and ``row_types`` against the scalar
oracles, the once-per-grid row checks against the verifier that scans an
assembled A(P), the reuse of one system by policies that select the same
rows, and the right side, N(P), report and impulse chains a solve's cache
gathers against the assembled system and a plain chain walk."""

import dataclasses
import re

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, given, settings  # noqa: E402
from hypothesis import strategies as hst  # noqa: E402

import mmqvi.policy_iteration  # noqa: E402
from mmqvi import (  # noqa: E402
    GridSpec,
    Policy,
    assemble_system,
    build_grid,
    build_stencils,
    iterate,
    row_types,
    verify_theorem_conditions,
)
from mmqvi import scheme  # noqa: E402
from mmqvi.grid import EXACT_SHIFT_TOL  # noqa: E402
from mmqvi.linsolve import split  # noqa: E402
from mmqvi.policy_iteration import SystemCache, _impulse_chains, _row_checks  # noqa: E402
from mmqvi.solver import terminal_vector  # noqa: E402

from conftest import admissible, quiet_params  # noqa: E402
from oracles import (  # noqa: E402
    apply_caps,
    assemble_rhs,
    continuation_row,
    flatten,
    impulse_row,
    policy_row,
    shift_stencil_down,
    shift_stencil_up,
    walk_impulse_chain,
)


@hst.composite
def shifts(draw, n_alpha):
    """A shift in units of d_alpha: an integer, a fraction, a multiple off
    by EXACT_SHIFT_TOL/2, or one past the cap from every node."""
    kind = draw(hst.sampled_from(["integer", "fractional", "near-integer", "past-cap"]))
    if kind == "integer":
        return float(draw(hst.integers(1, n_alpha - 1)))
    if kind == "fractional":
        return draw(hst.floats(0.05, n_alpha - 1.05).filter(lambda s: s % 1 > 1e-6))
    if kind == "near-integer":
        return draw(hst.integers(1, n_alpha - 1)) + EXACT_SHIFT_TOL / 2
    return draw(hst.floats(n_alpha, 2.0 * n_alpha))


@hst.composite
def problems(draw):
    """A small random valid model, its grid and its stencils."""
    n_alpha = draw(hst.sampled_from([3, 5, 7, 9, 11]))
    alpha_cap = draw(hst.floats(0.5, 5.0))
    d_alpha = alpha_cap / ((n_alpha - 1) // 2)
    rate = hst.floats(0.1, 10.0)
    p = quiet_params(
        T=draw(hst.floats(0.05, 5.0)), sigma=0.01, theta=0.1, delta=0.005,
        eps=0.005, lambda_a=draw(rate), lambda_b=draw(rate), k=draw(rate),
        rho=draw(rate), gamma_a=draw(shifts(n_alpha)) * d_alpha,
        gamma_b=draw(shifts(n_alpha)) * d_alpha, phi=1e-6, psi=0.0,
        q_bar=draw(hst.integers(1, 3)), alpha_cap=alpha_cap,
    )
    spec = GridSpec(draw(hst.integers(1, 10)), n_alpha, alpha_cap, p.q_bar)
    grid = build_grid(p, spec)
    return grid, p, build_stencils(grid, p)


def dense(cols, vals, m):
    row = np.zeros(m)
    row[list(cols)] = vals  # the oracles return each column once
    return row


@settings(max_examples=80, deadline=None)
@given(problems())
def test_shift_maps_and_row_types_match_the_scalar_oracles(problem):
    grid, p, st = problem
    m = grid.n_alpha
    for i in range(grid.n_alpha):
        up = shift_stencil_up(grid, p, i)
        down = shift_stencil_down(grid, p, i)
        np.testing.assert_array_equal(st.up[i].toarray()[0], dense(up.indices, up.weights, m))
        np.testing.assert_array_equal(
            st.down[i].toarray()[0], dense(down.indices, down.weights, m)
        )
        assert st.boundary[i] == (up.boundary or down.boundary)

    built = row_types(grid, p, st)
    rows = built.toarray()
    m = grid.n_nodes
    assert rows.shape == (6 * m, m)
    assert_split_rebuilds(built, rows)
    for jj in range(grid.n_q):
        for ii in range(grid.n_alpha):
            node = flatten(grid, ii, jj)
            for la in (0, 1):
                for lb in (0, 1):
                    if (la and jj == 0) or (lb and jj == grid.n_q - 1):
                        continue
                    cols, vals, _ = continuation_row(grid, p, ii, jj, la, lb)
                    block = 2 * la + lb
                    np.testing.assert_array_equal(rows[block * m + node], dense(cols, vals, m))
            for block, z in ((4, 1), (5, -1)):
                if 0 <= jj + z < grid.n_q:
                    cols, vals, _ = impulse_row(grid, p, ii, jj, z)
                    np.testing.assert_array_equal(rows[block * m + node], dense(cols, vals, m))


def assert_split_rebuilds(built, rows):
    """``split`` of the row types ``built`` (dense: ``rows``) leaves them
    unchanged, and its band minus its table of N rebuilds them exactly; K is
    the longest off-band row, padded at the diagonal column with zeros."""
    before = built.copy()
    band, (cols, vals) = split(built)
    for part in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(built, part), getattr(before, part))
    n_rows, m = rows.shape
    r, diagonal = np.arange(n_rows), np.arange(n_rows) % m
    off_band = (rows != 0) & (np.abs(np.arange(m) - diagonal[:, None]) > 1)
    counts = off_band.sum(axis=1)
    assert cols.shape == vals.shape == (n_rows, counts.max(initial=0))
    padding = np.arange(cols.shape[1]) >= counts[:, None]
    assert (vals[padding] == 0).all() and (vals[~padding] != 0).all()
    np.testing.assert_array_equal(cols[padding],
                                  np.broadcast_to(diagonal[:, None], cols.shape)[padding])
    rebuilt = np.zeros_like(rows)
    for piece, k in zip(band, (-1, 0, 1)):
        inside = (diagonal + k >= 0) & (diagonal + k < m)
        assert (piece[~inside] == 0).all()
        rebuilt[r[inside], diagonal[inside] + k] = piece[inside]
    np.add.at(rebuilt, (np.repeat(r, cols.shape[1]), cols.ravel()), -vals.ravel())
    np.testing.assert_array_equal(rebuilt, rows)


# ------------------------------------------------------ gathered verifier


def gathered_report(grid, p, st, policy):
    """The report a solve's cache builds from the once-per-grid row checks."""
    cache = SystemCache(grid, p, st)
    cache.load(policy)
    return cache.report


def random_policy(grid, rng, impulse_share=0.3):
    m = grid.n_nodes
    return apply_caps(
        grid,
        rng.integers(0, 2, m),
        rng.integers(0, 2, m),
        np.where(rng.random(m) < 0.5, 1, -1),
        (rng.random(m) < impulse_share).astype(np.int8),
    )


def test_gathered_reports_equal_the_matrix_scan(fast_params, fast_spec, toy_params, toy_spec):
    # random impulses cycle often, so the path failures that name a node are
    # covered alongside sound policies; the wide shift of the second toy
    # model clamps a shift target on every row
    wide = dataclasses.replace(toy_params, gamma_a=2.5, gamma_b=2.5)
    rng = np.random.default_rng(31)
    outcomes = set()
    for p, spec in ((fast_params, fast_spec), (toy_params, toy_spec), (wide, toy_spec)):
        grid = build_grid(p, spec)
        st = build_stencils(grid, p)
        v_next = terminal_vector(grid, p)
        for _ in range(40):
            pol = random_policy(grid, rng, impulse_share=rng.choice([0.0, 0.1, 0.5]))
            report = gathered_report(grid, p, st, pol)
            assert report == verify_theorem_conditions(
                grid, pol, assemble_system(grid, p, st, pol, v_next)
            )
            outcomes.add(report.sound)
    assert outcomes == {True, False}


def corrupted_report(grid, p, st, pol, monkeypatch, row, col, value):
    """The gathered report of ``pol`` after entry (row, col) of the row-type
    table a solve's cache builds is set to ``value``; checked against the
    verifier that scans the assembled A(P)."""
    built = row_types(grid, p, st).tolil()
    if row is not None:
        built[row, col] = value
    monkeypatch.setattr(scheme, "row_types", lambda *a: built.tocsr())
    gathered = gathered_report(grid, p, st, pol)
    assert gathered == verify_theorem_conditions(
        grid, pol, assemble_system(grid, p, st, pol, terminal_vector(grid, p))
    )
    return gathered


@pytest.mark.parametrize(
    "col_shift, value, message",
    [(0, -1.0, r"nonpositive diagonal at row 4$"),
     (1, 3.0, r"positive off-diagonal entry on row 4$"),
     (0, 0.5, r"interior dominance margin \S+ < 1 at row 4$")],
)
def test_gathered_hard_failures_name_the_node(
    col_shift, value, message, toy_grid, toy_params, toy_stencils, monkeypatch
):
    # corrupt one entry of the row type that node 4 selects, continuation
    # with (la, lb) = (0, 0), in the table a solve's cache builds
    grid, p, st = toy_grid, toy_params, toy_stencils
    m, node = grid.n_nodes, 4
    zeros = np.zeros(m, dtype=np.int8)
    pol = apply_caps(grid, zeros, zeros, np.ones(m), zeros)
    gathered = corrupted_report(grid, p, st, pol, monkeypatch, node, node + col_shift, value)
    assert re.match(message, gathered.hard_failures[0])


# toy rows: node 3 is (alpha -1, q 0), a boundary row; row 4 * 9 + 4 of
# the table is node 4's impulse row for z = +1
@pytest.mark.parametrize(
    "impulse, row, col, value, message",
    [(False, 3, 4, -5.0, r"boundary-row dominance margin \S+ <= 0 at row 3$"),
     (True, 40, 4, 2.0, r"impulse row deviates from \(diag 1, neighbor -1, row sum 0\)$"),
     (True, 40, 1, -1.0, r"impulse row deviates from \(diag 1, neighbor -1, row sum 0\)$"),
     # 5e-11 keeps interior row 4's dominance margin inside MARGIN_TOL
     (False, 4, 1, 5e-11, r"positive off-diagonal entry on row 4$"),
     # boundary row 3 keeps a positive dominance margin
     (False, 3, 1, 5e-11, r"positive off-diagonal entry on row 3$")],
    ids=["boundary-margin", "impulse-diagonal", "impulse-row-sum",
         "interior-positive-off-diagonal", "boundary-positive-off-diagonal"],
)
def test_gathered_reports_name_each_failed_condition(
    impulse, row, col, value, message, toy_grid, toy_params, toy_stencils, monkeypatch
):
    # one hard failure per failed condition, naming its row
    grid, p, st = toy_grid, toy_params, toy_stencils
    m = grid.n_nodes
    zeros = np.zeros(m, dtype=np.int8)
    d = zeros.copy()
    d[4] = impulse  # node 4 impulses up into node 7, a continuation node
    pol = apply_caps(grid, zeros, zeros, np.ones(m), d)
    gathered = corrupted_report(grid, p, st, pol, monkeypatch, row, col, value)
    [msg] = gathered.hard_failures
    assert re.match(message, msg)
    assert not gathered.sound


def test_row_checks_agree_with_the_toy_enumeration(
    toy_grid, toy_params, toy_stencils, toy_enumeration
):
    # every admissible toy policy (110,592): its rows' checks, gathered from
    # the once-per-grid table, against the dense matrices of the enumeration
    grid = toy_grid
    m = grid.n_nodes
    checks = _row_checks(*split(row_types(grid, toy_params, toy_stencils)))
    choice = toy_enumeration["choice"]
    sel = np.empty_like(choice)
    for node in range(m):
        kinds = toy_enumeration["kinds"][node]
        la, lb = toy_enumeration["quote_bits"][node].T
        block = np.where(kinds == 0, 2 * la + lb, 4 + (kinds == -1))
        sel[:, node] = block[choice[:, node]] * m + node
    diag, pos_off, margin, row_sum = checks[:, sel]

    a = toy_enumeration["matrices"]
    idx = np.arange(m)
    np.testing.assert_array_equal(diag, a[:, idx, idx])
    off = a.copy()
    off[:, idx, idx] = 0.0
    np.testing.assert_array_equal(pos_off.astype(bool), (off > 1e-12).any(axis=2))
    np.testing.assert_allclose(margin, a[:, idx, idx] - np.abs(off).sum(axis=2),
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(row_sum, a.sum(axis=2), rtol=0, atol=1e-14)


# ------------------------------------------------ reuse by row selection


@hst.composite
def policy_pairs(draw):
    """A problem of ``problems``, a policy whose impulse chains all end, and
    a copy with one of (la, lb, d, z) flipped at one or two nodes, drawn
    among all nodes or among the impulse nodes.  Flips of z at d = 0 nodes
    and of la or lb at impulse nodes keep the row selection."""
    grid, p, st = draw(problems())
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    fields = rng.integers(0, 2, (4, grid.n_nodes))  # la, lb, d, z bit
    first = admissible(grid, *fields)
    pool = np.flatnonzero(first.d)
    if not (pool.size and draw(hst.booleans())):
        pool = np.arange(grid.n_nodes)
    nodes = rng.choice(pool, min(draw(hst.integers(1, 2)), pool.size), replace=False)
    fields[draw(hst.integers(0, 3)), nodes] ^= 1
    return grid, p, st, first, admissible(grid, *fields)


@settings(max_examples=60, deadline=None)
@given(policy_pairs())
def test_equal_row_selections_share_one_system(case):
    grid, p, st, first, second = case
    same = np.array_equal(scheme.policy_rows(grid, first), scheme.policy_rows(grid, second))
    event("rows repeat" if same else "rows differ")
    v_next = terminal_vector(grid, p)
    a, b = (assemble_system(grid, p, st, pol, v_next) for pol in (first, second))
    # equal selections assemble one system, so reusing its splitting is
    # sound; unequal ones differ, so no splitting is gathered for nothing
    assert ((a.matrix - b.matrix).nnz == 0) == same
    if same:
        np.testing.assert_array_equal(a.rhs, b.rhs)

    # solved after ``first`` on a shared cache, ``second`` reuses exactly
    # when its rows repeat and solves bit for bit as on a fresh cache
    shared = SystemCache(grid, p, st)
    solved = []
    with pytest.MonkeyPatch.context() as mp:
        for pol, cache in ((first, shared), (second, shared),
                           (second, SystemCache(grid, p, st))):
            mp.setattr(mmqvi.policy_iteration, "improve_policy", lambda *a, pol=pol: pol)
            solved.append(iterate(cache, v_next - 1.0, v_next))
    _, (v_shared, _, trace), (v_fresh, _, _) = solved
    assert trace.routes == ["reused" if same else "fresh"]
    np.testing.assert_array_equal(v_shared, v_fresh)


# ------------------------------------------------ gathers against oracles


@hst.composite
def problem_policies(draw, capped=True):
    """A problem of ``problems``, a random policy on it and a random v_next.
    Impulses are drawn at a random share with random directions, so chains
    end, cycle or, without the cap pass (``capped=False``), leave the band."""
    grid, p, st = draw(problems())
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    share = draw(hst.sampled_from([0.0, 0.2, 0.6, 1.0]))
    if capped:
        policy = random_policy(grid, rng, impulse_share=share)
    else:
        m = grid.n_nodes
        policy = Policy.of(*rng.integers(0, 2, (2, m)).astype(np.int8),
                           z=np.where(rng.random(m) < 0.5, 1, -1).astype(np.int8),
                           d=(rng.random(m) < share).astype(np.int8))
    return grid, p, st, policy, rng.normal(size=grid.n_nodes)


@settings(max_examples=100, deadline=None)
@given(hst.booleans().flatmap(lambda capped: problem_policies(capped=capped)),
       hst.integers(0, 2**32 - 1))
def test_a_policy_code_holds_the_four_fields(case, seed):
    """One byte per node reads back as the (la, lb, z, d) it packs, selects
    the rows of the four-field rules, differs from another code at the nodes
    where one of the four fields differs, and packs only 0/1 quote and
    impulse bits, -1/+1 directions and fields of one shape."""
    grid, _, _, pol, _ = case
    m = grid.n_nodes
    rng = np.random.default_rng(seed)
    raw = (*rng.integers(0, 2, (2, m)), np.where(rng.random(m) < 0.5, 1, -1),
           rng.integers(0, 2, m))
    other = Policy.of(*raw)
    assert other.code.dtype == np.uint8 and other.code.nbytes == m
    for got, want in zip((other.la, other.lb, other.z, other.d), raw):
        assert got.dtype == np.int8 and not got.flags.writeable
        np.testing.assert_array_equal(got, want)
    for q in (pol, other):
        rows = [policy_row(grid, *map(int, controls), node)
                for node, controls in enumerate(zip(q.la, q.lb, q.z, q.d))]
        np.testing.assert_array_equal(scheme.policy_rows(grid, q), rows)
    changed = np.zeros(m, dtype=bool)
    for a, b in zip((pol.la, pol.lb, pol.z, pol.d), raw):
        changed |= a != b
    assert np.count_nonzero(pol.code != other.code) == np.count_nonzero(changed)
    for i, name in enumerate(("la", "lb", "z", "d")):
        label = "-1/+1" if name == "z" else "0/1"
        bad = list(raw)
        bad[i] = raw[i] + 2
        with pytest.raises(ValueError,
                           match=re.escape(f"policy field {name} must be {label} valued")):
            Policy.of(*bad)
        # la fixes the shape, so a shorter la blames lb
        bad[i] = raw[i][:-1]
        blamed, got, want = ("lb", m, m - 1) if i == 0 else (name, m - 1, m)
        with pytest.raises(ValueError, match=re.escape(
                f"policy field {blamed} has shape ({got},), expected ({want},)")):
            Policy.of(*bad)


@settings(max_examples=80, deadline=None)
@given(problem_policies())
def test_gathered_rhs_n_and_report_equal_the_assembled_system(case):
    grid, p, st, pol, v_next = case
    system = assemble_system(grid, p, st, pol, v_next)
    cache = SystemCache(grid, p, st)
    cache.load(pol)
    event("sound" if cache.report.sound else "unsound")
    # the right side bit for bit, the report field by field
    np.testing.assert_array_equal(cache.rhs(v_next), assemble_rhs(grid, p, pol, v_next))
    assert cache.report == verify_theorem_conditions(grid, pol, system)
    # M - N is A(P) entry for entry; N keeps K entries on every row
    n_part = cache.split.n_part
    assert (cache.split.matrix() - system.matrix).nnz == 0
    assert n_part.nnz == grid.n_nodes * cache.n_types[0].shape[1]


@settings(max_examples=100, deadline=None)
@given(problem_policies(capped=False))
def test_doubled_chains_end_where_a_plain_walk_ends(case):
    grid, _, _, pol, _ = case
    failing, chains = _impulse_chains(grid, pol)
    starts = np.flatnonzero(pol.d)
    walks = [walk_impulse_chain(grid, pol.d, pol.z, int(s)) for s in starts]
    failed = [int(s) for s, (_, end) in zip(starts, walks) if end is None]
    event("a chain fails" if failed else "every chain ends")
    assert (failing is None) == (not failed)
    if failed:
        # the smallest failing start is named
        assert failing == failed[0] and chains is None
        return
    got_starts, ends, (k, row) = chains
    np.testing.assert_array_equal(got_starts, starts)
    np.testing.assert_array_equal(ends, [end for _, end in walks])
    for c, (nodes, _) in enumerate(walks):
        np.testing.assert_array_equal(row[k == c], nodes)


@hst.composite
def policy_sequences(draw):
    """A problem of ``problems`` and 2 to 6 random policies on it, each the
    one before with a random share of its nodes redrawn, at random impulse
    shares, so that chains end, cycle, appear and vanish along the way."""
    grid, p, st = draw(problems())
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    shares = hst.sampled_from([0.0, 0.2, 0.6, 1.0])
    policies = [random_policy(grid, rng, draw(shares))]
    for _ in range(draw(hst.integers(1, 5))):
        fresh = random_policy(grid, rng, draw(shares))
        redrawn = rng.random(grid.n_nodes) < draw(hst.sampled_from([0.01, 0.1, 0.5, 1.0]))
        policies.append(Policy(np.where(redrawn, fresh.code, policies[-1].code)))
    return grid, p, st, policies


@settings(max_examples=80, deadline=None)
@given(policy_sequences())
def test_a_load_after_any_policies_equals_a_load_from_scratch(case):
    grid, p, st, policies = case
    cache = SystemCache(grid, p, st)
    for policy in policies:
        cache.load(policy)
    scratch = SystemCache(grid, p, st)
    scratch.load(policies[-1])
    # the band, N slot for slot, the chains and the report are the ones a
    # first load gathers, so the sweeps agree bit for bit
    got, want = cache.split, scratch.split
    np.testing.assert_array_equal(got.band, want.band)
    for part in ("indices", "indptr", "data"):
        np.testing.assert_array_equal(getattr(got.n_part, part), getattr(want.n_part, part))
    assert (got.chains is None) == (want.chains is None)
    if got.chains is not None:
        event("chains end")
        (starts, ends, (k, row)), (starts0, ends0, (k0, row0)) = got.chains, want.chains
        for a, b in ((starts, starts0), (ends, ends0), (k, k0), (row, row0)):
            np.testing.assert_array_equal(a, b)
    assert cache.report == scratch.report
    np.testing.assert_array_equal(cache.rows, scratch.rows)
    # the code the entry compares the next load with selects its rows
    np.testing.assert_array_equal(scheme.policy_rows(grid, Policy(cache.code)), cache.rows)
    if want._lu is not None:
        x, b = np.random.default_rng(0).normal(size=(2, grid.n_nodes))
        np.testing.assert_array_equal(got.sweep(x, b), want.sweep(x, b))
