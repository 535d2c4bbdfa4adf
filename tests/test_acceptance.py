"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

The reference configuration (T = 10, 101 alpha nodes, 200 time steps,
inventory band 4) is solved once per session; smaller purpose-built
configurations cover exhaustive enumeration, CFL-safe explicit stepping, and
grid refinement.  Each test prints

    criterion NN (name): PASS|FAIL  [detail]

outside of capture so the line always reaches the terminal.
"""

import itertools
import time

import numpy as np
import pytest

from mmqvi import (
    ExplicitInstabilityError,
    GridSpec,
    Policy,
    assemble_system,
    build_grid,
    build_stencils,
    estimate_performance,
    explicit_cfl_factor,
    iterate,
    refinement_table,
    solve_backward,
    solve_explicit_baseline,
    terminal_vector,
    verify_theorem_conditions,
)
from mmqvi.model import stability_bounds
from mmqvi.policy_iteration import SystemCache, _impulse_chains

from oracles import apply_caps, continuation_row, impulse_row, residual_at_node, unflatten


def _report(capsys, num, name, ok, detail=""):
    line = f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    with capsys.disabled():
        print(line)
    assert ok, line


# ----------------------------------------------------------- 1 and 2


def test_criterion_01_stability_envelope(sol6, params6, capsys):
    violation = 0.0
    for surface in sol6.surfaces:
        lo, hi = stability_bounds(params6, surface.t)
        violation = max(
            violation,
            float(lo - surface.values.min()),
            float(surface.values.max() - hi),
        )
    ok = violation <= 1e-8 and len(sol6.surfaces) == 201
    _report(
        capsys,
        1,
        "stability envelope",
        ok,
        f"worst violation {violation:.2e}, wall {sol6.metadata['wall_time']:.2f}s",
    )


def test_criterion_02_monotone_policy_iteration(sol6, capsys):
    levels = sol6.metadata["per_level"]
    worst_iters = max(entry["iterations"] for entry in levels)
    worst_increment = min(entry["min_increment"] for entry in levels)
    ok = (
        len(levels) == 200
        and worst_iters <= 50
        and worst_increment >= -1e-9  # 10x the 1e-10 solver tolerance
    )
    _report(
        capsys,
        2,
        "monotone policy iteration",
        ok,
        f"max iterations {worst_iters}, min increment {worst_increment:.2e}",
    )


# ------------------------------------------------- 3 and 4 (toy enumeration)

# ``toy_enumeration`` (conftest) holds every admissible toy policy's system.


def test_criterion_03_brute_force_equivalence(
    toy_grid, toy_params, toy_stencils, toy_enumeration, capsys
):
    v_next = toy_enumeration["v_next"]
    v_pi, _, trace = iterate(SystemCache(toy_grid, toy_params, toy_stencils), v_next, v_next)
    v_bf = toy_enumeration["values"].max(axis=0)
    gap = float(np.abs(v_pi - v_bf).max())
    ok = gap <= 1e-9
    _report(
        capsys,
        3,
        "brute-force equivalence",
        ok,
        f"{toy_enumeration['values'].shape[0]} policies, gap {gap:.2e}, "
        f"{trace.iterations} policy iterations",
    )


def test_criterion_04_theorem_condition_verifier(
    toy_grid, toy_params, toy_stencils, toy_enumeration,
    grid6, params6, stencils6, capsys,
):
    grid = toy_grid
    m = grid.n_nodes
    a = toy_enumeration["matrices"]
    kind_of = toy_enumeration["kind_of"]
    rng_idx = np.arange(m)

    # Exhaustive matrix conditions over every admissible toy policy.
    diag = a[:, rng_idx, rng_idx]
    off = a.copy()
    off[:, rng_idx, rng_idx] = 0.0
    margins = diag - np.abs(off).sum(axis=2)
    cont = kind_of == 0
    imp = ~cont
    toy_ok = (
        bool((diag > 0).all())
        and float(off.max()) <= 1e-12
        and float(margins[cont].min()) >= 1.0 - 1e-10
        and float(np.abs(a.sum(axis=2)[imp]).max()) <= 1e-12
        and float(np.abs(diag[imp] - 1.0).max()) <= 1e-12
    )

    # Path condition over every distinct impulse pattern, including the
    # verifier agreeing that excluded cycles are bad: a cycling column gives
    # a singular system.
    kinds = toy_enumeration["kinds"]
    level_kinds = [
        sorted(set(kinds[jj * grid.n_alpha])) for jj in range(grid.n_q)
    ]
    patterns = [
        trip
        for trip in itertools.product(*level_kinds)
        if not (trip[0] == 1 and trip[1] == -1)
        and not (trip[1] == 1 and trip[2] == -1)
    ]
    paths_ok = True
    for col_patterns in itertools.product(patterns, repeat=grid.n_alpha):
        d = np.zeros(m, dtype=np.int8)
        z = np.ones(m, dtype=np.int8)
        for ii, trip in enumerate(col_patterns):
            for jj, kind in enumerate(trip):
                node = jj * grid.n_alpha + ii
                if kind != 0:
                    d[node] = 1
                    z[node] = kind
        pol = Policy.of(la=np.zeros(m, np.int8), lb=np.zeros(m, np.int8), z=z, d=d)
        pol.validate(grid)
        good = _impulse_chains(grid, pol)[0] is None
        paths_ok = paths_ok and good
    cyc_d = np.zeros(m, dtype=np.int8)
    cyc_z = np.ones(m, dtype=np.int8)
    cyc_d[1] = cyc_d[1 + grid.n_alpha] = 1
    cyc_z[1 + grid.n_alpha] = -1
    cyc = Policy.of(la=np.zeros(m, np.int8), lb=np.zeros(m, np.int8), z=cyc_z, d=cyc_d)
    cycle_caught = _impulse_chains(grid, cyc)[0] is not None
    cyc_row = np.zeros((m, m))
    for node in range(m):
        ii, jj = unflatten(grid, node)
        if cyc_d[node]:
            cols, vals, _ = impulse_row(grid, toy_params, ii, jj, int(cyc_z[node]))
            cyc_row[node, list(cols)] = vals
        else:
            cols, vals, _ = continuation_row(grid, toy_params, ii, jj, 0, 0)
            np.add.at(cyc_row[node], np.asarray(cols), np.asarray(vals))
    cycle_singular = np.linalg.matrix_rank(cyc_row) < m

    # The packaged verifier agrees with the raw matrix checks on a sample.
    sample_ok = True
    quote_bits = toy_enumeration["quote_bits"]
    choice = toy_enumeration["choice"]
    v_next = toy_enumeration["v_next"]
    for idx in np.random.default_rng(11).choice(choice.shape[0], 50, replace=False):
        la = np.empty(m, np.int8)
        lb = np.empty(m, np.int8)
        z = np.ones(m, np.int8)
        d = np.zeros(m, np.int8)
        for node in range(m):
            la[node], lb[node] = quote_bits[node][choice[idx, node]]
            kind = kind_of[idx, node]
            if kind != 0:
                d[node], z[node] = 1, kind
        pol = Policy.of(la=la, lb=lb, z=z, d=d)
        pol.validate(grid)
        system = assemble_system(grid, toy_params, toy_stencils, pol, v_next)
        sample_ok = sample_ok and verify_theorem_conditions(grid, pol, system).sound

    # Sampled random admissible policies on the reference grid, clamp mode.
    rng = np.random.default_rng(19)
    m6 = grid6.n_nodes
    v_next6 = terminal_vector(grid6, params6)
    n_checked = 0
    sampled_ok = True
    for _ in range(100):
        la = rng.integers(0, 2, m6)
        lb = rng.integers(0, 2, m6)
        z = np.where(rng.random(m6) < 0.5, 1, -1)
        d = (rng.random(m6) < 0.3).astype(np.int8)
        d2 = d.reshape(grid6.n_q, grid6.n_alpha)
        z2 = z.reshape(grid6.n_q, grid6.n_alpha)
        cycle = (d2[:-1] == 1) & (z2[:-1] == 1) & (d2[1:] == 1) & (z2[1:] == -1)
        d2[1:][cycle] = 0
        pol = apply_caps(grid6, la, lb, z, d)
        report = verify_theorem_conditions(
            grid6, pol, assemble_system(grid6, params6, stencils6, pol, v_next6)
        )
        sampled_ok = sampled_ok and report.sound
        n_checked += 1

    ok = toy_ok and paths_ok and cycle_caught and cycle_singular and sample_ok and sampled_ok
    _report(
        capsys,
        4,
        "theorem condition verifier",
        ok,
        f"{a.shape[0]} toy policies exhaustive, {len(patterns) ** grid.n_alpha} "
        f"impulse patterns, {n_checked} sampled reference policies",
    )


# --------------------------------------------------------------------- 5


def test_criterion_05_scheme_monotonicity(grid6, params6, capsys):
    rng = np.random.default_rng(23)
    m = grid6.n_nodes
    worst = np.inf
    for _ in range(1000):
        node = int(rng.integers(m))
        ii, jj = unflatten(grid6, node)
        scale = float(rng.choice([1e-3, 0.1, 10.0]))
        w = rng.normal(size=m) * scale
        bump = rng.exponential(scale, size=m) * (rng.random(m) < 0.5)
        bump[node] = 0.0
        u = w + bump
        v_next = rng.normal(size=m) * scale
        r = w[node]
        s_hi = residual_at_node(grid6, params6, ii, jj, r, u, v_next)
        s_lo = residual_at_node(grid6, params6, ii, jj, r, w, v_next)
        worst = min(worst, s_hi - s_lo)
    ok = worst >= -1e-12
    _report(
        capsys,
        5,
        "scheme monotonicity",
        ok,
        f"1000 ordered pairs, min S(u) - S(w) = {worst:.2e}",
    )


# ----------------------------------------------------------------- 6 to 8


def test_criterion_06_implicit_stable_explicit_not(sol6, params6, spec6, capsys):
    cfl = explicit_cfl_factor(params6, build_grid(params6, spec6))
    with pytest.raises(ExplicitInstabilityError) as exc_info:
        solve_explicit_baseline(params6, spec6)
    err = exc_info.value
    # criterion 1 already holds on sol6; here the same time step must sink
    # the explicit variant
    ok = cfl == pytest.approx(500.1013888888889, rel=1e-12) and err.cfl_factor == cfl
    _report(
        capsys,
        6,
        "unconditional stability",
        ok,
        f"CFL {cfl:.1f}, explicit diverged at level {err.level} ({err.reason})",
    )


def test_criterion_07_cross_method_agreement(fast_params, capsys):
    spec = GridSpec(n_time_steps=400, n_alpha_points=31, alpha_cap=30.0, q_bar=2)
    cfl = explicit_cfl_factor(fast_params, build_grid(fast_params, spec))
    explicit = solve_explicit_baseline(fast_params, spec)
    implicit = solve_backward(fast_params, spec)
    gap = float(
        np.abs(explicit.surfaces[0].values - implicit.surfaces[0].values).max()
    )
    ok = cfl < 1.0 and gap <= 1e-2
    _report(
        capsys,
        7,
        "cross-method agreement",
        ok,
        f"CFL {cfl:.3f}, max |explicit - implicit| at t=0: {gap:.2e}",
    )


def test_criterion_08_refinement_cauchy(params6, capsys):
    base = GridSpec(n_time_steps=25, n_alpha_points=17, alpha_cap=300.0, q_bar=4)
    result = refinement_table(
        params6, base, [-150.0, 0.0, 150.0], [-2, 0, 2], rounds=3
    )
    decreasing = bool((np.diff(result.diffs, axis=0) < 0.0).all())
    ok = decreasing and result.diffs.shape == (3, 9)
    _report(
        capsys,
        8,
        "grid-refinement Cauchy check",
        ok,
        "max diffs per round: "
        + " > ".join(f"{x:.2e}" for x in result.max_diffs),
    )


# ---------------------------------------------------------------- 9 to 11


def test_criterion_09_monte_carlo_consistency(params6, sol6, capsys):
    started = time.perf_counter()
    report = estimate_performance(
        params6, sol6, (0.0, 100.0, 0.0, 0), 10_000, seed=7
    )
    elapsed = time.perf_counter() - started
    ok = abs(report.zscore) <= 3.0 and elapsed < 60.0
    _report(
        capsys,
        9,
        "Monte Carlo consistency",
        ok,
        f"mean {report.mean:.5f} vs predicted {report.predicted:.5f}, "
        f"z = {report.zscore:.2f}, {elapsed:.1f}s",
    )


def test_criterion_10_policy_structure(sol6, capsys):
    g = sol6.grid
    pol = sol6.policies[0]
    shape = (g.n_q, g.n_alpha)
    la = pol.la.reshape(shape)
    lb = pol.lb.reshape(shape)
    d = pol.d.reshape(shape)
    center_q, center_a = g.n_q // 2, g.n_alpha // 2

    both_at_origin = la[center_q, center_a] == 1 and lb[center_q, center_a] == 1
    # single threshold per row: ask bit steps down in alpha, bid bit up
    monotone = all(
        (np.diff(la[jj]) <= 0).all() and (np.diff(lb[jj]) >= 0).all()
        for jj in range(g.n_q)
    )
    ask_off = np.flatnonzero(la[center_q] == 0)
    bid_off = np.flatnonzero(lb[center_q] == 0)
    alpha_plus = g.alphas[ask_off[0]] if ask_off.size else np.nan
    alpha_minus = g.alphas[bid_off[-1]] if bid_off.size else np.nan
    one_sided = ask_off.size > 0 and bid_off.size > 0 and alpha_plus > 0 > alpha_minus

    impulse_nodes = np.flatnonzero(pol.d)
    impulse_alphas = np.abs(g.alpha_of_node[impulse_nodes])
    market_orders_far_out = (
        impulse_nodes.size > 0 and float(impulse_alphas.min()) >= 100.0
    )

    ok = both_at_origin and monotone and one_sided and market_orders_far_out
    _report(
        capsys,
        10,
        "reference policy structure",
        ok,
        f"quote thresholds alpha+ = {alpha_plus:g}, alpha- = {alpha_minus:g}; "
        f"{impulse_nodes.size} impulse nodes, min |alpha| = "
        f"{impulse_alphas.min() if impulse_nodes.size else np.nan:g}",
    )


def test_criterion_11_reflection_symmetry(sol6, capsys):
    g = sol6.grid
    shape = (g.n_q, g.n_alpha)
    v0 = sol6.surfaces[0].values.reshape(shape)
    gap = float(np.abs(v0 - v0[::-1, ::-1]).max())

    pol = sol6.policies[0]
    la = pol.la.reshape(shape)
    lb = pol.lb.reshape(shape)
    d = pol.d.reshape(shape)
    z = pol.z.reshape(shape)
    mask = d == 1
    sides_swap = np.array_equal(la, lb[::-1, ::-1])
    impulse_set_symmetric = np.array_equal(d, d[::-1, ::-1])
    directions_flip = np.array_equal(z[mask], -z[::-1, ::-1][mask])

    ok = gap <= 1e-8 and sides_swap and impulse_set_symmetric and directions_flip
    _report(
        capsys,
        11,
        "reflection symmetry",
        ok,
        f"value gap {gap:.2e}, policy maps (la,lb,z) -> (lb,la,-z)",
    )
