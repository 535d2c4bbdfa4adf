"""Backward orchestration: envelopes, baselines, and grid refinement."""

import importlib.util
import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import mmqvi.linsolve
import mmqvi.policy_iteration
import mmqvi.scheme
import mmqvi.solver
from conftest import SPLIT_MATCH_FACTOR, split_match_ratio
from mmqvi import (
    ExplicitInstabilityError,
    GridSpec,
    PiterConfig,
    Policy,
    PolicyIterationError,
    SolveError,
    StabilityEnvelopeError,
    VerificationError,
    assemble_system,
    build_grid,
    build_stencils,
    explicit_cfl_factor,
    refine_spec,
    refinement_table,
    solve_backward,
    solve_explicit_baseline,
    terminal_vector,
)
from mmqvi.linsolve import solve
from mmqvi.model import stability_bounds, terminal_value
from oracles import apply_caps, project_impulses


def test_terminal_vector_repeats_the_inventory_profile(toy_grid, toy_params):
    vec = terminal_vector(toy_grid, toy_params)
    per_q = [terminal_value(toy_params, q) for q in toy_grid.qs]
    np.testing.assert_allclose(vec, np.repeat(per_q, toy_grid.n_alpha))


def test_no_profit_model_has_zero_value_and_no_impulses(no_profit_params):
    sol = solve_backward(no_profit_params, GridSpec(10, 5, 1.0, 1))
    for surface in sol.surfaces:
        assert np.abs(surface.values).max() <= 1e-12
    for pol in sol.policies:
        assert not pol.d.any()


def test_solution_layout_and_metadata(fast_sol, fast_spec):
    n = fast_spec.n_time_steps
    assert len(fast_sol.surfaces) == n + 1
    assert len(fast_sol.policies) == n
    for level, surface in enumerate(fast_sol.surfaces):
        assert surface.n == level
        assert surface.t == pytest.approx(fast_sol.grid.times[level])
    md = fast_sol.metadata
    assert md["method"] == "implicit"
    assert md["wall_time"] > 0.0
    assert isinstance(md["horizon_monotone_q0"], bool)
    # the phase totals lie inside the wall time and stay out of per_level
    assert set(md["phase_s"]) == {"improve", "load", "solve"}
    assert all(s > 0.0 for s in md["phase_s"].values())
    assert sum(md["phase_s"].values()) < md["wall_time"]
    assert not any("phase_s" in entry for entry in md["per_level"])
    levels = [entry["level"] for entry in md["per_level"]]
    assert levels == list(range(n))
    for entry in md["per_level"]:
        assert 1 <= entry["iterations"] <= 50
        assert entry["min_increment"] >= -1e-9
        assert entry["converged_by"] in ("metric", "policy-repeat")
        # every solve after the first follows a policy that switched a node
        assert entry["switched_nodes"] >= entry["iterations"] - 1


def test_reused_factorizations_reproduce_fresh_solves(params6, stops_checked):
    spec = GridSpec(20, 21, params6.alpha_cap, params6.q_bar)
    sol = solve_backward(params6, spec)
    grid = sol.grid
    st = build_stencils(grid, params6, "clamp")
    for n, policy in enumerate(sol.policies):
        system = assemble_system(grid, params6, st, policy, sol.surfaces[n + 1].values)
        fresh = solve(system.matrix, system.rhs).solution
        ratio = split_match_ratio(sol.surfaces[n].values, fresh, system.rhs)
        assert ratio <= SPLIT_MATCH_FACTOR, f"level {n}: {ratio:.3g}"

    levels = sol.metadata["per_level"]
    assert sum(e["reused_solves"] for e in levels) > 0
    assert sum(e["fallbacks"] for e in levels) == 0
    # every solve sweeps, and stops at the first sweep whose full residual
    # meets the contract
    assert all(e["sweeps"] >= e["iterations"] + e["sweep_steps"] for e in levels)
    assert len(stops_checked) == sum(e["iterations"] for e in levels)
    for e in levels:
        assert e["min_interior_margin"] >= 1.0 - 1e-10
        assert e["min_boundary_margin"] > 0.0


def test_policy_iteration_failures_name_the_level(fast_params, fast_spec, monkeypatch):
    monkeypatch.setattr(PiterConfig, "max_iter", 1)
    # the message says what the budget went to: the solves, the single
    # sweeps, and the nodes the last improvement switched
    pattern = (r"^time level 49: no convergence within 1 iterations \(1 solve, "
               r"0 single sweeps; last metric (\S+); last improvement switched "
               r"(\d+) nodes?\)$")
    with pytest.raises(PolicyIterationError, match=pattern) as exc_info:
        solve_backward(fast_params, fast_spec)
    trace = exc_info.value.trace
    assert trace.iterations == 1 and trace.sweep_steps == 0
    metric, switched = re.match(pattern, str(exc_info.value)).groups()
    assert metric == f"{trace.stop_metrics[-1]:.3e}" and int(switched) == trace.switched[-1] > 0


def test_verification_failures_name_the_level(toy_params, monkeypatch):
    spec = GridSpec(3, 3, toy_params.alpha_cap, toy_params.q_bar)
    grid = build_grid(toy_params, spec)
    m = grid.n_nodes
    # two inventory levels impulsing into each other: no chain ends
    z = np.where(grid.q_of_node > 0, -1, 1)
    cycle = apply_caps(grid, np.zeros(m), np.zeros(m), z, grid.q_of_node >= 0)
    monkeypatch.setattr(mmqvi.policy_iteration, "improve_policy", lambda *a: cycle)
    with pytest.raises(VerificationError, match=r"^time level 2: no impulse chain") as exc_info:
        solve_backward(toy_params, spec)
    assert exc_info.value.report.failing_node is not None


def test_paper_mode_reference_solve_is_rejected(params6, spec6):
    # Paper mode's linear extrapolation past the cap made A(P) lose inverse
    # positivity, and its reference solve stopped on a decreasing iterate.
    # It is gone: the reference solve rejects it by name before any level,
    # and the explicit baseline and refinement take no mode at all.
    with pytest.raises(ValueError, match=r"mode must be one of \('clamp',\), got 'paper'"):
        solve_backward(params6, spec6, mode="paper")
    with pytest.raises(TypeError, match="mode"):
        solve_explicit_baseline(params6, spec6, mode="clamp")
    with pytest.raises(TypeError, match="mode"):
        refinement_table(params6, spec6, [0.0], [0], mode="clamp")


def test_solve_failures_name_the_level_and_row(toy_params, monkeypatch):
    # no solve meets a contract this tight: the sweeps run out and the LU
    # fallback misses, naming the row of its largest residual
    spec = GridSpec(3, 3, toy_params.alpha_cap, toy_params.q_bar)
    pattern = r"^time level \d: direct solve missed .* at row \d+$"
    monkeypatch.setattr(mmqvi.linsolve, "CONTRACT_TOL", 1e-300)
    with pytest.raises(SolveError, match=pattern) as exc_info:
        solve_backward(toy_params, spec)
    err = exc_info.value
    assert type(err) is SolveError
    assert err.best_iterate is not None and err.residual_norm > 0.0
    assert str(err).endswith(f"at row {err.row}")


def test_a_level_failure_is_raised_on_as_the_same_object(toy_params, monkeypatch):
    failure = SolveError("no luck", best_iterate=np.zeros(1), residual_norm=1.0, row=0)

    def failing_iterate(*args):
        raise failure

    monkeypatch.setattr(mmqvi.solver, "iterate", failing_iterate)
    with pytest.raises(SolveError) as exc_info:
        solve_backward(toy_params, GridSpec(3, 3, toy_params.alpha_cap, toy_params.q_bar))
    assert exc_info.value is failure and str(failure) == "time level 2: no luck"
    assert exc_info.value.row == 0 and exc_info.value.__cause__ is None
    assert exc_info.traceback[-1].name == "failing_iterate"


def test_solution_stays_inside_the_stability_envelope(fast_sol, fast_params):
    for surface in fast_sol.surfaces:
        lo, hi = stability_bounds(fast_params, surface.t)
        assert surface.values.min() >= lo - 1e-8
        assert surface.values.max() <= hi + 1e-8


def test_value_at_interpolates_linearly(fast_sol):
    g = fast_sol.grid
    row = fast_sol.surfaces[0].values.reshape(g.n_q, g.n_alpha)[g.qs[-1]]
    i = 10
    assert fast_sol.value_at(0, g.alphas[i], 0) == pytest.approx(row[i], abs=1e-14)
    mid = 0.5 * (g.alphas[i] + g.alphas[i + 1])
    assert fast_sol.value_at(0, mid, 0) == pytest.approx(
        0.5 * (row[i] + row[i + 1]), abs=1e-14
    )
    with pytest.raises(ValueError, match="inventory"):
        fast_sol.value_at(0, 0.0, 3)
    # nan once failed converting to an index and +-inf read a cap node
    for alpha in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match=f"alpha must be finite, got {alpha}"):
            fast_sol.value_at(0, alpha, 0)


def test_value_at_rejects_a_fractional_inventory(fast_sol):
    # q = 0.9 once read the q = 0 value; an integral float reads its level
    with pytest.raises(ValueError, match="inventory 0.9 is not an integer"):
        fast_sol.value_at(0, 0.0, 0.9)
    assert fast_sol.value_at(0, 0.0, 1.0) == fast_sol.value_at(0, 0.0, 1)


@pytest.mark.parametrize("n", [-1, 51])
def test_value_at_rejects_a_level_outside_the_solve(fast_sol, n):
    # n = -1 once read the terminal surface
    with pytest.raises(ValueError, match=f"time level {n} outside 0..50"):
        fast_sol.value_at(n, 0.0, 0)


def test_value_decays_toward_maturity_at_flat_inventory(fast_sol):
    assert fast_sol.metadata["horizon_monotone_q0"]


def test_reflection_symmetry_of_the_symmetric_model(fast_sol):
    g = fast_sol.grid
    v0 = fast_sol.surfaces[0].values.reshape(g.n_q, g.n_alpha)
    assert np.abs(v0 - v0[::-1, ::-1]).max() <= 1e-8


def test_envelope_violations_name_the_level(fast_params, fast_spec, monkeypatch):
    monkeypatch.setattr(mmqvi.solver, "ENVELOPE_TOL", -1.0)
    with pytest.raises(StabilityEnvelopeError) as exc_info:
        solve_backward(fast_params, fast_spec)
    err = exc_info.value
    assert err.level == fast_spec.n_time_steps
    assert np.isfinite(err.value)
    assert len(err.bounds) == 2


def test_explicit_cfl_factor_reference_value(params6, grid6):
    # dt * (k A / d_alpha + rho^2 / d_alpha^2 + lambda_a + lambda_b)
    assert explicit_cfl_factor(params6, grid6) == pytest.approx(
        500.1013888888889, rel=1e-12
    )


def test_explicit_baseline_blows_up_past_the_cfl_bound(fast_params, fast_spec):
    assert explicit_cfl_factor(fast_params, build_grid(fast_params, fast_spec)) > 1.0
    with pytest.raises(ExplicitInstabilityError) as exc_info:
        solve_explicit_baseline(fast_params, fast_spec)
    err = exc_info.value
    assert err.cfl_factor > 1.0
    assert 0 <= err.level < fast_spec.n_time_steps


def test_explicit_baseline_runs_when_cfl_safe(toy_params, toy_spec):
    grid = build_grid(toy_params, toy_spec)
    assert explicit_cfl_factor(toy_params, grid) < 1.0
    sol = solve_explicit_baseline(toy_params, toy_spec)
    assert sol.metadata["method"] == "explicit"
    assert sol.metadata["cfl_factor"] < 1.0
    assert np.isfinite(sol.surfaces[0].values).all()


def test_impulse_projection_matches_the_sweeps():
    # the closed form against repeated neighbour sweeps on random surfaces
    rng = np.random.default_rng(20)
    impulses = 0
    for _ in range(500):
        n_q = int(rng.integers(3, 12))
        scale = 10.0 ** rng.uniform(-4.0, 0.0)
        v2d = scale * rng.standard_normal((n_q, 21))
        grid = SimpleNamespace(n_q=n_q)
        p = SimpleNamespace(upsilon=scale * rng.uniform(0.01, 1.5))
        v, d, up = mmqvi.solver._project_impulses(grid, p, v2d)
        v_ref, d_ref, z_ref = project_impulses(grid, p, v2d)
        assert np.all(np.abs(v - v_ref) <= 1e-12 * (1.0 + np.abs(v_ref)))
        np.testing.assert_array_equal(d, d_ref)
        np.testing.assert_array_equal(up, z_ref == 1)
        impulses += int(d.sum())
    assert impulses > 10_000


def test_impulse_projection_breaks_exact_ties_upward():
    # q = -1 reaches 0 - 1 from below (one step) and 2 - 3 from above (three
    # steps): both attain the obstacle, and the closed form points up where
    # the sweeps keep the nearer source
    v2d = np.array([0.0, -10.0, -10.0, -10.0, 2.0])[:, None]
    grid, p = SimpleNamespace(n_q=5), SimpleNamespace(upsilon=1.0)
    v, d, up = mmqvi.solver._project_impulses(grid, p, v2d)
    np.testing.assert_array_equal(v.ravel(), [0.0, -1.0, 0.0, 1.0, 2.0])
    np.testing.assert_array_equal(d.ravel(), [False, True, True, True, False])
    np.testing.assert_array_equal(up.ravel(), [True, True, True, True, True])
    assert project_impulses(grid, p, v2d)[2][1, 0] == -1


def test_explicit_policies_are_admissible(fast_params):
    # the explicit baseline packs its bits unchecked; criterion 07's solve
    # impulses at both caps, where an outward bit would breach the band
    spec = GridSpec(n_time_steps=400, n_alpha_points=31, alpha_cap=30.0, q_bar=2)
    sol = solve_explicit_baseline(fast_params, spec)
    grid = sol.grid
    for pol in sol.policies:
        pol.validate(grid)
    d = np.stack([pol.d for pol in sol.policies]).reshape(-1, grid.n_q, grid.n_alpha)
    assert d[:, 0].any() and d[:, -1].any()


def test_refine_spec_doubles_resolution():
    spec = GridSpec(n_time_steps=25, n_alpha_points=17, alpha_cap=300.0, q_bar=4)
    fine = refine_spec(spec)
    assert fine.n_time_steps == 50
    assert fine.n_alpha_points == 33
    assert fine.alpha_cap == spec.alpha_cap
    assert fine.q_bar == spec.q_bar


def test_refinement_probes_must_be_base_nodes(toy_params, toy_spec):
    with pytest.raises(ValueError, match="not a node"):
        refinement_table(toy_params, toy_spec, [0.3], [0], rounds=1)


@pytest.mark.parametrize("q, message", [(-2, "inventory -2 outside"),
                                         (2, "inventory 2 outside"),
                                         (0.5, "inventory 0.5 is not an integer")])
def test_refinement_probe_inventories_are_checked_first(toy_params, toy_spec, q,
                                                        message, monkeypatch):
    # q = -(q_bar + 1) once read q = +q_bar and q = 0.5 read q = 0
    monkeypatch.setattr(mmqvi.solver, "solve_backward", None)
    with pytest.raises(ValueError, match=message):
        refinement_table(toy_params, toy_spec, [0.0], [0, q], rounds=1)


@pytest.mark.parametrize("rounds", [0, -1, True, 1.0])
def test_refinement_rounds_are_checked_first(toy_params, toy_spec, rounds, monkeypatch):
    # 0 and -1 once returned a one-row table with no differences, and True
    # ran one round
    monkeypatch.setattr(mmqvi.solver, "solve_backward", None)
    with pytest.raises(ValueError, match="rounds must be an integer >= 1"):
        refinement_table(toy_params, toy_spec, [0.0], [0], rounds=rounds)


def test_refinement_table_shapes(toy_params, toy_spec):
    result = refinement_table(
        toy_params, toy_spec, [-1.0, 0.0, 1.0], [-1, 0], rounds=2
    )
    assert len(result.specs) == 3
    assert result.values.shape == (3, 6)
    assert result.diffs.shape == (2, 6)
    assert result.max_diffs.shape == (2,)
    np.testing.assert_allclose(
        result.diffs, np.abs(np.diff(result.values, axis=0))
    )


# ------------------------------------------------------------ solve path


def test_traced_names_resolve():
    # the benchmark's tracer patches these names; a missing one crashes a
    # traced run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, span, _ in tracing._patch_table():
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"


@pytest.mark.parametrize("workload", ["ref-solve", "fine-solve", "mc-replay"])
def test_benchmark_runs_against_the_package(workload):
    # a tiny traced run of each workload calls what the benchmark calls of
    # the package, so a changed name or signature fails here
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.3", "--trace", "1", "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert {"correct", "attempted", "failed", "metrics"} <= set(result)


def test_one_solve_builds_the_row_types_once_and_rescans_nothing(
    fast_params, fast_spec, monkeypatch
):
    # the solve path gathers its splittings, reports and right sides from
    # per-grid tables built once: it assembles no A(P), scans none, never
    # needs the LU fallback, and evaluates the running reward and the upwind
    # coefficients only while it builds the tables
    calls = Counter()
    building = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            inside = any(building) or name not in ("running_reward", "_upwind_coeffs")
            calls[name if inside else f"{name} outside a table build"] += 1
            building.append(name in ("row_types", "StepTables"))
            try:
                return fn(*args, **kwargs)
            finally:
                building.pop()
        return wrapper

    for owner, name in ((mmqvi.scheme, "row_types"), (Policy, "validate"),
                        (mmqvi.policy_iteration, "verify_theorem_conditions"),
                        (mmqvi.scheme, "assemble_system"), (mmqvi.linsolve, "solve"),
                        (mmqvi.scheme, "running_reward"), (mmqvi.scheme, "_upwind_coeffs")):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    tables = mmqvi.scheme.StepTables
    monkeypatch.setattr(tables, "__init__", counted("StepTables", tables.__init__))
    sol = solve_backward(fast_params, fast_spec)
    # one dt*f per continuation row type; one set of upwind coefficients
    # each for the row types and the improvement tables
    assert calls == {"row_types": 1, "StepTables": 1, "running_reward": 4,
                     "_upwind_coeffs": 2}
    assert all(e["min_interior_margin"] is not None for e in sol.metadata["per_level"])
