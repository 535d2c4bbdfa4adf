"""Lattice construction and the semi-Lagrangian shift stencils."""

import numpy as np
import pytest

from mmqvi import GridSpec, build_grid, build_stencils, solve_backward
from mmqvi.grid import EXACT_SHIFT_TOL, MODES

from conftest import quiet_params
from oracles import flatten, shift_stencil_down, shift_stencil_up, unflatten


def small_params(**overrides):
    base = dict(
        T=1.0,
        sigma=0.01,
        theta=0.1,
        delta=0.005,
        eps=0.005,
        lambda_a=1.0,
        lambda_b=1.0,
        k=1.0,
        rho=1.0,
        gamma_a=1.0,
        gamma_b=1.0,
        phi=1e-6,
        psi=0.0,
        q_bar=1,
        alpha_cap=2.0,
    )
    base.update(overrides)
    return quiet_params(**base)


# ---------------------------------------------------------------- GridSpec


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(n_time_steps=0), "n_time_steps"),
        (dict(n_time_steps=2.5), "n_time_steps"),
        (dict(n_alpha_points=4), "n_alpha_points"),
        (dict(n_alpha_points=1), "n_alpha_points"),
        (dict(alpha_cap=0.0), "alpha_cap"),
        (dict(q_bar=0), "q_bar"),
        # a bool is an int to isinstance: True once made a one-step grid
        (dict(n_time_steps=True), "n_time_steps"),
        (dict(q_bar=True), "q_bar"),
    ],
)
def test_grid_spec_rejects_bad_fields(kwargs, field):
    base = dict(n_time_steps=10, n_alpha_points=5, alpha_cap=1.0, q_bar=1)
    base.update(kwargs)
    with pytest.raises(ValueError, match=field):
        GridSpec(**base)


# --------------------------------------------------------------- build_grid


def test_reference_grid_dimensions(grid6, params6):
    assert grid6.d_t == 0.05
    assert grid6.d_alpha == 6.0
    assert grid6.n_alpha == 101
    assert grid6.n_q == 9
    assert grid6.n_nodes == 909
    assert len(grid6.times) == 201
    assert grid6.times[-1] == params6.T
    assert grid6.alphas[0] == -300.0 and grid6.alphas[-1] == 300.0
    assert grid6.alphas[50] == 0.0
    assert list(grid6.qs) == list(range(-4, 5))


def test_alpha_nodes_are_symmetric(grid6):
    np.testing.assert_array_equal(grid6.alphas + grid6.alphas[::-1], 0.0)


def test_minimal_grid(toy_params, toy_spec):
    g = build_grid(toy_params, toy_spec)
    assert g.d_t == toy_params.T
    assert g.d_alpha == 1.0
    assert g.n_nodes == 9
    assert list(g.qs) == [-1, 0, 1]


def test_build_grid_rejects_cap_mismatch(params6):
    with pytest.raises(ValueError, match="alpha_cap"):
        build_grid(params6, GridSpec(10, 101, 200.0, 4))
    with pytest.raises(ValueError, match="q_bar"):
        build_grid(params6, GridSpec(10, 101, 300.0, 3))


def test_flatten_unflatten_roundtrip(grid6):
    for node in range(grid6.n_nodes):
        ii, jj = unflatten(grid6, node)
        assert flatten(grid6, ii, jj) == node
        assert grid6.alpha_of_node[node] == grid6.alphas[ii]
        assert grid6.q_of_node[node] == grid6.qs[jj]


def test_nearest_alpha_index(grid6):
    assert grid6.nearest_alpha_index(-300.0) == 0
    assert grid6.nearest_alpha_index(0.0) == 50
    assert grid6.nearest_alpha_index(2.9) == 50
    assert grid6.nearest_alpha_index(3.1) == 51
    assert grid6.nearest_alpha_index(-1e6) == 0
    assert grid6.nearest_alpha_index(1e6) == 100


def truncate_alpha(p, alpha: float) -> float:
    """Clamp a signal value to the truncation interval [-alpha_cap, alpha_cap]."""
    return min(max(alpha, -p.alpha_cap), p.alpha_cap)


def test_truncate_alpha(params6):
    assert truncate_alpha(params6, 100.0) == 100.0
    assert truncate_alpha(params6, 500.0) == 300.0
    assert truncate_alpha(params6, -500.0) == -300.0


# ----------------------------------------------------------------- stencils


def test_integer_shift_is_a_pure_index_shift(grid6, params6):
    # gamma = 60 with d_alpha = 6 lands exactly ten nodes away.
    up = shift_stencil_up(grid6, params6, 50)
    assert up.indices == (60,)
    assert up.weights == (1.0,)
    assert up.target == grid6.alphas[50] + params6.gamma_a
    assert not up.boundary
    down = shift_stencil_down(grid6, params6, 50)
    assert down.indices == (40,)
    assert down.weights == (1.0,)


def test_fractional_shift_interpolates_linearly():
    p = small_params(gamma_a=1.5, gamma_b=0.25)
    g = build_grid(p, GridSpec(1, 5, 2.0, 1))
    assert g.d_alpha == 1.0
    up = shift_stencil_up(g, p, 2)
    assert up.indices == (3, 4)
    assert up.weights == pytest.approx((0.5, 0.5))
    down = shift_stencil_down(g, p, 2)
    assert down.indices == (1, 2)
    assert down.weights == pytest.approx((0.25, 0.75))


def test_near_integer_shift_snaps_to_single_node():
    p = small_params(gamma_a=1.0 + EXACT_SHIFT_TOL / 2, gamma_b=1.0)
    g = build_grid(p, GridSpec(1, 5, 2.0, 1))
    up = shift_stencil_up(g, p, 1)
    assert up.indices == (2,)
    assert up.weights == (1.0,)


def test_clamp_mode_pins_overshoot_to_the_boundary_node(grid6, params6):
    up = shift_stencil_up(grid6, params6, 95)  # target 330 beyond the cap
    assert up.indices == (100,)
    assert up.weights == (1.0,)
    assert up.boundary


@pytest.mark.parametrize("mode", MODES)
def test_stencil_weights_sum_to_one(grid6, params6, mode):
    st = build_stencils(grid6, params6, mode)
    for shift_map in (st.up, st.down):
        np.testing.assert_allclose(shift_map.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_clamp_weights_are_nonnegative(stencils6):
    for shift_map in (stencils6.up, stencils6.down):
        assert shift_map.data.min() >= 0.0


def test_stencils_mirror_when_shift_sizes_match(grid6, params6):
    # gamma_a = gamma_b, symmetric lattice: the down map at the mirror node
    # is the up map reflected through the center.
    st = build_stencils(grid6, params6, "clamp")
    np.testing.assert_allclose(
        st.down.toarray(), st.up.toarray()[::-1, ::-1], rtol=0, atol=1e-15
    )
    np.testing.assert_array_equal(st.boundary, st.boundary[::-1])


def test_packed_matrix_agrees_with_stencil_apply(grid6, params6):
    st = build_stencils(grid6, params6, "clamp")
    rng = np.random.default_rng(3)
    v = rng.normal(size=grid6.n_alpha)
    n = grid6.n_alpha
    up = [shift_stencil_up(grid6, params6, i).apply(v) for i in range(n)]
    down = [shift_stencil_down(grid6, params6, i).apply(v) for i in range(n)]
    np.testing.assert_allclose(st.up @ v, up, rtol=0, atol=1e-12)
    np.testing.assert_allclose(st.down @ v, down, rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode", ["linear", "paper"])
def test_unknown_extrapolation_mode_rejected(grid6, params6, spec6, mode):
    # clamp is the one boundary treatment; the retired paper mode is unknown
    with pytest.raises(ValueError, match=r"mode must be one of \('clamp',\)"):
        build_stencils(grid6, params6, mode)
    with pytest.raises(ValueError, match=r"mode must be one of \('clamp',\)"):
        solve_backward(params6, spec6, mode=mode)
