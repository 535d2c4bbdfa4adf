"""Parameter validation and the closed-form reward/bound formulas."""

import math

import pytest

from mmqvi import ModelParams, ParameterWarning
from mmqvi.model import (
    reconstruct_full_value,
    running_reward,
    stability_bounds,
    terminal_value,
)

from conftest import quiet_params

STRICT_POSITIVE = (
    "T",
    "sigma",
    "theta",
    "eps",
    "lambda_a",
    "lambda_b",
    "k",
    "rho",
    "gamma_a",
    "gamma_b",
    "alpha_cap",
)

WARN_AT_ZERO = ("delta", "phi", "psi")


def make_params(**overrides) -> ModelParams:
    base = dict(
        T=10.0,
        sigma=0.01,
        theta=0.1,
        delta=0.005,
        eps=0.005,
        lambda_a=1.0,
        lambda_b=1.0,
        k=200.0,
        rho=1.0,
        gamma_a=60.0,
        gamma_b=60.0,
        phi=1e-6,
        psi=0.0,
        q_bar=4,
        alpha_cap=300.0,
    )
    base.update(overrides)
    return quiet_params(**base)


@pytest.mark.parametrize("name", STRICT_POSITIVE)
@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_strictly_positive_fields_reject_nonpositive(name, bad):
    with pytest.raises(ValueError, match=name):
        make_params(**{name: bad})


@pytest.mark.parametrize("name", STRICT_POSITIVE + WARN_AT_ZERO)
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_float_fields_reject_non_finite_values(name, bad):
    # nan passed every check of delta, phi and psi, and inf every check
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        make_params(**{name: bad})


@pytest.mark.parametrize("name", WARN_AT_ZERO)
def test_zero_allowed_fields_warn_at_zero_and_reject_negative(name):
    kwargs = dict(
        T=10.0,
        sigma=0.01,
        theta=0.1,
        delta=0.005,
        eps=0.005,
        lambda_a=1.0,
        lambda_b=1.0,
        k=200.0,
        rho=1.0,
        gamma_a=60.0,
        gamma_b=60.0,
        phi=1e-6,
        psi=0.01,
        q_bar=4,
        alpha_cap=300.0,
    )
    kwargs[name] = 0.0
    with pytest.warns(ParameterWarning, match=name):
        ModelParams(**kwargs)
    with pytest.raises(ValueError, match=name):
        make_params(**{name: -1e-9})


@pytest.mark.parametrize("bad", [0, -1, 2.5, True])
def test_q_bar_must_be_a_positive_integer(bad):
    with pytest.raises(ValueError, match="q_bar"):
        make_params(q_bar=bad)


def test_upsilon_is_half_spread_plus_fee():
    p = make_params(delta=0.003, eps=0.0125)
    assert p.upsilon == 0.003 + 0.0125


def test_running_reward_reference_point():
    p = make_params()
    # alpha*sigma*q - phi*q^2 + la*lambda_a*delta + lb*lambda_b*delta
    got = running_reward(p, 100.0, 1, 1, 1)
    assert got == pytest.approx(1.009999, rel=1e-12)


def test_running_reward_zero_at_flat_origin():
    p = make_params()
    assert running_reward(p, 0.0, 0, 0, 0) == 0.0


def test_running_reward_reflection_swaps_quote_sides():
    p = make_params()
    for alpha, q in [(60.0, 2), (-12.0, 1), (300.0, -4)]:
        assert running_reward(p, alpha, q, 1, 0) == pytest.approx(
            running_reward(p, -alpha, -q, 0, 1), rel=1e-14
        )


def test_terminal_value_reference_points():
    p = make_params()
    assert terminal_value(p, 0) == 0.0
    assert terminal_value(p, 4) == pytest.approx(-0.04, rel=1e-12)
    assert terminal_value(p, -4) == pytest.approx(-0.04, rel=1e-12)


def test_terminal_value_even_and_nonpositive():
    p = make_params(psi=0.05)
    for q in range(-4, 5):
        assert terminal_value(p, q) == terminal_value(p, -q)
        assert terminal_value(p, q) <= 0.0


def test_stability_bounds_at_terminal_time():
    p = make_params(psi=0.05)
    lo, hi = stability_bounds(p, p.T)
    assert hi == 0.0
    assert lo == pytest.approx(-(p.upsilon * 4 + 0.05 * 16), rel=1e-12)


def test_stability_bounds_reference_values_at_time_zero():
    p = make_params()
    lo, hi = stability_bounds(p, 0.0)
    assert hi == pytest.approx(120.1, rel=1e-9)
    assert lo == pytest.approx(-120.04016, rel=1e-9)


def test_stability_bounds_tighten_toward_maturity():
    p = make_params(psi=0.05)
    ts = [0.0, 2.5, 5.0, 7.5, 10.0]
    lows, highs = zip(*(stability_bounds(p, t) for t in ts))
    assert all(a <= b for a, b in zip(lows, lows[1:]))
    assert all(a >= b for a, b in zip(highs, highs[1:]))
    assert all(lo <= 0.0 <= hi for lo, hi in zip(lows, highs))


@pytest.mark.parametrize("t", [-0.1, 10.5])
def test_stability_bounds_reject_times_outside_horizon(t):
    with pytest.raises(ValueError):
        stability_bounds(make_params(), t)


def test_reconstruct_full_value():
    assert reconstruct_full_value(0.0, 100.0, 2, -0.04) == pytest.approx(
        199.96, rel=1e-14
    )
    assert reconstruct_full_value(3.5, 100.0, 0, 0.25) == pytest.approx(
        3.75, rel=1e-14
    )
