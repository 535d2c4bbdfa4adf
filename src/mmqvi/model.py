"""Market-making model with limit-order quoting and impulse market orders.

A market maker quotes at most one unit at the half-spread ``delta`` on each
side of a midprice that moves by one tick ``sigma`` at jump times whose
intensities are driven by a mean-reverting signal ``alpha``.  External market
orders arrive at rates ``lambda_a`` (buys, lifting our ask) and ``lambda_b``
(sells, hitting our bid) and each arrival bumps the signal by ``+gamma_a`` or
``-gamma_b``.  The maker may also send its own market orders at unit cost
``upsilon = delta + eps`` per share, moving inventory by one unit.

The value function separates as

    u(t, x, s, alpha, q) = x + q*s + v(t, alpha, q)

and everything in this package works on the reduced value ``v``.  This module
holds the parameter set, the reduced running reward and terminal value, the
a-priori bounds on ``v`` used as a stability envelope, and the reconstruction
of the full value from the reduced one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields


class ParameterWarning(UserWarning):
    """Non-fatal warning for degenerate but accepted parameter values."""


_STRICT_POSITIVE = (
    "T", "sigma", "theta", "eps", "lambda_a", "lambda_b",
    "k", "rho", "gamma_a", "gamma_b", "alpha_cap",
)

# Zero is accepted for these (it reproduces published experiments) but it
# removes a reward/penalty source, so construction warns instead of failing.
_WARN_AT_ZERO = ("delta", "phi", "psi")


@dataclass(frozen=True)
class ModelParams:
    """Immutable model parameters.

    Units: ``T`` time; ``sigma``, ``delta``, ``eps`` price; ``theta``,
    ``lambda_a``, ``lambda_b`` events/time; ``k`` 1/time; ``rho``
    signal/sqrt(time); ``gamma_a``, ``gamma_b`` signal; ``phi`` value per
    squared inventory per time; ``psi`` value per squared inventory;
    ``q_bar`` inventory units; ``alpha_cap`` signal.
    """

    T: float
    sigma: float
    theta: float
    delta: float
    eps: float
    lambda_a: float
    lambda_b: float
    k: float
    rho: float
    gamma_a: float
    gamma_b: float
    phi: float
    psi: float
    q_bar: int
    alpha_cap: float

    def __post_init__(self) -> None:
        for name in (f.name for f in fields(self) if f.type == "float"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name in _STRICT_POSITIVE:
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be > 0, got {value!r}")
        for name in _WARN_AT_ZERO:
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
            if value == 0:
                warnings.warn(
                    f"{name} = 0 removes a reward/penalty term from the model",
                    ParameterWarning,
                    stacklevel=3,
                )
        if isinstance(self.q_bar, bool) or not isinstance(self.q_bar, int) or self.q_bar < 1:
            raise ValueError(f"q_bar must be a positive integer, got {self.q_bar!r}")

    @property
    def upsilon(self) -> float:
        """Per-unit cost of a market order: half-spread plus taker fee."""
        return self.delta + self.eps


def running_reward(p: ModelParams, alpha: float, q: float, la: int, lb: int) -> float:
    """Reduced running reward f(alpha, q, la, lb).

    Drift profit ``alpha*sigma*q`` on the held inventory, quadratic running
    penalty, and the expected half-spread earned on each quoted side.
    """
    return (
        alpha * p.sigma * q
        - p.phi * q * q
        + la * p.lambda_a * p.delta
        + lb * p.lambda_b * p.delta
    )


def inventory_units(q) -> int:
    """``q`` as an integer inventory; raises ValueError naming ``q`` when it
    is not integral, so 1.0 passes and 0.5 is not truncated to 0."""
    if not float(q).is_integer():
        raise ValueError(f"inventory {q} is not an integer")
    return int(q)


def terminal_value(p: ModelParams, q: float) -> float:
    """Reduced terminal value g(q) = -upsilon*q*sign(q) - psi*q^2.

    Liquidating ``q`` units at the horizon pays the market-order cost
    ``upsilon`` per unit plus a quadratic penalty.  ``sign(0) = 0``, so the
    flat book is worth exactly zero.
    """
    sign = 0.0 if q == 0 else math.copysign(1.0, q)
    return -p.upsilon * q * sign - p.psi * q * q


def stability_bounds(p: ModelParams, t: float) -> tuple[float, float]:
    """A-priori envelope [U1(t), U2(t)] containing v(t, alpha, q).

    U1(t) = -upsilon*q_bar - psi*q_bar^2 - (T - t) * (sigma*A*q_bar + phi*q_bar^2)
    U2(t) = (T - t) * (delta*(lambda_a + lambda_b) + sigma*A*q_bar)

    Every admissible strategy earns at least the worst-case drift and penalty
    and at most both full spreads plus the best-case drift, so any scheme
    iterate leaving this envelope has gone unstable.  Always U1 <= 0 <= U2.
    """
    if not 0 <= t <= p.T:
        raise ValueError(f"t must lie in [0, T] = [0, {p.T}], got {t!r}")
    remaining = p.T - t
    qb = float(p.q_bar)
    lower = -p.upsilon * qb - p.psi * qb * qb - remaining * (
        p.sigma * p.alpha_cap * qb + p.phi * qb * qb
    )
    upper = remaining * (
        p.delta * (p.lambda_a + p.lambda_b) + p.sigma * p.alpha_cap * qb
    )
    return lower, upper


def reconstruct_full_value(x: float, s: float, q: float, v: float) -> float:
    """Full value u = x + q*s + v from cash, midprice, inventory and reduced value."""
    return x + q * s + v
