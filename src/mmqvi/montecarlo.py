"""Monte Carlo validation of the solved control against path simulation.

Paths follow the full model: the signal follows exact Ornstein-Uhlenbeck
transitions between events (truncated to the solver band), external market
orders arrive as Poisson streams and bump the signal, the midprice moves by
one tick at jump times with intensities theta + alpha^+ / theta + alpha^-,
and the maker's quotes and impulses replay the solved policy (nearest
neighbor in alpha, exact in inventory, left-continuous in time), read off
each level's ``Policy.code`` with the ``scheme`` bits.

Price-jump arrivals between events are drawn by inverting the cumulative
intensity along the deterministic signal decay from the last event; the
diffusion part of the signal re-enters at every event time through the exact
transition.  External order streams are simulated exactly.  The realized
objective of a path is

    J = -phi * int_0^T Q^2 dt + X_T + Q_T * (S_T - upsilon * sign(Q_T)) - psi * Q_T^2

whose mean over paths must agree with the reconstructed full value at the
starting state within Monte Carlo error.

``simulate_path`` runs one path through the scalar simulator and keeps its
full event log; it is the reference.  ``estimate_performance`` advances all
paths in lockstep with array operations: each pass moves every unfinished
path to its own next event (price jump, external order or end of its time
step) and handles it, and only the paths whose Exp(1) budget falls within the
window's cumulative intensity invert it, in closed form through the Wright
omega function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ModelParams, inventory_units, reconstruct_full_value
from .scheme import D, LA, LB, UP
from .solver import Solution


class SimulationError(RuntimeError):
    pass


@dataclass(eq=False)
class PathRecord:
    """Event-ordered trajectory and event log of one simulated path."""

    y0: tuple[float, float, float, int]
    trajectory: list[tuple[float, float, float, float, int]] = field(default_factory=list)
    fill_cash: list[tuple[float, float]] = field(default_factory=list)
    own_order_cash: list[tuple[float, int, float]] = field(default_factory=list)
    ext_buy_times: list[float] = field(default_factory=list)
    ext_sell_times: list[float] = field(default_factory=list)
    jump_up_times: list[float] = field(default_factory=list)
    jump_down_times: list[float] = field(default_factory=list)
    running_penalty: float = 0.0
    chatter_capped: int = 0
    realized_objective: float = 0.0


@dataclass(frozen=True)
class EstimateReport:
    """Sample mean of the path objective versus the model-predicted value."""

    n_paths: int
    mean: float
    stderr: float
    predicted: float
    zscore: float
    chatter_capped: int         # cascade-cap hits, summed over paths
    events_per_path: float      # external orders plus price jumps
    own_orders_per_path: float  # the maker's market orders


def _next_jump(theta: float, c: float, k: float, budget: float, window: float):
    """First arrival time of an intensity theta + c*k*exp(-k*t) clock.

    ``c`` is alpha0/k for the matching-sign stream (0 otherwise), ``budget``
    an Exp(1) draw.  Returns the arrival time within ``window`` or None.
    Cumulative intensity: Lambda(w) = theta*w + c*(1 - exp(-k*w)).
    """
    total = theta * window + c * (1.0 - math.exp(-k * window))
    if budget > total:
        return None
    if c == 0.0:
        return budget / theta
    w = budget / theta if theta > 0 else window
    w = min(w, window)
    for _ in range(60):
        ekw = math.exp(-k * w)
        f = theta * w + c * (1.0 - ekw) - budget
        if abs(f) < 1e-14 * (1.0 + budget):
            break
        w -= f / (theta + c * k * ekw)
        if w < 0.0:
            w = 0.0
    return w


def _start_state(p: ModelParams, q_bar: int, y0) -> tuple[float, float, float, int]:
    """(x, s, alpha, q) of the start state ``y0``, alpha clipped to the cap.
    Raises ValueError on a non-finite x0, s0 or alpha0 or a fractional
    inventory, and SimulationError on an inventory outside the cap."""
    for name, value in zip(("x0", "s0", "alpha0"), y0):
        if not math.isfinite(value):
            raise ValueError(f"start state {name} must be finite, got {value}")
    q = inventory_units(y0[3])
    if abs(q) > q_bar:
        raise SimulationError(f"initial inventory {q} outside the cap {q_bar}")
    return float(y0[0]), float(y0[1]), min(max(float(y0[2]), -p.alpha_cap), p.alpha_cap), q


def _simulate(
    p: ModelParams,
    sol: Solution,
    y0: tuple[float, float, float, int],
    rng: np.random.Generator,
) -> PathRecord:
    """Scalar, event-logging replay of one path: the reference simulator."""
    grid = sol.grid
    n_alpha, q_bar = grid.n_alpha, int(grid.qs[-1])
    alpha_lo = grid.alphas[0]
    d_alpha = grid.d_alpha
    a_cap = p.alpha_cap
    k, rho, theta = p.k, p.rho, p.theta
    ups = p.upsilon
    times = grid.times
    n_steps = len(sol.policies)
    x, s, alpha, q = _start_state(p, q_bar, y0)

    rec = PathRecord(y0=(x, s, alpha, q))
    rec.trajectory.append((0.0, x, s, alpha, q))

    q2_int = 0.0       # running integral of Q^2 dt
    t_mark = 0.0       # time of the last inventory change

    def node_of() -> int:
        i = int((alpha - alpha_lo) / d_alpha + 0.5)
        if i < 0:
            i = 0
        elif i >= n_alpha:
            i = n_alpha - 1
        return (q + q_bar) * n_alpha + i

    def mark_q_change(t: float) -> None:
        nonlocal q2_int, t_mark
        q2_int += q * q * (t - t_mark)
        t_mark = t

    def cascade(n: int, t: float) -> None:
        """Execute own market orders while the cell demands one (d = 1)."""
        nonlocal x, alpha, q
        codes = sol.policies[n].code
        for _ in range(2 * q_bar):
            code = codes[node_of()]
            if not code & D:
                return
            mark_q_change(t)
            if code & UP:
                x -= s + ups
                q += 1
                alpha = min(alpha + p.gamma_a, a_cap)
                rec.own_order_cash.append((t, 1, -(s + ups)))
            else:
                x += s - ups
                q -= 1
                alpha = max(alpha - p.gamma_b, -a_cap)
                rec.own_order_cash.append((t, -1, s - ups))
            if abs(q) > q_bar:
                raise SimulationError(f"inventory {q} breached the cap at t={t}")
            rec.trajectory.append((t, x, s, alpha, q))
        if codes[node_of()] & D:
            rec.chatter_capped += 1

    def advance_alpha(w: float) -> None:
        nonlocal alpha
        if w <= 0.0:
            return
        decay = math.exp(-k * w)
        sd = math.sqrt(rho * rho * (1.0 - decay * decay) / (2.0 * k))
        alpha = alpha * decay + sd * rng.standard_normal()
        if alpha > a_cap:
            alpha = a_cap
        elif alpha < -a_cap:
            alpha = -a_cap

    dt = grid.d_t
    counts_a = rng.poisson(p.lambda_a * dt, n_steps)
    counts_b = rng.poisson(p.lambda_b * dt, n_steps)

    for n in range(n_steps):
        t0, t1 = times[n], times[n + 1]
        cascade(n, t0)

        events = [(t0 + dt * u, 1) for u in rng.random(counts_a[n])]
        events += [(t0 + dt * u, -1) for u in rng.random(counts_b[n])]
        events.sort()
        events.append((t1, 0))

        t_cur = t0
        step_codes = sol.policies[n].code
        for t_ev, kind in events:
            # price jumps strictly inside (t_cur, t_ev)
            while t_ev > t_cur:
                window = t_ev - t_cur
                c_up = alpha / k if alpha > 0 else 0.0
                c_dn = -alpha / k if alpha < 0 else 0.0
                w_up = _next_jump(theta, c_up, k, rng.exponential(), window)
                w_dn = _next_jump(theta, c_dn, k, rng.exponential(), window)
                if w_up is None and w_dn is None:
                    advance_alpha(window)
                    t_cur = t_ev
                    break
                if w_dn is None or (w_up is not None and w_up <= w_dn):
                    w, tick = w_up, 1
                else:
                    w, tick = w_dn, -1
                advance_alpha(w)
                t_cur += w
                s += tick * p.sigma
                (rec.jump_up_times if tick > 0 else rec.jump_down_times).append(t_cur)
                rec.trajectory.append((t_cur, x, s, alpha, q))

            if kind == 0:
                break
            if kind > 0:
                # external buy: our resting ask fills first, then the bump
                rec.ext_buy_times.append(t_ev)
                if step_codes[node_of()] & LA:
                    mark_q_change(t_ev)
                    x += s + p.delta
                    q -= 1
                    rec.fill_cash.append((t_ev, s + p.delta))
                alpha = min(alpha + p.gamma_a, a_cap)
            else:
                rec.ext_sell_times.append(t_ev)
                if step_codes[node_of()] & LB:
                    mark_q_change(t_ev)
                    x -= s - p.delta
                    q += 1
                    rec.fill_cash.append((t_ev, -(s - p.delta)))
                alpha = max(alpha - p.gamma_b, -a_cap)
            if abs(q) > q_bar:
                raise SimulationError(f"inventory {q} breached the cap at t={t_ev}")
            rec.trajectory.append((t_ev, x, s, alpha, q))
            cascade(n, t_ev)

    t_end = float(times[-1])
    q2_int += q * q * (t_end - t_mark)
    rec.running_penalty = p.phi * q2_int
    sign = 0.0 if q == 0 else math.copysign(1.0, q)
    rec.realized_objective = (
        -p.phi * q2_int + x + q * (s - ups * sign) - p.psi * q * q
    )
    rec.trajectory.append((t_end, x, s, alpha, q))
    return rec


def simulate_path(
    p: ModelParams,
    sol: Solution,
    y0: tuple[float, float, float, int],
    seed,
) -> PathRecord:
    """Simulate one path replaying the solved policy; full event record.
    Raises ValueError when x0, s0 or alpha0 is not finite or the inventory
    y0[3] is not integral."""
    rng = np.random.default_rng(seed)
    return _simulate(p, sol, y0, rng)


def _first_arrivals(
    theta: float, c: np.ndarray, k: float, budget: np.ndarray, window: np.ndarray
) -> np.ndarray:
    """Vectorized ``_next_jump`` for clocks known to fire within ``window``.

    Solves theta*w + c*(1 - exp(-k*w)) = budget in closed form: omega =
    exp(-k*w)*k*c/theta solves omega + log(omega) = x with x =
    log(k*c/theta) + k*(c - budget)/theta, so omega is the Wright omega
    function of x (Corless & Jeffrey 2002), and w = (budget - c)/theta +
    omega/k = log(k*c/(theta*omega))/k.  The first form, which damps the
    rounding of x by omega, serves omega < 1; at omega >= 1 its terms cancel
    and the second serves.  c = 0 gives omega = 0 and exactly budget/theta.
    """
    # loading scipy.special costs a process about 45 ms and 2.5 MB, which
    # ``import mmqvi`` and the solvers should not pay, so it loads here
    from scipy.special import wrightomega

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # c = 0; form not taken
        omega = wrightomega(np.log(k * c / theta) + k * (c - budget) / theta)
        w = np.where(omega < 1.0, (budget - c) / theta + omega / k,
                     np.log(k * c / (theta * omega)) / k)
    return np.minimum(np.maximum(w, 0.0), window)


@dataclass
class _ReplayCounts:
    ext_orders: int = 0
    jumps: int = 0
    own_orders: int = 0
    chatter_capped: int = 0


def _replay(
    p: ModelParams,
    sol: Solution,
    start: tuple[float, float, float, int],
    n_paths: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, _ReplayCounts]:
    """Replay the policy on ``n_paths`` paths at once, one event per pass.

    The same dynamics as ``_simulate``, advanced for all paths in lockstep:
    each path's state lives in arrays indexed by path, and every pass takes
    each unfinished path from its own last event to its next one: the first
    arrival of its two price-jump clocks, else its next external order, else
    the end of its time step, where it moves on to the next step's policy.
    ``start`` is the ``_start_state`` of the paths.  Returns the realized
    objectives and the event counts.
    """
    grid = sol.grid
    n_alpha, q_bar = grid.n_alpha, int(grid.qs[-1])
    alpha_lo, d_alpha = grid.alphas[0], grid.d_alpha
    a_cap, ups = p.alpha_cap, p.upsilon
    k, rho, theta = p.k, p.rho, p.theta
    step_end, t_end = grid.times[1:], float(grid.times[-1])
    n_steps = len(sol.policies)
    x0, s0, alpha0, q0 = start
    codes = np.stack([pol.code for pol in sol.policies])
    x, s, alpha = np.full(n_paths, x0), np.full(n_paths, s0), np.full(n_paths, alpha0)
    q = np.full(n_paths, q0, dtype=np.int64)
    q2_int = np.zeros(n_paths)      # running integral of Q^2 dt
    t_mark = np.zeros(n_paths)      # time of the last inventory change
    t_cur = np.zeros(n_paths)       # time of the last event
    step = np.zeros(n_paths, dtype=np.int64)
    every = np.arange(n_paths)

    # the external orders of the whole horizon, Poisson(lambda*T) per side at
    # uniform times: path i's sit by time from nxt[i] on, then an inf sentinel
    n_a = rng.poisson(p.lambda_a * t_end, n_paths)
    n_ev = n_a + rng.poisson(p.lambda_b * t_end, n_paths)
    counts = _ReplayCounts(ext_orders=int(n_ev.sum()))
    owner = np.repeat(every, n_ev + 1)
    nxt = np.cumsum(n_ev + 1) - (n_ev + 1)
    rank = np.arange(owner.size) - nxt[owner]
    ev_t = np.where(rank < n_ev[owner], t_end * rng.random(owner.size), np.inf)
    order = np.lexsort((ev_t, owner))
    ev_t, ev_buy = ev_t[order], (rank < n_a[owner])[order]

    def node_of(idx: np.ndarray) -> np.ndarray:
        i = ((alpha[idx] - alpha_lo) / d_alpha + 0.5).astype(np.int64)
        np.minimum(np.maximum(i, 0, out=i), n_alpha - 1, out=i)
        return (q[idx] + q_bar) * n_alpha + i

    def mark_q_change(idx: np.ndarray, t: np.ndarray) -> None:
        q2_int[idx] += q[idx] * q[idx] * (t - t_mark[idx])
        t_mark[idx] = t

    def check_cap(idx: np.ndarray, t: np.ndarray) -> None:
        breach = np.abs(q[idx]) > q_bar
        if breach.any():
            j = int(np.argmax(breach))
            raise SimulationError(
                f"inventory {int(q[idx[j]])} breached the cap at t={t[j]}"
            )

    def bump(idx: np.ndarray, buy: np.ndarray) -> None:
        """Signal kick of a market order: +gamma_a for a buy, -gamma_b for a sell."""
        a = alpha[idx]
        alpha[idx] = np.where(
            buy, np.minimum(a + p.gamma_a, a_cap), np.maximum(a - p.gamma_b, -a_cap)
        )

    def cascade(idx: np.ndarray, t: np.ndarray) -> None:
        """Own market orders, round by round, while a path's cell has d = 1
        under the policy of the path's step."""
        for _ in range(2 * q_bar):
            code = codes[step[idx], node_of(idx)]
            act = (code & D) != 0
            if not act.any():
                return
            idx, t, buy = idx[act], t[act], (code[act] & UP) != 0
            mark_q_change(idx, t)
            si = s[idx]
            x[idx] += np.where(buy, -(si + ups), si - ups)
            q[idx] += np.where(buy, 1, -1)
            bump(idx, buy)
            counts.own_orders += idx.size
            check_cap(idx, t)
        counts.chatter_capped += int(np.count_nonzero(codes[step[idx], node_of(idx)] & D))

    def advance_alpha(a: np.ndarray, decay: np.ndarray) -> np.ndarray:
        """Exact OU transitions over windows with decay factors exp(-k*w)."""
        sd = np.sqrt(rho * rho * (1.0 - decay * decay) / (2.0 * k))
        return np.minimum(np.maximum(a * decay + sd * rng.standard_normal(a.size),
                                     -a_cap), a_cap)

    cascade(every, t_cur)
    live = every
    while live.size:
        t_from, a = t_cur[live], alpha[live]
        t_order, t_step = ev_t[nxt[live]], step_end[step[live]]
        t_to = np.minimum(t_order, t_step)
        window = np.maximum(t_to - t_from, 0.0)
        # two price-jump clocks: one at rate theta + |a| exp(-k*w), w the time
        # since t_from, for a tick in the direction of the signal, one at rate
        # theta for a tick against it; the first arrival in the window is the
        # path's next event
        c = np.abs(a) / k
        budget = rng.exponential(size=(2, live.size))
        hit_with = budget[0] <= theta * window + c * (1.0 - np.exp(-k * window))
        hit_against = budget[1] <= theta * window
        jump = hit_with | hit_against
        w_with = np.full(live.size, np.inf)
        w_with[hit_with] = _first_arrivals(
            theta, c[hit_with], k, budget[0, hit_with], window[hit_with]
        )
        w_against = np.where(hit_against, budget[1] / theta, np.inf)
        w = np.where(jump, np.minimum(w_with, w_against), window)
        up = (a >= 0.0) == (w_with <= w_against)
        s[live[jump]] += np.where(up[jump], p.sigma, -p.sigma)
        counts.jumps += int(np.count_nonzero(jump))
        alpha[live] = advance_alpha(a, np.exp(-k * w))
        t_cur[live] = np.where(jump, t_from + w, t_to)

        # paths without a jump reached their next order or their step's end
        arrived = ~jump
        idx, t_ev = live[arrived], t_to[arrived]
        is_order = t_order[arrived] <= t_step[arrived]
        o, t_o = idx[is_order], t_ev[is_order]
        buy = ev_buy[nxt[o]]
        nxt[o] += 1
        # an external buy lifts our resting ask, a sell hits our bid, both
        # from the cell before the order's bump
        fills = (codes[step[o], node_of(o)] & np.where(buy, LA, LB)) != 0
        f, fb, t_f = o[fills], buy[fills], t_o[fills]
        mark_q_change(f, t_f)
        sf = s[f]
        x[f] += np.where(fb, sf + p.delta, -(sf - p.delta))
        q[f] += np.where(fb, -1, 1)
        bump(o, buy)
        check_cap(f, t_f)
        step[idx[~is_order]] += 1
        going = step[idx] < n_steps
        cascade(idx[going], t_ev[going])
        if not going.all():
            live = live[step[live] < n_steps]

    q2_int += q * q * (t_end - t_mark)
    objectives = -p.phi * q2_int + x + q * (s - ups * np.sign(q)) - p.psi * q * q
    return objectives, counts


def estimate_performance(
    p: ModelParams,
    sol: Solution,
    y0: tuple[float, float, float, int],
    n_paths: int,
    seed,
) -> EstimateReport:
    """Mean realized objective over paths versus the reconstructed value.

    All paths draw from one generator, ``default_rng(seed)``, so a seed
    reproduces the report exactly: first the external orders of the whole
    horizon, then, pass by pass, the jump budgets and signal noise of the
    paths still running.  Path i's draws depend on the other paths, so the
    paths of an n-path run are not a prefix of a larger run, and they differ
    from ``simulate_path`` paths seeded with ``SeedSequence(seed).spawn(n)``
    children; they follow the same law.  Raises ValueError when x0, s0 or
    alpha0 is not finite or the inventory y0[3] is not integral, and when
    ``n_paths`` is not an integer >= 1.
    """
    if isinstance(n_paths, bool) or not isinstance(n_paths, int) or n_paths < 1:
        raise ValueError(f"n_paths must be an integer >= 1, got {n_paths!r}")
    x0, s0, alpha0, q0 = start = _start_state(p, int(sol.grid.qs[-1]), y0)
    rng = np.random.default_rng(seed)
    objectives, counts = _replay(p, sol, start, n_paths, rng)

    mean = float(objectives.mean())
    stderr = float(objectives.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
    predicted = reconstruct_full_value(x0, s0, float(q0), sol.value_at(0, alpha0, q0))
    if stderr > 0:
        zscore = (mean - predicted) / stderr
    else:
        zscore = 0.0 if abs(mean - predicted) <= 1e-12 * (1.0 + abs(predicted)) else math.inf
    return EstimateReport(
        n_paths=n_paths,
        mean=mean,
        stderr=stderr,
        predicted=predicted,
        zscore=zscore,
        chatter_capped=counts.chatter_capped,
        events_per_path=(counts.ext_orders + counts.jumps) / n_paths,
        own_orders_per_path=counts.own_orders / n_paths,
    )
