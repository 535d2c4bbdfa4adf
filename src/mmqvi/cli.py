"""Command-line front end: config parsing, run orchestration, CSV export.

Config files are flat ``key = value`` text: blank lines and ``#`` comments
are ignored, unknown or duplicate keys are errors, and a config file must
spell out every model and grid key (no silent defaults).  Without a config
file the built-in reference parameter set is used.  Command-line flags
override config-file run settings.

Run modes
    solve      backward solve; writes value_t0.csv and policy_t0.csv
    validate   solve, then Monte Carlo replay; fails if |z-score| > 3
    refine     solve on successively refined grids; probe-value table
    baseline   explicit-scheme stability report (CFL factor, outcome)

Exit codes: 0 success, 2 config error, 1 numeric or verification failure.
Logs go to standard error; CSV outputs use 12 significant digits and are
byte-identical across reruns with the same config and seed.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .grid import Grid, GridSpec, build_grid
from .linsolve import SolveError
from .model import ModelParams
from .montecarlo import estimate_performance
from .policy_iteration import PHASES, PolicyIterationError, VerificationError
from .presets import default_grid_spec, default_params
from .scheme import Policy
from .solver import (
    ExplicitInstabilityError,
    StabilityEnvelopeError,
    explicit_cfl_factor,
    refinement_table,
    solve_backward,
    solve_explicit_baseline,
)

log = logging.getLogger("mmqvi")

# field types are strings under ``from __future__ import annotations``
MODEL_KEYS = {f.name: {"float": float, "int": int}[f.type] for f in fields(ModelParams)}

GRID_KEYS = {"n_time_steps": int, "n_alpha_points": int}

RUN_MODES = ("solve", "validate", "refine", "baseline")

# Every run setting and its default; the default's type is the key's parse type.
RUN_DEFAULTS = {
    "mode": "solve",
    "out_dir": ".",
    "seed": 7,
    "n_paths": 10_000,
    "refine_rounds": 3,
    "mc_x0": 0.0,
    "mc_s0": 100.0,
    "mc_alpha0": 0.0,
    "mc_q0": 0,
}
RUN_KEYS = {key: type(default) for key, default in RUN_DEFAULTS.items()}
CONFIG_KEYS = MODEL_KEYS | GRID_KEYS | RUN_KEYS


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    spec: GridSpec
    mode: str
    out_dir: Path
    seed: int
    n_paths: int
    refine_rounds: int
    mc_y0: tuple[float, float, float, int]


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Flat key = value lines; comments and blanks skipped; keys unique."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key: {key}")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key: {key}")
        if not value:
            raise ConfigError(f"{source}:{lineno}: empty value for key: {key}")
        out[key] = value
    return out


def _convert(key: str, value: str):
    caster = CONFIG_KEYS[key]
    try:
        converted = caster(value)
    except ValueError:
        raise ConfigError(
            f"bad value for key {key}: {value!r} (expected {caster.__name__})"
        ) from None
    if caster is float and not np.isfinite(converted):
        raise ConfigError(f"bad value for key {key}: {value!r} (must be finite)")
    return converted


def build_run_config(raw: dict[str, str], overrides: dict) -> RunConfig:
    """Assemble a validated run config from file keys plus flag overrides:
    each run setting is its override unless that is None, else its file
    value, else its ``RUN_DEFAULTS`` entry.  A file key outside
    ``CONFIG_KEYS`` or an override outside ``RUN_DEFAULTS`` is an error."""
    for key in raw:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown key: {key}")
    for key in overrides:
        if key not in RUN_DEFAULTS:
            raise ConfigError(f"unknown run setting: {key}")
    if raw:
        for key in (*MODEL_KEYS, *GRID_KEYS):
            if key not in raw:
                raise ConfigError(f"config file missing required key: {key}")
        model_kw = {key: _convert(key, raw[key]) for key in MODEL_KEYS}
        try:
            params = ModelParams(**model_kw)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        try:
            spec = GridSpec(**{key: _convert(key, raw[key]) for key in GRID_KEYS},
                            alpha_cap=params.alpha_cap, q_bar=params.q_bar)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    else:
        params = default_params()
        spec = default_grid_spec()

    def setting(key: str):
        if overrides.get(key) is not None:
            return overrides[key]
        if key in raw:
            return _convert(key, raw[key])
        return RUN_DEFAULTS[key]

    run = {key: setting(key) for key in RUN_DEFAULTS}
    if run["mode"] not in RUN_MODES:
        raise ConfigError(f"bad value for key mode: {run['mode']!r} (choose from {RUN_MODES})")
    if run["seed"] < 0:
        raise ConfigError(f"bad value for key seed: {run['seed']} (must be >= 0)")
    if run["n_paths"] < 1:
        raise ConfigError(f"bad value for key n_paths: {run['n_paths']} (must be >= 1)")
    if run["refine_rounds"] < 2:
        raise ConfigError(
            f"bad value for key refine_rounds: {run['refine_rounds']} (must be >= 2)"
        )
    if abs(run["mc_q0"]) > params.q_bar:
        raise ConfigError(
            f"bad value for key mc_q0: {run['mc_q0']} (inventory cap is {params.q_bar})"
        )
    return RunConfig(
        params=params,
        spec=spec,
        mode=run["mode"],
        out_dir=Path(run["out_dir"]),
        seed=run["seed"],
        n_paths=run["n_paths"],
        refine_rounds=run["refine_rounds"],
        mc_y0=(run["mc_x0"], run["mc_s0"], run["mc_alpha0"], run["mc_q0"]),
    )


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _write_node_csv(path: Path, grid: Grid, header: str, *columns) -> None:
    """``header``, then one row per node in q-major order: alpha, q and the
    node's entry of each column of formatted strings."""
    cells = zip(map(_fmt, grid.alpha_of_node), map(str, grid.q_of_node), *columns, strict=True)
    path.write_text("\n".join([header, *map(",".join, cells)]) + "\n")


def write_value_csv(path: Path, grid: Grid, values: np.ndarray) -> None:
    _write_node_csv(path, grid, "alpha,q,v", map(_fmt, values))


def write_policy_csv(path: Path, grid: Grid, policy: Policy) -> None:
    _write_node_csv(path, grid, "alpha,q,la,lb,d,z",
                    *(map(str, col) for col in (policy.la, policy.lb, policy.d, policy.z)))


def _solve(cfg: RunConfig):
    sol = solve_backward(cfg.params, cfg.spec)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    value_path = cfg.out_dir / "value_t0.csv"
    policy_path = cfg.out_dir / "policy_t0.csv"
    write_value_csv(value_path, sol.grid, sol.surfaces[0].values)
    write_policy_csv(policy_path, sol.grid, sol.policies[0])
    log.info("wrote %s and %s", value_path, policy_path)
    return sol


def _run_solve(cfg: RunConfig) -> int:
    sol = _solve(cfg)
    v0 = sol.surfaces[0].values
    per_level = sol.metadata["per_level"]
    log.info(
        "solve done: %d levels, value range [%s, %s], %d sweeps, "
        "%d fallbacks, %d reused solves, %d switched nodes, wall %.2fs "
        "(improve %.2fs, load %.2fs, solve %.2fs)",
        len(sol.policies), _fmt(v0.min()), _fmt(v0.max()),
        sum(e["sweeps"] for e in per_level),
        sum(e["fallbacks"] for e in per_level),
        sum(e["reused_solves"] for e in per_level),
        sum(e["switched_nodes"] for e in per_level),
        sol.metadata["wall_time"],
        *(sol.metadata["phase_s"][phase] for phase in PHASES),
    )
    return 0


def _run_validate(cfg: RunConfig) -> int:
    sol = _solve(cfg)
    started = time.perf_counter()
    report = estimate_performance(
        cfg.params, sol, cfg.mc_y0, cfg.n_paths, cfg.seed
    )
    elapsed = time.perf_counter() - started
    log.info(
        "monte carlo: %d paths, mean %s, stderr %s, predicted %s, z %.3f, "
        "%.0f paths/s, chatter_capped %d",
        report.n_paths, _fmt(report.mean), _fmt(report.stderr),
        _fmt(report.predicted), report.zscore,
        report.n_paths / max(elapsed, 1e-9), report.chatter_capped,
    )
    if abs(report.zscore) > 3.0:
        log.error("validation failed: |z| = %.3f exceeds 3", abs(report.zscore))
        return 1
    log.info("validation passed: |z| = %.3f <= 3", abs(report.zscore))
    return 0


def _default_probes(cfg: RunConfig) -> tuple[list[float], list[int]]:
    grid = build_grid(cfg.params, cfg.spec)
    half_cap = cfg.params.alpha_cap / 2.0
    alphas = sorted({
        float(grid.alphas[grid.nearest_alpha_index(a)])
        for a in (-half_cap, 0.0, half_cap)
    })
    qs = sorted({-cfg.params.q_bar, 0, cfg.params.q_bar})
    return alphas, qs


def _run_refine(cfg: RunConfig) -> int:
    probe_alphas, probe_qs = _default_probes(cfg)
    result = refinement_table(
        cfg.params, cfg.spec, probe_alphas, probe_qs,
        rounds=cfg.refine_rounds,
    )
    header = ["round", "n_time_steps", "n_alpha_points"]
    header += [f"v(a={_fmt(a)},q={q})" for q in probe_qs for a in probe_alphas]
    print(",".join(header))
    for r, spec in enumerate(result.specs):
        cells = [str(r), str(spec.n_time_steps), str(spec.n_alpha_points)]
        cells += [_fmt(x) for x in result.values[r]]
        print(",".join(cells))
    for r in range(result.diffs.shape[0]):
        cells = [f"diff{r + 1}", "", ""] + [_fmt(x) for x in result.diffs[r]]
        print(",".join(cells))
    worst = result.max_diffs
    log.info("max successive differences per refinement: %s",
             ", ".join(_fmt(x) for x in worst))
    increased = (np.diff(result.diffs, axis=0) > 0).any()
    if increased:
        log.error("refinement differences are not monotonically decreasing")
        return 1
    log.info("refinement differences decrease monotonically")
    return 0


def _run_baseline(cfg: RunConfig) -> int:
    grid = build_grid(cfg.params, cfg.spec)
    factor = explicit_cfl_factor(cfg.params, grid)
    log.info("explicit CFL factor: %s (stable stepping needs <= 1)", _fmt(factor))
    try:
        explicit = solve_explicit_baseline(cfg.params, cfg.spec)
    except ExplicitInstabilityError as exc:
        log.info("explicit scheme unstable as expected: %s", exc)
        return 0
    log.info("explicit scheme stable; comparing against the implicit solve")
    implicit = solve_backward(cfg.params, cfg.spec)
    gap = float(
        np.max(np.abs(explicit.surfaces[0].values - implicit.surfaces[0].values))
    )
    log.info("max |explicit - implicit| at t=0: %s", _fmt(gap))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mmqvi",
        description="Market-making impulse control solver and validator.",
    )
    parser.add_argument("--config", type=Path, help="flat key = value config file")
    parser.add_argument("--mode", choices=RUN_MODES)
    parser.add_argument("--out", dest="out_dir", type=Path, help="output directory")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--paths", dest="n_paths", type=int, help="Monte Carlo path count")
    flags = vars(parser.parse_args(argv))
    config = flags.pop("config")

    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )

    try:
        raw: dict[str, str] = {}
        if config is not None:
            if not config.is_file():
                raise ConfigError(f"config file not found: {config}")
            raw = parse_config_text(config.read_text(), source=str(config))
        cfg = build_run_config(
            raw, {key: value for key, value in flags.items() if value is not None}
        )
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return 2

    runner = {
        "solve": _run_solve,
        "validate": _run_validate,
        "refine": _run_refine,
        "baseline": _run_baseline,
    }[cfg.mode]
    try:
        return runner(cfg)
    except (
        PolicyIterationError,
        VerificationError,
        SolveError,
        StabilityEnvelopeError,
        ExplicitInstabilityError,
    ) as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
