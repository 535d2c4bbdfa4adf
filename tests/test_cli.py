"""Command-line driver: config parsing, CSV outputs, and run modes.

Run modes execute in-process through ``main(argv)`` on a deliberately tiny
grid so the whole file stays fast.  Three subprocess tests run the CLI end
to end in a fresh interpreter: one runs the ``[project.scripts]`` target that
``pyproject.toml`` declares for ``mmqvi`` the way a console-script wrapper
does, so it needs no installed package; one runs ``python -m mmqvi.cli``, the
route the README gives for a checkout; the last runs the generated ``mmqvi``
executable and is skipped when none is on ``PATH``.
"""

import logging
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

if sys.version_info >= (3, 11):
    import tomllib
else:
    import tomli as tomllib

import mmqvi
from mmqvi import GridSpec, PiterConfig, default_grid_spec, default_params
from mmqvi.cli import (
    RUN_DEFAULTS,
    RUN_KEYS,
    ConfigError,
    _fmt,
    build_run_config,
    main,
    parse_config_text,
    write_policy_csv,
    write_value_csv,
)

TINY_CONFIG = """\
# model
T = 1
sigma = 0.01
theta = 0.1
delta = 0.005
eps = 0.005
lambda_a = 1
lambda_b = 1
k = 20
rho = 1
gamma_a = 6
gamma_b = 6
phi = 1e-6
psi = 0
q_bar = 2
alpha_cap = 30

# grid
n_time_steps = 10
n_alpha_points = 9
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return path


# ---------------------------------------------------------------- parsing


def test_parse_config_skips_comments_and_blanks():
    raw = parse_config_text("# top\n\nT = 10  # trailing\n k = 200\n")
    assert raw == {"T": "10", "k": "200"}


@pytest.mark.parametrize(
    "text, message",
    [
        ("wat = 1", "cfg.txt:1: unknown key: wat"),
        ("T = 1\nT = 2", "cfg.txt:2: duplicate key: T"),
        ("T =", "cfg.txt:1: empty value for key: T"),
        ("T 10", "cfg.txt:1: expected key = value"),
    ],
)
def test_parse_config_errors_name_the_line(text, message):
    with pytest.raises(ConfigError) as exc_info:
        parse_config_text(text, source="cfg.txt")
    assert message in str(exc_info.value)


def test_empty_config_yields_the_reference_setup():
    cfg = build_run_config({}, {})
    assert cfg.params == default_params()
    assert cfg.spec == default_grid_spec()
    assert cfg.piter == PiterConfig()
    assert cfg.mode == "solve"
    assert cfg.extrapolation == "clamp"
    assert cfg.seed == 7
    assert cfg.n_paths == 10_000
    assert cfg.refine_rounds == 3
    assert cfg.mc_y0 == (0.0, 100.0, 0.0, 0)


def test_readme_settings_table_matches_the_run_defaults():
    # every row `key` | `default` of the run-settings table parses to the default
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\|\s*`(\w+)`\s*\|\s*`([^`]+)`", readme, flags=re.MULTILINE)
    assert {key: RUN_KEYS[key](value) for key, value in rows} == RUN_DEFAULTS


def test_partial_config_names_the_missing_key():
    with pytest.raises(ConfigError, match="missing required key: T"):
        build_run_config({"sigma": "0.01"}, {})


def test_overrides_beat_defaults():
    cfg = build_run_config({}, {"mode": "validate", "seed": 3, "n_paths": 12})
    assert cfg.mode == "validate"
    assert cfg.seed == 3
    assert cfg.n_paths == 12


def test_run_key_values_are_validated(tiny_config):
    raw = parse_config_text(tiny_config.read_text())
    with pytest.raises(ConfigError, match="mode"):
        build_run_config(raw, {"mode": "simulate"})
    with pytest.raises(ConfigError, match="n_paths"):
        build_run_config({**raw, "n_paths": "0"}, {})
    with pytest.raises(ConfigError, match="refine_rounds"):
        build_run_config({**raw, "refine_rounds": "1"}, {})
    with pytest.raises(ConfigError, match="mc_q0"):
        build_run_config({**raw, "mc_q0": "7"}, {})
    with pytest.raises(ConfigError, match="bad value for key k"):
        build_run_config({**raw, "k": "fast"}, {})
    with pytest.raises(ConfigError, match="piter_tol|tol"):
        build_run_config({**raw, "piter_tol": "-1"}, {})


def test_model_errors_surface_as_config_errors(tiny_config):
    raw = parse_config_text(tiny_config.read_text())
    with pytest.raises(ConfigError, match="sigma"):
        build_run_config({**raw, "sigma": "-1"}, {})
    with pytest.raises(ConfigError, match="n_alpha_points"):
        build_run_config({**raw, "n_alpha_points": "8"}, {})


# ----------------------------------------------------------------- output


def test_fmt_uses_twelve_significant_digits():
    assert _fmt(1.0 / 3.0) == "0.333333333333"
    assert _fmt(0.05) == "0.05"
    assert _fmt(-30.0) == "-30"


def test_csv_writers_order_and_shape(tmp_path, toy_grid, toy_params):
    values = np.arange(toy_grid.n_nodes, dtype=float) / 7.0
    vpath = tmp_path / "v.csv"
    write_value_csv(vpath, toy_grid, values)
    text = vpath.read_text()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == "alpha,q,v"
    assert len(lines) == 1 + toy_grid.n_nodes
    # q-major, alpha ascending within each block
    head = [line.split(",")[:2] for line in lines[1:]]
    expected = [
        [_fmt(a), str(q)] for q in toy_grid.qs for a in toy_grid.alphas
    ]
    assert head == expected
    assert lines[1].split(",")[2] == "0"
    assert lines[2].split(",")[2] == _fmt(1.0 / 7.0)

    from mmqvi import apply_caps

    m = toy_grid.n_nodes
    pol = apply_caps(
        toy_grid, np.ones(m), np.ones(m), np.ones(m), np.zeros(m)
    )
    ppath = tmp_path / "p.csv"
    write_policy_csv(ppath, toy_grid, pol)
    plines = ppath.read_text().splitlines()
    assert plines[0] == "alpha,q,la,lb,d,z"
    assert len(plines) == 1 + m
    assert plines[1] == "-1,-1,0,1,0,1"  # ask capped at q = -q_bar


# -------------------------------------------------------------- run modes


def test_solve_mode_writes_reproducible_csvs(tiny_config, tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["--config", str(tiny_config), "--out", str(out1)]) == 0
    assert (out1 / "value_t0.csv").is_file()
    assert (out1 / "policy_t0.csv").is_file()
    lines = (out1 / "value_t0.csv").read_text().splitlines()
    assert lines[0] == "alpha,q,v" and len(lines) == 1 + 9 * 5

    assert main(["--config", str(tiny_config), "--out", str(out2)]) == 0
    for name in ("value_t0.csv", "policy_t0.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_solve_mode_logs_the_solve_routes(tiny_config, tmp_path, caplog):
    with caplog.at_level(logging.INFO):
        assert main(["--config", str(tiny_config), "--out", str(tmp_path)]) == 0
    line = next(r.message for r in caplog.records if r.message.startswith("solve done"))
    counts = re.search(
        r"(\d+) sweeps, (\d+) fallbacks, (\d+) reused solves, (\d+) switched nodes", line
    )
    assert counts and int(counts[1]) >= 1 and int(counts[2]) == 0
    phases = re.search(
        r"wall ([\d.]+)s \(improve ([\d.]+)s, load ([\d.]+)s, solve ([\d.]+)s\)$", line
    )
    wall, *spent = map(float, phases.groups())
    assert sum(spent) <= wall + 0.03  # each figure is rounded to 0.01 s


def test_validate_mode_passes_on_the_tiny_model(tiny_config, tmp_path, caplog):
    argv = [
        "--config",
        str(tiny_config),
        "--mode",
        "validate",
        "--out",
        str(tmp_path),
        "--paths",
        "300",
        "--seed",
        "7",
    ]
    with caplog.at_level(logging.INFO):
        assert main(argv) == 0
    assert any("validation passed" in rec.message for rec in caplog.records)


def test_validate_mode_logs_replay_diagnostics(tiny_config, tmp_path, caplog):
    argv = ["--config", str(tiny_config), "--mode", "validate",
            "--out", str(tmp_path), "--paths", "50", "--seed", "7"]
    with caplog.at_level(logging.INFO):
        assert main(argv) == 0
    line = next(r.message for r in caplog.records if r.message.startswith("monte carlo"))
    assert "paths/s" in line and "chatter_capped 0" in line


def test_baseline_mode_reports_expected_instability(tiny_config, caplog):
    argv = ["--config", str(tiny_config), "--mode", "baseline"]
    with caplog.at_level(logging.INFO):
        assert main(argv) == 0
    assert any("unstable as expected" in rec.message for rec in caplog.records)


def test_refine_mode_emits_the_probe_table(tmp_path, capsys):
    # 17 alpha points resolve the half-cap probes well enough for the
    # successive differences to shrink at every probe
    cfg = tmp_path / "refine.cfg"
    cfg.write_text(
        TINY_CONFIG.replace("n_alpha_points = 9", "n_alpha_points = 17")
        + "refine_rounds = 2\n"
    )
    assert main(["--config", str(cfg), "--mode", "refine"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 3 + 2  # header, one row per grid, one per diff
    assert lines[0].startswith("round,n_time_steps,n_alpha_points,v(a=")
    assert lines[-1].startswith("diff2,")


def test_refine_mode_flags_nonmonotone_differences(tiny_config, caplog):
    # On the 9-point alpha grid the half-cap probes are under-resolved and a
    # successive difference grows, which the driver reports as a nonzero exit.
    with caplog.at_level(logging.ERROR):
        assert main(["--config", str(tiny_config), "--mode", "refine"]) == 1
    assert any("not monotonically" in rec.message for rec in caplog.records)


def test_missing_config_file_is_a_usage_error(tmp_path, caplog):
    with caplog.at_level(logging.ERROR):
        assert main(["--config", str(tmp_path / "nope.cfg")]) == 2
    assert any("not found" in rec.message for rec in caplog.records)


def test_config_missing_required_key_names_it(tmp_path, caplog):
    path = tmp_path / "broken.cfg"
    path.write_text(TINY_CONFIG.replace("T = 1\n", ""))
    with caplog.at_level(logging.ERROR):
        assert main(["--config", str(path)]) == 2
    assert any(
        "missing required key: T" in rec.message for rec in caplog.records
    )


@pytest.mark.parametrize("mode", ["solve", "validate", "refine", "baseline"])
def test_negative_seed_is_a_config_error_before_any_solve(
    tiny_config, tmp_path, caplog, mode
):
    # a negative seed once reached np.random.default_rng only after the
    # validate solve had written its CSVs, and died there with exit 1
    from_file = tmp_path / "seeded.cfg"
    from_file.write_text(TINY_CONFIG + "seed = -1\n")
    message = "bad value for key seed: -1 (must be >= 0)"
    for argv in (["--config", str(tiny_config), "--seed", "-1"],
                 ["--config", str(from_file)]):
        caplog.clear()
        with caplog.at_level(logging.ERROR):
            assert main(argv + ["--mode", mode, "--out", str(tmp_path / "out")]) == 2
        assert any(message in rec.message for rec in caplog.records)
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("phi", "nan"), ("sigma", "inf"), ("mc_alpha0", "nan")])
def test_non_finite_values_are_config_errors_before_any_solve(
    tmp_path, caplog, key, value
):
    # phi = nan once solved and left the envelope with exit 1; mc_alpha0 =
    # nan wrote both CSVs, then died in Solution.value_at with a traceback
    path = tmp_path / "non_finite.cfg"
    path.write_text(re.sub(rf"^{key} = .*\n", "", TINY_CONFIG, flags=re.MULTILINE)
                    + f"{key} = {value}\n")
    with caplog.at_level(logging.ERROR):
        assert main(["--config", str(path), "--mode", "validate",
                     "--out", str(tmp_path / "out")]) == 2
    message = f"bad value for key {key}: '{value}' (must be finite)"
    assert any(message in rec.message for rec in caplog.records)
    assert not (tmp_path / "out").exists()


def test_unknown_mode_flag_is_rejected_by_argparse():
    with pytest.raises(SystemExit) as exc_info:
        main(["--mode", "simulate"])
    assert exc_info.value.code == 2


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _declared_entry_point():
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "mmqvi" in scripts, f"{PYPROJECT} declares no mmqvi script"
    module, _, func = scripts["mmqvi"].partition(":")
    assert module and func, f"mmqvi target is not module:func: {module}:{func}"
    return module, func


def _run_cli(command, tiny_config, tmp_path):
    out = tmp_path / "cli-run"
    src = str(Path(mmqvi.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=src + (os.pathsep + inherited if inherited else ""),
    )
    proc = subprocess.run(
        [*command, "--config", str(tiny_config), "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, (
        f"{command} exited with {proc.returncode}; stderr:\n{proc.stderr}"
    )
    assert (out / "value_t0.csv").is_file()


def test_installed_entry_point_runs(tiny_config, tmp_path):
    module, func = _declared_entry_point()
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    _run_cli([sys.executable, "-c", wrapper], tiny_config, tmp_path)


def test_module_route_runs(tiny_config, tmp_path):
    _run_cli([sys.executable, "-m", "mmqvi.cli"], tiny_config, tmp_path)


@pytest.mark.skipif(
    shutil.which("mmqvi") is None, reason="no mmqvi executable on PATH"
)
def test_console_script_on_path_runs(tiny_config, tmp_path):
    _run_cli([shutil.which("mmqvi")], tiny_config, tmp_path)
