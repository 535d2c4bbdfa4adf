#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny problem size (about a minute).

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:

* with ``--trace 0`` and ``--trace 1`` the run exits 0, passes its checks,
  and reports exactly the end-to-end or per-layer metrics of BENCHMARK.json,
  each with its unit, both as ``metric`` lines and in the final JSON object,
  alongside the solve_s / mc_paths_per_s / failed_frac report lines;
* per-layer counts repeat exactly between two traced runs of one seed;
* a deliberately wrong reference surface makes the solves count as failed
  in ``failed_frac`` and the run exit 1;
* in a directory that holds only BENCHMARK.json and the benchmark files,
  the run exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "5",
           "--seconds", "0.3", "--trace", str(trace), "--scale", "tiny", *extra]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, done.stderr


def result_of(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == RESULT_KEYS, result.keys()
    return result


def check_metrics(lines: list[str], expected: list[dict]) -> dict:
    result = result_of(lines)
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"metrics {got} != {want}"
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            printed[name] = unit
            float(value)
    assert printed == want, f"metric lines {printed} != {want}"
    for key in ("info failed_frac ", "info solve_s "):
        assert any(line.startswith(key) for line in lines), key
    return result


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    for name in names:
        for trace, expected in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            code, lines, err = run(name, trace)
            assert code == 0, f"{name} trace={trace} exited {code}: {err}"
            result = check_metrics(lines, expected)
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            if name == "mc-replay":
                assert any(line.startswith("info mc_paths_per_s ") for line in lines)
            print(f"ok   {name} trace={trace}: {len(expected)} metrics, "
                  f"{result['attempted']} operations")

        counts = []
        for _ in range(2):
            _, lines, _ = run(name, 1)
            counts.append({n: m["value"] for n, m in result_of(lines)["metrics"].items()
                           if m["unit"] != "s"})
        assert counts[0] == counts[1], f"{name}: counts differ {counts}"
        print(f"ok   {name}: per-layer counts repeat")

    reference = json.loads((HERE / "reference.json").read_text())
    for entry in reference["tiny"].values():
        entry["values"] = [v + 1e-3 for v in entry["values"]]
    with tempfile.TemporaryDirectory() as tmp:
        wrong = Path(tmp) / "wrong.json"
        wrong.write_text(json.dumps(reference))
        for name in names:
            code, lines, _ = run(name, 0, "--reference", str(wrong))
            result = result_of(lines)
            assert code == 1 and not result["correct"], result
            frac = next(line for line in lines if line.startswith("info failed_frac "))
            solves = result["attempted"] if name != "mc-replay" else 1
            assert result["failed"] == solves, result
            print(f"ok   {name}: wrong reference counted, {frac}")

        bare = Path(tmp) / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = run(names[0], 0, cwd=bare)
        assert code != 0, "ran without the package sources"
        assert not (lines and lines[-1].startswith("{")), lines[-1]
        print(f"ok   without sources: exit {code}, no result")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
