#!/usr/bin/env python3
"""Benchmark of the mmqvi solver and its Monte Carlo replay.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ref-solve --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for why each was chosen): ``ref-solve``,
``fine-solve`` and ``mc-replay``.  The package is imported from ``src/`` of
the checkout; nothing is installed.  All timed work runs in this one process
with BLAS pinned to one thread.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s`` - process start to the first timed operation: ``import mmqvi``,
  params, grid and stencils, and on mc-replay the solve whose policy is
  replayed.  Measured in fresh child processes run one after another; the
  median of several is reported.
* ``op_s`` - median wall time of one timed operation: one ``solve_backward``
  on the solve workloads, one ``estimate_performance`` of a fixed path count
  on mc-replay.  Operations repeat until ``--seconds`` have passed.
* ``peak_rss_mb`` - peak resident memory of this process.

The report lines above the result also give ``solve_s`` (median, tail and
sample count), ``mc_paths_per_s``, ``failed_frac`` and the digest of the t = 0
surface.  An operation fails when it raises or when its output check fails;
checks are in ``workloads.py``.

``--trace 1`` reports the per-layer metrics of ``tracing.py``: operations
alternate between untraced and traced, and ``trace.overhead_s`` is the
difference of the two medians.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every operation passed its check, 1 when one failed, and 2 when the
package sources are missing.  ``--scale tiny`` and ``--reference`` exist for
``selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Fresh-process set-ups per run; the median is reported.
SETUP_SAMPLES = {"solve": 5, "replay": 3}
PROBE_TIMEOUT_S = 60

END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--reference", type=Path, default=HERE / "reference.json")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def probe_setup(args) -> int:
    """Child process: set up, then print the monotonic clock at ready."""
    import workloads

    workloads.setup(workloads.WORKLOADS[args.scale][args.workload])
    print(repr(time.monotonic()))
    return 0


def measure_setup(args, n: int) -> list[float]:
    """Set-up time of ``n`` fresh processes, spawned one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--scale", args.scale,
           "--seed", str(args.seed), "--seconds", "0"]
    out = []
    for _ in range(n):
        spawned = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S)
        out.append(float(done.stdout.strip().splitlines()[-1]) - spawned)
    return out


class Run:
    """Counts attempted and failed operations and keeps their wall times."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: set[str] = set()

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems))

    def loop(self, ops, check, seconds: float) -> list[list[float]]:
        """Run ``ops`` in turn until ``seconds`` have passed; wall time of each.

        Every op runs at least once and the last round is completed, so each
        gets the same share of the run.  ``check`` maps an output to the
        list of its problems.
        """
        times = [[] for _ in ops]
        started = time.perf_counter()
        done = 0
        while done % len(ops) or not done or time.perf_counter() - started < seconds:
            t0 = time.perf_counter()
            try:
                out = ops[done % len(ops)]()
            except Exception as exc:  # an operation that raises counts as failed
                self.record([f"{type(exc).__name__}: {exc}"])
                continue
            finally:
                times[done % len(ops)].append(time.perf_counter() - t0)
                done += 1
            self.record(check(out))
        return times


def tail_label(times: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it, else the max."""
    n = len(times)
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        return f"p{pct}", statistics.quantiles(times, n=100)[pct - 1]
    return "max", max(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "mmqvi" / "__init__.py").is_file():
        print(f"mmqvi sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.probe_setup:
        return probe_setup(args)

    import tracing
    import workloads

    catalogue = workloads.WORKLOADS[args.scale]
    if args.workload not in catalogue:
        print(f"unknown workload {args.workload!r}; one of {sorted(catalogue)}",
              file=sys.stderr)
        return 2
    w = catalogue[args.workload]
    reference = json.loads(args.reference.read_text())[args.scale][w.reference]

    print(f"# mmqvi benchmark workload={w.name} scale={args.scale} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))

    setup_samples = []
    if not args.trace:
        setup_samples = measure_setup(args, SETUP_SAMPLES[w.kind])

    run = Run()
    tracer = tracing.Tracer()
    if args.trace:
        with tracer.installed(), tracer.span(tracing.SETUP_SPAN):
            state = workloads.setup(w)
    else:
        state = workloads.setup(w)

    def check_solution(sol):
        run.digests.add(workloads.surface_digest(sol))
        return workloads.check_solution(sol, reference)

    if w.kind == "solve":
        def op():
            return workloads.solve(state)
        check = check_solution
    else:
        run.record(check_solution(state.solution))
        first = []

        def op():
            return workloads.replay(state, args.seed)

        def check_report(report):
            problems = workloads.check_report(report, w.n_paths)
            first.append(report.mean)
            if report.mean != first[0]:
                problems.append("replay of the same seed changed its mean")
            return problems
        check = check_report

    if args.trace:
        def traced_op():
            with tracer.installed():
                return op()

        # Alternating the two keeps slow drift of the machine out of the gap.
        plain, traced = run.loop([op, traced_op], check, args.seconds)
        mc_counts = workloads.path_counts(state, args.seed) if w.kind == "replay" else None
        values = tracing.layer_metrics(tracer.spans, mc_counts)
        overhead = statistics.median(traced) - statistics.median(plain)
        values["trace.overhead_s"] = overhead
        print(f"info tracing overhead {overhead:.4f} s per operation, "
              f"{100 * overhead / statistics.median(plain):.2f}% of the untraced "
              f"median (traced n={len(traced)}, untraced n={len(plain)})")
        units = tracing.LAYER_METRICS
        times = plain
    else:
        [times] = run.loop([op], check, args.seconds)
        values = {
            "setup_s": statistics.median(setup_samples),
            "op_s": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        print(f"info setup_s samples {' '.join(f'{s:.4f}' for s in setup_samples)}")

    print(f"info op_s samples {' '.join(f'{t:.4f}' for t in times)}")
    tail, tail_value = tail_label(times)
    if w.kind == "solve":
        print(f"info solve_s median {statistics.median(times):.4f} s, "
              f"{tail} {tail_value:.4f} s, n={len(times)}")
    else:
        print(f"info solve_s {state.solve_s:.4f} s (the set-up solve), n=1")
        print(f"info mc_paths_per_s {w.n_paths / statistics.median(times):.1f} 1/s "
              f"(replay median {statistics.median(times):.4f} s, {tail} "
              f"{tail_value:.4f} s, n={len(times)})")
    print(f"info failed_frac {len(run.failures) / run.attempted:.4f} "
          f"({len(run.failures)}/{run.attempted})")
    print(f"info surface_t0_sha256 {' '.join(sorted(run.digests))}")
    for msg in run.failures[:5]:
        print(f"fail {msg}")
    for name, value in values.items():
        print(f"metric {name} {value!r} {units[name]}")

    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
