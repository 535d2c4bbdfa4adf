#!/usr/bin/env python3
"""Record the t = 0 reference surfaces that the benchmark checks solves against.

    python3 perfbench/make_reference.py

Solves every solve workload at both scales and writes ``reference.json``
next to this file: for each, the grid size, the SHA-256 digest of the
float64 surface, and the surface itself (q-major node order, exact floats).
Run it only when a change is meant to move the values, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs the src path above)


def main() -> int:
    out = {}
    for scale, catalogue in workloads.WORKLOADS.items():
        out[scale] = {}
        for w in catalogue.values():
            if w.kind != "solve":
                continue
            state = workloads.setup(w)
            sol = workloads.solve(state)
            out[scale][w.name] = {
                "n_time_steps": w.n_time_steps,
                "n_alpha_points": w.n_alpha_points,
                "sha256": workloads.surface_digest(sol),
                "values": sol.surfaces[0].values.tolist(),
            }
            print(f"{scale} {w.name}: {out[scale][w.name]['sha256']}")
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
