"""Record the payload digests every benchmark run is checked against.

    python3 perfbench/record_digests.py

Runs each workload's units once with ``REPRO_BACKEND=python`` and once
with ``REPRO_BACKEND=numpy``, at full scale (the ``ref`` and the
held-out ``train`` input of the sweeps) and at the self-test's fast
scale, requires the two backends to agree byte for byte, and writes
the sha256 of each canonical payload to ``digests.json``.  The pure
Python backend makes this take several minutes.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List

from run import HERE, Bench, parse_args

#: (scale, workload, input arguments) of every recorded run; served
#: shares the replay sweep digests, since its bytes must be the same.
PLAN = (
    ("fast", "replay", []),
    ("fast", "characterize", []),
    ("full", "replay", ["--input", "ref"]),
    ("full", "replay", ["--input", "train"]),
    ("full", "characterize", []),
)
BACKENDS = ("python", "numpy")


def main() -> int:
    found: Dict[str, Dict[str, str]] = {}
    for scale, workload, input_args in PLAN:
        for backend in BACKENDS:
            args = parse_args([
                "--workload", workload, "--seed", "0", "--seconds", "0",
                "--scale", scale, "--backend", backend, *input_args,
            ])
            bench = Bench(args)
            cache = bench.workdir.parent / f"digests-cache-{scale}"
            _, report = bench.child("run", cache, timeout=3600.0)
            for unit in report["units"]:
                if "sha256" not in unit:
                    sys.stderr.write(f"{unit['unit']} failed:\n{unit['error']}\n")
                    return 1
                found.setdefault(unit["key"], {})[backend] = unit["sha256"]
                print(f"{backend:6} {unit['key']:40} {unit['sha256']}", flush=True)
    mismatched: List[str] = [
        key for key, shas in found.items() if len(set(shas.values())) != 1
    ]
    if mismatched:
        sys.stderr.write(f"backends disagree on: {', '.join(mismatched)}\n")
        return 1
    body = {
        "schema": "perfbench.digests/1",
        "backends": list(BACKENDS),
        "digests": {key: shas[BACKENDS[0]] for key, shas in sorted(found.items())},
    }
    (HERE / "digests.json").write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
