"""One benchmark process: set up or run one workload, then exit.

``run.py`` starts every set-up and every timed run as a fresh
interpreter through this script, so no in-process memo carries over
from one run to the next.  The last line of standard output is one
JSON object describing what happened.

    python3 perfbench/child.py setup --workload replay --input ref
    python3 perfbench/child.py run --workload replay \
        --digests perfbench/digests.json [--spans DIR]

Both modes read the environment ``run.py`` prepares:
``PYTHONPATH`` naming the source tree, ``REPRO_BACKEND`` and
``REPRO_TRACE_CACHE_DIR``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Optional, Tuple

#: The units of work of each workload, in the order they run.  A unit
#: is a catalogued sweep run locally, a registered experiment, or a
#: catalogued sweep posted to an embedded service.
WORKLOADS: Dict[str, Tuple[str, ...]] = {
    "replay": ("sweep:fig10", "sweep:fig14"),
    "characterize": (
        "experiment:fig1",
        "experiment:fig2",
        "experiment:fig4",
        "experiment:table1",
        "experiment:table2",
        "experiment:table3",
    ),
    "served": ("served:fig10",),
}

#: Workloads whose sweeps take a workload-input argument.  characterize
#: has none: table2 compares all three input scales by design.
INPUT_WORKLOADS = ("replay", "served")

#: The embedded service's worker count (the host's core count when the
#: benchmark was defined).
SERVICE_WORKERS = 2


def base_input(scale: str) -> str:
    return "test" if scale == "fast" else "ref"


def digest_key(unit: str, scale: str, input_name: str) -> str:
    """Where a unit's payload digest lives in ``digests.json``.

    A served sweep must produce the bytes of the local sweep, so both
    share one key.
    """
    kind, name = unit.split(":")
    if kind == "experiment":
        return f"{scale}/experiment:{name}"
    return f"{scale}/sweep:{name}@{input_name}"


def sweep_spec(name: str, scale: str, input_name: str) -> Dict:
    """The catalogued sweep ``name`` with its ``input`` axis set."""
    from repro.sweeps.catalog import get_sweep

    spec = get_sweep(name, fast=scale == "fast")
    spec["axes"]["input"] = [input_name]
    return spec


def traces_read(workload: str, scale: str, input_name: str) -> List[Tuple[str, str]]:
    """Every ``(workload, input)`` trace one run of ``workload`` reads."""
    from repro.experiments.common import FVL_NAMES
    from repro.workloads.registry import ALL_WORKLOADS

    if workload in INPUT_WORKLOADS:
        return [(name, input_name) for name in FVL_NAMES]
    base = base_input(scale)
    pairs = [(program.name, base) for program in ALL_WORKLOADS]
    # table2 compares the test and train inputs with the base one.
    for alt in ("test", "train"):
        if alt != base:
            pairs.extend((name, alt) for name in FVL_NAMES)
    return pairs


def peak_rss_mb() -> float:
    """Peak resident memory of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# Set-up -----------------------------------------------------------------

def start_service(workdir: str):
    """An embedded service as deployed: journal on, fsync on, fresh
    result-store and state directories; returns once healthz answers."""
    from pathlib import Path

    from repro.service.client import ServiceClient
    from repro.service.server import ReproService, ServiceConfig

    root = Path(tempfile.mkdtemp(prefix="service-", dir=workdir))
    service = ReproService(
        ServiceConfig(
            port=0,
            workers=SERVICE_WORKERS,
            store_dir=root / "store",
            state_dir=root / "state",
            journal_fsync=True,
        )
    ).start()
    client = ServiceClient(service.url, timeout=60.0)
    client.healthz()
    return service, client


def setup(args) -> Dict:
    """Synthesise and persist every trace the workload reads (the trace
    cache directory starts empty); for ``served``, also start the
    service until ``/v1/healthz`` answers."""
    from repro.workloads.store import shared_store

    for workload, input_name in traces_read(args.workload, args.scale, args.input):
        shared_store.get(workload, input_name)
    if args.workload == "served":
        service, _ = start_service(args.workdir)
        service.stop()
    return {}


# Timed run ---------------------------------------------------------------

def run_served(name: str, scale: str, input_name: str, workdir: str) -> Tuple[bytes, Dict]:
    """Post one sweep, wait for it and fetch its stored bytes through
    ``ServiceClient``; returns the bytes and the service's own view of
    the run (job timestamps and ``/v1/metrics``)."""
    service, client = start_service(workdir)
    try:
        view = client.submit_sweep(sweep_spec(name, scale, input_name))
        view = client.wait_sweep(view["sweep_id"], timeout=170.0, poll=0.05)
        body = client.result_bytes(view["result_key"])
        jobs = client.jobs()["jobs"]
        metrics = {
            key: entry.get("value", entry.get("count"))
            for key, entry in client.metrics()["metrics"].items()
        }
    finally:
        service.stop()
    return body, {"jobs": jobs, "metrics": metrics, "workers": SERVICE_WORKERS}


def run_unit(unit: str, args) -> Tuple[bytes, Optional[Dict]]:
    """Run one unit; returns its canonical payload bytes (and, for a
    served unit, the service's view of the run)."""
    from repro import api
    from repro.experiments.render import dumps_canonical

    kind, name = unit.split(":")
    fast = args.scale == "fast"
    if kind == "experiment":
        payload = api.run_experiment(name, fast=fast, jobs=1)
    elif kind == "sweep":
        payload = api.run_sweep(sweep_spec(name, args.scale, args.input), jobs=1).payload
    else:
        return run_served(name, args.scale, args.input, args.workdir)
    return dumps_canonical(payload).encode("utf-8"), None


def run(args) -> Dict:
    recorder = None
    if args.spans:
        from layers import Recorder

        recorder = Recorder()
        recorder.install()
        if args.workload == "served":
            recorder.capture_children(args.spans)
    expected = {}
    if args.digests:
        with open(args.digests, encoding="utf-8") as handle:
            expected = json.load(handle)["digests"]
    units = []
    service = None
    for unit in WORKLOADS[args.workload]:
        key = digest_key(unit, args.scale, args.input)
        started = time.perf_counter()
        record = {"unit": unit, "key": key}
        try:
            with recorder.timed("unit." + unit) if recorder else contextlib.nullcontext():
                body, view = run_unit(unit, args)
        except Exception:  # noqa: BLE001 - a failed unit is a counted error
            record.update(ok=False, error=traceback.format_exc(limit=3))
        else:
            record["sha256"] = hashlib.sha256(body).hexdigest()
            if args.digests:
                record["ok"] = record["sha256"] == expected.get(key)
            if view is not None:
                service = view
        record["seconds"] = time.perf_counter() - started
        units.append(record)
    if recorder is not None:
        recorder.write(os.path.join(args.spans, f"main-{os.getpid()}.jsonl"))
    return {"units": units, "service": service, "peak_rss_mb": peak_rss_mb()}


def fingerprint() -> Dict:
    from repro.kernels.backend import active_backend, numpy_or_none

    numpy = numpy_or_none()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__ if numpy is not None else None,
        "backend": active_backend(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--scale", default="full", choices=("full", "fast"))
    parser.add_argument("--input", default=None)
    parser.add_argument("--digests", default=None, help="digests.json to check against")
    parser.add_argument("--spans", default=None, help="directory for traced-run spans")
    parser.add_argument("--workdir", default=".", help="scratch for service state")
    args = parser.parse_args(argv)
    if args.input is None:
        args.input = base_input(args.scale)
    body = setup(args) if args.mode == "setup" else run(args)
    body["fingerprint"] = fingerprint()
    print(json.dumps(body, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
