"""Paper-scale benchmark of the FVC reproduction: one workload per call.

    python3 perfbench/run.py --workload replay --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics: the time of a fresh
set-up, then the wall time of timed runs (each a
fresh interpreter over the warm trace cache) repeated until
``--seconds`` of them have been measured.  ``--trace 1`` prints the
per-layer metrics of one traced run, and its overhead against the
untraced runs made beside it.  Every payload is checked against the
committed full-scale digests (``digests.json``); a mismatch or an
exception is a failed operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it carries the host fingerprint.  See README.md beside this file for
the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from child import INPUT_WORKLOADS, WORKLOADS  # noqa: E402
from layers import UNITS as LAYER_UNITS  # noqa: E402
from layers import layer_metrics, percentile, read_spans  # noqa: E402

#: Fresh set-ups per run; ``setup_s`` is their median.  One keeps a
#: benchmark evaluation (70 runs of the three workloads) near 2500 s on
#: a two-core host; two set-ups would take it to about 3000 s.
SETUP_REPEATS = 1
#: Hard limit on one child process (the whole run must end in 180 s).
CHILD_TIMEOUT = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

CHARACTERIZE_IDS = [unit.split(":")[1] for unit in WORKLOADS["characterize"]]

SERVICE_UNITS = {
    "service.job_p50_s": "s",
    "service.job_p75_s": "s",
    "service.queue_wait_p50_s": "s",
    "service.job_run_p50_s": "s",
    "service.worker_busy_ratio": "ratio",
    "service.http_requests": "count",
    "service.http_p50_ms": "ms",
    "service.journal_records": "count",
    "service.result_store_stores": "count",
    "service.retries": "count",
}

PER_LAYER_UNITS = dict(LAYER_UNITS)
PER_LAYER_UNITS.update({f"experiments.{eid}_s": "s" for eid in CHARACTERIZE_IDS})
PER_LAYER_UNITS.update(SERVICE_UNITS)
PER_LAYER_UNITS["trace_overhead_pct"] = "%"


class Bench:
    """One benchmark invocation: its scratch directory, child
    environment and the operations it has checked."""

    def __init__(self, args) -> None:
        self.args = args
        self.workdir = ROOT / ".bench_build" / "perfbench" / (
            f"{args.workload}-{args.input}-seed{args.seed}-trace{args.trace}"
        )
        shutil.rmtree(self.workdir, ignore_errors=True)
        (self.workdir / "tmp").mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.fingerprint: Dict = {}

    def env(self, cache: Path, obs_trace: Optional[Path] = None) -> Dict[str, str]:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        env["REPRO_BACKEND"] = self.args.backend
        env["REPRO_TRACE_CACHE_DIR"] = str(cache)
        if obs_trace is not None:
            env["REPRO_OBS_TRACE"] = str(obs_trace)
        return env

    def child(self, mode: str, cache: Path, *extra: str,
              obs_trace: Optional[Path] = None,
              timeout: float = CHILD_TIMEOUT) -> Tuple[float, Dict]:
        """Run one fresh child interpreter; returns its wall time (from
        process start to exit) and its JSON report."""
        a = self.args
        command = [
            sys.executable, str(HERE / "child.py"), mode,
            "--workload", a.workload, "--scale", a.scale, "--input", a.input,
            "--workdir", str(self.workdir / "tmp"), *extra,
        ]
        started = time.perf_counter()
        # A session of its own, so that a timeout also reaches the
        # service's job children.
        process = subprocess.Popen(
            command, cwd=str(ROOT), env=self.env(cache, obs_trace),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            stdout, stderr = process.communicate(timeout=timeout)
        finally:
            if process.poll() is None:  # timed out, or this run was stopped
                os.killpg(process.pid, signal.SIGKILL)
                process.communicate()
        wall = time.perf_counter() - started
        if process.returncode != 0:
            sys.stderr.write(stderr)
            raise RuntimeError(f"child {mode} exited with {process.returncode}")
        report = json.loads(stdout.strip().splitlines()[-1])
        self.fingerprint.update(report.pop("fingerprint"))
        return wall, report

    def setup(self, index: int) -> Tuple[float, Path]:
        """One fresh set-up into an empty trace-cache directory."""
        cache = self.workdir / "tmp" / f"cache-{index}"
        wall, _ = self.child("setup", cache)
        return wall, cache

    def timed_runs(self, cache: Path) -> List[Tuple[float, Dict]]:
        """Untraced runs over a warm cache until ``--seconds`` of them
        have been measured (at least one)."""
        runs: List[Tuple[float, Dict]] = []
        entries = len(list(cache.iterdir()))
        while not runs or sum(wall for wall, _ in runs) < self.args.seconds:
            runs.append(self.run_once(cache))
        self.fingerprint["trace_cache"] = (
            "warm" if len(list(cache.iterdir())) == entries else "cold"
        )
        return runs

    def run_once(self, cache: Path, spans: Optional[Path] = None,
                 obs_trace: Optional[Path] = None) -> Tuple[float, Dict]:
        extra = ["--digests", str(HERE / "digests.json")]
        if spans is not None:
            extra += ["--spans", str(spans)]
        wall, report = self.child("run", cache, *extra, obs_trace=obs_trace)
        attempted, failed = tally(report)
        self.attempted += attempted
        self.failed += failed
        return wall, report


def tally(report: Dict) -> Tuple[int, int]:
    """``(attempted, failed)`` operations of one run: every unit
    payload, plus every served cell job.  An exception, a digest
    mismatch, or a served job that failed or was shed is a failure."""
    attempted = failed = 0
    for unit in report["units"]:
        attempted += 1
        if not unit.get("ok"):
            failed += 1
            sys.stderr.write(
                f"FAILED {unit['unit']}: {unit.get('error') or 'digest mismatch'}\n"
            )
    service = report.get("service")
    if service is not None:
        cells = [job for job in service["jobs"] if job["spec"].get("type") == "cell"]
        attempted += len(cells)
        failed += sum(1 for job in cells if job["state"] != "done")
        failed += int(service["metrics"].get("jobs_shed_total") or 0)
    return attempted, failed


def end_to_end(bench: Bench) -> Dict[str, float]:
    setups = [bench.setup(index) for index in range(SETUP_REPEATS)]
    runs = bench.timed_runs(setups[-1][1])
    return {
        "setup_s": statistics.median(wall for wall, _ in setups),
        "wall_s": statistics.median(wall for wall, _ in runs),
        "peak_rss_mb": max(report["peak_rss_mb"] for _, report in runs),
    }


def service_metrics(report: Dict, wall: float, obs_trace: Path) -> Dict[str, float]:
    """The service layer's numbers from its public sources: job
    timestamps, ``/v1/metrics`` and the ``server.request`` spans the
    program writes under ``REPRO_OBS_TRACE``."""
    service = report.get("service")
    if service is None:
        return {name: 0.0 for name in SERVICE_UNITS}
    jobs = [
        job for job in service["jobs"]
        if job["spec"].get("type") == "cell" and job["finished"] is not None
    ]
    latency = [job["finished"] - job["created"] for job in jobs]
    run = [job["finished"] - job["started"] for job in jobs]
    metrics = service["metrics"]
    requests_ms = []
    if obs_trace.exists():
        for line in obs_trace.read_text(encoding="utf-8").splitlines():
            span = json.loads(line)
            if span["name"] == "server.request":
                requests_ms.append(span["duration_us"] / 1000.0)
    return {
        "service.job_p50_s": statistics.median(latency),
        "service.job_p75_s": percentile(latency, 75),
        "service.queue_wait_p50_s": statistics.median(
            job["started"] - job["created"] for job in jobs
        ),
        "service.job_run_p50_s": statistics.median(run),
        "service.worker_busy_ratio": sum(run) / (service["workers"] * wall),
        "service.http_requests": metrics.get("server_requests_total") or 0,
        "service.http_p50_ms": statistics.median(requests_ms) if requests_ms else 0.0,
        "service.journal_records": metrics.get("journal_records_total") or 0,
        "service.result_store_stores": metrics.get("result_store_stores_total") or 0,
        "service.retries": metrics.get("jobs_retried_total") or 0,
    }


def per_layer(bench: Bench) -> Dict[str, float]:
    _, cache = bench.setup(0)
    untraced = bench.timed_runs(cache)
    spans_dir = bench.workdir / "spans"
    spans_dir.mkdir()
    obs_trace = bench.workdir / "obs-spans.jsonl"
    wall, report = bench.run_once(cache, spans=spans_dir, obs_trace=obs_trace)
    spans = read_spans(sorted(str(path) for path in spans_dir.iterdir()))
    metrics = layer_metrics(spans)
    for eid in CHARACTERIZE_IDS:
        metrics[f"experiments.{eid}_s"] = sum(
            span["dur"] for span in spans if span["name"] == f"unit.experiment:{eid}"
        )
    metrics.update(service_metrics(report, wall, obs_trace))
    baseline = statistics.median(w for w, _ in untraced)
    metrics["trace_overhead_pct"] = (wall / baseline - 1.0) * 100.0
    return metrics


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None  # an exported source tree, not a git checkout
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True
    )
    return done.stdout.strip() or None


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="recorded only: the workloads are fixed paper-scale studies")
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed-run seconds to measure (at least one run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--input", default=None, choices=("ref", "train"),
                        help="workload input of replay/served sweeps (default ref); "
                             "train is the held-out input")
    parser.add_argument("--scale", default="full", choices=("full", "fast"),
                        help="fast: catalog fast specs and test inputs (self-test)")
    parser.add_argument("--backend", default="numpy", choices=("numpy", "python"))
    args = parser.parse_args(argv)
    if args.input is not None and args.workload not in INPUT_WORKLOADS:
        parser.error(f"--input does not apply to {args.workload}")
    if args.scale == "fast":
        if args.input is not None:
            parser.error("--input applies to --scale full only")
        args.input = "test"
    elif args.input is None:
        args.input = "ref"
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    # Unwind through Bench.child's cleanup, which stops the child's session.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no source tree at {ROOT / 'src'}\n")
        return 2
    bench = Bench(args)
    if args.trace:
        metrics, units = per_layer(bench), PER_LAYER_UNITS
    else:
        metrics, units = end_to_end(bench), END_TO_END_UNITS
    shutil.rmtree(bench.workdir / "tmp")
    bench.fingerprint.update(
        git_commit=git_commit(), workload=args.workload, input=args.input,
        scale=args.scale, seed=args.seed,
    )
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    (bench.workdir / "result.json").write_text(
        json.dumps({"fingerprint": bench.fingerprint, **result}, indent=2, sort_keys=True)
    )
    print(json.dumps({"fingerprint": bench.fingerprint}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
