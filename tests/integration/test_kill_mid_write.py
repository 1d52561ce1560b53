"""Kill-mid-write recovery: a writer SIGKILLed between its temp-file
write and its atomic rename must leave no partial entry behind — the
published store stays whole, readers see a plain miss, and maintenance
sweeps the temp debris.

The writer is parked deterministically on the ``*.publish`` injection
sites (``hang``), so the kill lands exactly inside the window the
atomic-rename discipline protects."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.engine.trace_cache import TraceCache
from repro.service.result_store import ResultStore

_SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def _spawn(script: str, args, faults: str, extra_env=None):
    env = dict(os.environ, PYTHONPATH=_SRC_DIR, REPRO_FAULTS=faults)
    env.update(extra_env or {})
    return subprocess.Popen(
        [sys.executable, "-c", script, *map(str, args)], env=env
    )


def _kill_once_parked(process, directory: Path, timeout: float = 120.0):
    """SIGKILL the writer once its temp file exists (i.e. it is parked
    between write and rename on the ``.publish`` hang)."""
    deadline = time.monotonic() + timeout
    while not list(directory.glob("*.tmp")):
        if process.poll() is not None:
            raise AssertionError(
                f"writer exited early (code {process.returncode})"
            )
        if time.monotonic() > deadline:
            process.kill()
            raise AssertionError("writer never reached its temp write")
        time.sleep(0.02)
    process.send_signal(signal.SIGKILL)
    process.wait(timeout=30)


class TestTraceCacheKill:
    def test_no_partial_entry_and_maintenance_sweeps(self, tmp_path):
        directory = tmp_path / "traces"
        directory.mkdir()
        script = (
            "import sys\n"
            "from repro.engine.trace_cache import TraceCache\n"
            "from repro.workloads.registry import get_workload\n"
            "trace = get_workload('go').generate_trace('test')\n"
            "TraceCache(sys.argv[1]).store(trace)\n"
        )
        process = _spawn(
            script,
            [directory],
            faults="trace_cache.write.publish:hang(300)@1",
        )
        _kill_once_parked(process, directory)

        # Nothing was published; the orphaned temp file is the only
        # debris, and a reader sees a plain miss.
        assert list(directory.glob("*.trcbe")) == []
        assert len(list(directory.glob("*.tmp"))) == 1
        cache = TraceCache(directory)
        assert cache.load("go", "test") is None

        # verify() sweeps the debris; a clean regeneration publishes.
        report = cache.verify()
        assert report["tmp_removed"] == 1
        assert len(cache.load_or_generate("go", "test")) > 0
        assert len(list(directory.glob("*.trcbe"))) == 1
        assert list(directory.glob("*.tmp")) == []


class TestResultStoreKill:
    def test_no_partial_payload_served_and_startup_sweeps(self, tmp_path):
        directory = tmp_path / "results"
        directory.mkdir()
        script = (
            "import sys\n"
            "from repro.service.result_store import ResultStore\n"
            "store = ResultStore(sys.argv[1], capacity=4)\n"
            "store.put('k1' * 8, b'{\"rows\": [1, 2, 3]}')\n"
        )
        process = _spawn(
            script,
            [directory],
            faults="result_store.write.publish:hang(300)@1",
        )
        _kill_once_parked(process, directory)

        assert list(directory.glob("*.json")) == []
        assert len(list(directory.glob("*.tmp"))) == 1

        # A restarting server sweeps the debris on construction and
        # serves a miss, never partial bytes.
        store = ResultStore(directory, capacity=4)
        assert list(directory.glob("*.tmp")) == []
        assert store.get("k1" * 8) is None

        # The payload can be re-put and then round-trips exactly.
        payload = b'{"rows": [1, 2, 3]}'
        assert store.put("k1" * 8, payload)
        assert store.get("k1" * 8) == payload
