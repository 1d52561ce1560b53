"""Tests for the content-addressed on-disk trace cache."""

import pytest

from repro.common.integrity import read_enveloped
from repro.engine.trace_cache import (
    TRACE_CACHE_VERSION,
    TraceCache,
    default_cache_dir,
    default_trace_cache,
)
from repro.trace.io import trace_header_from_bytes
from repro.workloads.store import TraceStore


@pytest.fixture()
def cache(tmp_path) -> TraceCache:
    return TraceCache(tmp_path / "traces")


class TestContentAddressing:
    def test_key_is_stable_across_instances(self, tmp_path):
        a = TraceCache(tmp_path / "a")
        b = TraceCache(tmp_path / "b")
        assert a.key("gcc", "test") == b.key("gcc", "test")

    def test_key_separates_workloads_and_inputs(self, cache):
        keys = {
            cache.key("gcc", "test"),
            cache.key("gcc", "ref"),
            cache.key("go", "test"),
        }
        assert len(keys) == 3

    def test_path_embeds_workload_input_and_digest(self, cache):
        path = cache.path_for("gcc", "test")
        assert path.parent == cache.directory
        assert path.name.startswith("gcc-test-")
        assert path.name.endswith(".trcbe")
        assert cache.key("gcc", "test") in path.name

    def test_version_is_part_of_the_address(self, cache, monkeypatch):
        before = cache.key("gcc", "test")
        monkeypatch.setattr(
            "repro.engine.trace_cache.TRACE_CACHE_VERSION",
            TRACE_CACHE_VERSION + 1,
        )
        assert cache.key("gcc", "test") != before


class TestLayers:
    def test_first_get_synthesises_and_persists(self, cache):
        trace = cache.load_or_generate("go", "test")
        assert len(trace) > 0
        assert cache.stats() == {
            "disk_hits": 0,
            "synthesised": 1,
            "stores": 1,
            "corrupt_quarantined": 0,
        }
        assert cache.path_for("go", "test").exists()

    def test_second_get_hits_the_memo(self, cache):
        # The in-process layer is the TraceStore LRU in front of the
        # cache: a second get neither reads the disk nor synthesises.
        store = TraceStore(disk_cache=cache)
        first = store.get("go", "test")
        second = store.get("go", "test")
        assert second is first
        assert cache.synthesised == 1
        assert cache.disk_hits == 0

    def test_fresh_process_hits_the_disk(self, cache):
        original = cache.load_or_generate("go", "test")
        fresh = TraceCache(cache.directory)  # simulates a new process
        loaded = fresh.load_or_generate("go", "test")
        assert loaded == original
        assert loaded.workload == "go"
        assert loaded.instruction_count == original.instruction_count
        # The entry decodes straight into the columns.
        assert loaded._records is None
        assert fresh.stats() == {
            "disk_hits": 1,
            "synthesised": 0,
            "stores": 0,
            "corrupt_quarantined": 0,
        }

    def test_corrupt_entry_is_quarantined_and_regenerated(self, cache):
        import struct
        import zlib

        from repro.common.integrity import wrap
        from repro.trace.io import columnar_layout, trace_to_bytes

        original = cache.load_or_generate("go", "test")
        # A well-formed entry (valid envelope and column checksums)
        # whose op column holds a 2 is not a trace either.
        data = bytearray(trace_to_bytes(original))
        ops_offset, _, _, _ = columnar_layout(len(original), len(b"go"), len(b"test"))
        data[ops_offset] = 2
        ops = bytes(data[ops_offset : ops_offset + len(original)])
        struct.pack_into("<I", data, 28, zlib.crc32(ops))
        out_of_domain = wrap(zlib.compress(bytes(data), 6))
        path = cache.path_for("go", "test")
        for poison in (b"not a trace file", out_of_domain):
            path.write_bytes(poison)
            fresh = TraceCache(cache.directory)
            trace = fresh.load("go", "test")
            assert trace is None
            # The poisoned entry was moved aside, not served and not lost.
            assert not path.exists()
            assert path.with_name(path.name + ".corrupt").exists()
            assert fresh.corrupt_quarantined == 1
            assert fresh.load_or_generate("go", "test") == original
            assert fresh.synthesised == 1

    def test_entries_and_clear(self, cache):
        cache.load_or_generate("go", "test")
        cache.load_or_generate("compress", "test")
        entries = cache.entries()
        assert {(w, i) for _, w, i, _ in entries} == {
            ("go", "test"),
            ("compress", "test"),
        }
        import zlib

        for path, _, _, count in entries:
            payload = zlib.decompress(read_enveloped(path))
            version, workload, _, header_count, _ = trace_header_from_bytes(
                payload
            )
            assert version == 3
            assert header_count == count
        assert cache.clear() == 2
        assert cache.entries() == []

    def test_ensure_creates_the_entry(self, cache):
        path = cache.ensure("go", "test")
        assert path.exists()
        # Already present: no further synthesis.
        cache.ensure("go", "test")
        assert cache.synthesised == 1


class TestEnvironment:
    def test_default_dir_honours_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path / "here"))
        assert default_cache_dir() == tmp_path / "here"

    def test_default_dir_falls_back_to_xdg(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_TRACE_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert (
            default_cache_dir() == tmp_path / "xdg" / "repro-fvc" / "traces"
        )

    @pytest.mark.parametrize("value", ["off", "0", "no", "false", "OFF"])
    def test_opt_out(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TRACE_CACHE", value)
        assert default_trace_cache() is None

    def test_enabled_by_default(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
        monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path))
        cache = default_trace_cache()
        assert isinstance(cache, TraceCache)
        assert cache.directory == tmp_path


class TestStoreIntegration:
    def test_back_to_back_runs_synthesise_once(self, cache):
        """Two 'experiment processes' sharing the machine cache: the
        second run never synthesises, it deserialises."""
        for name in ("go", "compress"):
            TraceStore(disk_cache=cache).get(name, "test")
        assert cache.synthesised == 2

        fresh = TraceCache(cache.directory)
        for name in ("go", "compress"):
            TraceStore(disk_cache=fresh).get(name, "test")
        assert fresh.synthesised == 0
        assert fresh.disk_hits == 2

    def test_store_falls_back_to_disk_after_lru_eviction(self, cache):
        store = TraceStore(max_traces=1, disk_cache=cache)
        store.get("go", "test")
        store.get("compress", "test")  # evicts go from the LRU
        store.get("go", "test")  # must come back from disk, not synthesis
        assert cache.synthesised == 2
        assert cache.disk_hits == 1


# Concurrent-writer regression support: module level so child
# processes can run it under any multiprocessing start method.
def _concurrent_store_worker(directory, barrier, errors):
    try:
        from repro.workloads.registry import get_workload

        trace = get_workload("go").generate_trace("test")
        cache = TraceCache(directory)
        barrier.wait(timeout=30)  # maximise write overlap
        cache.store(trace)
    except BaseException as exc:  # pragma: no cover - failure reporting
        errors.put(f"{type(exc).__name__}: {exc}")


class TestConcurrentWriters:
    """Two processes materialising the same (workload, input) entry
    must not corrupt it: stores go through a private temp file and one
    atomic ``os.replace`` each, so the last completed write wins whole.
    """

    def test_two_processes_store_same_entry(self, tmp_path):
        import multiprocessing

        ctx = multiprocessing.get_context()
        directory = tmp_path / "traces"
        barrier = ctx.Barrier(2)
        errors = ctx.Queue()
        workers = [
            ctx.Process(
                target=_concurrent_store_worker,
                args=(directory, barrier, errors),
            )
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0
        assert errors.empty()
        # The entry is whole: loadable, equal to a fresh synthesis.
        cache = TraceCache(directory)
        loaded = cache.load("go", "test")
        assert loaded is not None
        from repro.workloads.registry import get_workload

        assert loaded == get_workload("go").generate_trace("test")
        # Exactly one entry, no temp debris.
        assert len(list(directory.glob("*.trcbe"))) == 1
        assert list(directory.glob("*.tmp")) == []

    def test_store_uses_private_temp_and_atomic_replace(
        self, cache, monkeypatch
    ):
        """The atomic-rename contract itself: payload is written to a
        mkstemp-private file and lands via a single os.replace (the
        publication step lives in repro.common.integrity now)."""
        trace = cache.load_or_generate("go", "test")
        calls = []
        real_replace = __import__("os").replace

        def spying_replace(src, dst):
            calls.append((str(src), str(dst)))
            return real_replace(src, dst)

        monkeypatch.setattr(
            "repro.common.integrity.os.replace", spying_replace
        )
        final = cache.store(trace)
        assert len(calls) == 1
        src, dst = calls[0]
        assert dst == str(final)
        assert src != dst
        assert src.endswith(".tmp")
        assert str(cache.directory) in src  # same fs: rename is atomic
        assert list(cache.directory.glob("*.tmp")) == []

    def test_loser_overwrite_keeps_entry_valid(self, cache, monkeypatch):
        """Deterministic interleaving: writer B completes fully while
        writer A sits between its temp write and its rename; A's
        replace then lands over B's entry — and the entry stays whole
        because A replaces a complete file with a complete file."""
        trace = cache.load_or_generate("go", "test")
        real_replace = __import__("os").replace
        state = {"interleaved": False}

        def racing_replace(src, dst):
            if not state["interleaved"]:
                state["interleaved"] = True
                TraceCache(cache.directory).store(trace)  # B wins first
            return real_replace(src, dst)

        monkeypatch.setattr(
            "repro.common.integrity.os.replace", racing_replace
        )
        cache.store(trace)  # A
        monkeypatch.undo()
        assert state["interleaved"]
        fresh = TraceCache(cache.directory)
        loaded = fresh.load("go", "test")
        assert loaded == trace
        assert list(cache.directory.glob("*.tmp")) == []
