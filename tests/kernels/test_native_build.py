"""Building, caching and falling back from the native replay core.

The core is compiled on first use into a content-addressed cache; a
missing compiler or a failed build must leave every cell on the oracle
with unchanged bytes, concurrent builders must publish one loadable
library, and a corrupt cached library must be rebuilt, never loaded.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.analysis import sanitize
from repro.api import run_experiment
from repro.experiments.render import dumps_canonical
from repro.kernels import backend, native
from repro.obs import tracing

pytestmark = pytest.mark.skipif(
    not backend.numpy_available(), reason="the fast path needs numpy"
)

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty library cache and a process that has loaded nothing."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setenv(backend.ENV_VAR, "numpy")
    monkeypatch.delenv(sanitize.ENV_VAR, raising=False)
    native.reset()
    yield native.cache_dir()
    native.reset()


@pytest.fixture
def compiler():
    if native.find_compiler() is None:
        pytest.skip("no C compiler on PATH")


@pytest.fixture
def no_compiler(fresh_cache, monkeypatch):
    monkeypatch.setattr(native, "find_compiler", lambda: None)
    return fresh_cache


def _library(directory):
    return directory / native.library_name(native.SOURCE.read_bytes())


def _cell_spans(path):
    with open(path, encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle if line.strip()]
    return [span for span in spans if span["name"] == "engine.cell"]


class TestFallback:
    def test_no_compiler_replays_the_oracle(self, no_compiler):
        assert native.load() == (None, "no_compiler")
        assert not no_compiler.exists()

    def test_payloads_byte_identical_without_compiler(
        self, no_compiler, monkeypatch
    ):
        fallback = dumps_canonical(run_experiment("fig14", fast=True))
        monkeypatch.setenv(backend.ENV_VAR, "python")
        oracle = dumps_canonical(run_experiment("fig14", fast=True))
        assert fallback == oracle

    def test_cell_span_names_the_decline(self, no_compiler, tmp_path, monkeypatch):
        from repro.engine.cells import SimCell, run_cell

        trace_file = tmp_path / "spans.jsonl"
        monkeypatch.setenv(tracing.ENV_VAR, str(trace_file))
        tracing.reset()
        try:
            for kind in ("baseline", "fvc", "classify"):
                run_cell(SimCell(workload="go", input_name="test", kind=kind))
        finally:
            tracing.reset()
        spans = _cell_spans(trace_file)
        assert len(spans) == 3
        for span in spans:
            assert span["attrs"]["path"] == "oracle"
            assert span["attrs"]["decline_reason"] == "no_compiler"

    def test_failed_build_replays_the_oracle(self, fresh_cache, compiler, tmp_path, monkeypatch):
        broken = tmp_path / "replay.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(native, "SOURCE", broken)
        assert native.load() == (None, "build_failed")
        assert not any(fresh_cache.glob("*.so"))


class TestSpans:
    def test_native_cells_and_sanitized_cells(self, fresh_cache, compiler, tmp_path, monkeypatch):
        from repro.engine.cells import SimCell, run_cell

        trace_file = tmp_path / "spans.jsonl"
        monkeypatch.setenv(tracing.ENV_VAR, str(trace_file))
        tracing.reset()
        try:
            for kind in ("baseline", "fvc", "classify"):
                run_cell(SimCell(workload="go", input_name="test", kind=kind))
            monkeypatch.setenv(sanitize.ENV_VAR, "1")
            run_cell(SimCell(workload="go", input_name="test", kind="fvc", ways=2))
        finally:
            tracing.reset()
        spans = _cell_spans(trace_file)
        assert [span["attrs"]["path"] for span in spans] == [
            "native", "native", "native", "oracle",
        ]
        assert [span["attrs"].get("decline_reason") for span in spans] == [
            None, None, None, "sanitize",
        ]


class TestCache:
    def test_first_load_builds_and_publishes(self, fresh_cache, compiler):
        core, reason = native.load()
        assert core is not None and reason is None
        library = _library(fresh_cache)
        digest = hashlib.sha256(library.read_bytes()).hexdigest()
        assert library.with_suffix(".sha256").read_text().strip() == digest
        assert sorted(p.name for p in fresh_cache.iterdir()) == [
            library.with_suffix(".sha256").name, library.name,
        ]

    def test_concurrent_builders_publish_one_library(self, fresh_cache, compiler):
        script = (
            "from repro.kernels import native\n"
            "core, reason = native.load()\n"
            "assert core is not None, reason\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        builders = [
            subprocess.Popen([sys.executable, "-c", script], env=env)
            for _ in range(2)
        ]
        for builder in builders:
            assert builder.wait(timeout=120) == 0
        library = _library(fresh_cache)
        assert sorted(p.name for p in fresh_cache.iterdir()) == [
            library.with_suffix(".sha256").name, library.name,
        ]
        core, reason = native.load()
        assert core is not None and reason is None

    def test_corrupt_library_is_rebuilt_not_loaded(
        self, fresh_cache, compiler, monkeypatch
    ):
        assert native.load()[0] is not None
        library = _library(fresh_cache)
        # A new inode: this process still maps the library it loaded.
        library.unlink()
        library.write_bytes(b"\x7fELF garbage")
        native.reset()
        opened = []
        real_cdll = native.ctypes.CDLL

        def spy(path, *args, **kwargs):
            with open(path, "rb") as handle:
                opened.append(handle.read())
            return real_cdll(path, *args, **kwargs)

        monkeypatch.setattr(native.ctypes, "CDLL", spy)
        core, reason = native.load()
        assert core is not None and reason is None
        assert opened and b"garbage" not in opened[0]
        recorded = library.with_suffix(".sha256").read_text().strip()
        assert hashlib.sha256(opened[0]).hexdigest() == recorded
        assert library.read_bytes() == opened[0]

    def test_unwritable_cache_builds_privately(self, fresh_cache, compiler, tmp_path, monkeypatch):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        core, reason = native.load()
        assert core is not None and reason is None
        assert blocker.is_file()
