"""The linter against the real source tree: the repo must lint clean
within the suppression budget, and an injected violation must be
caught.  This is the same gate CI's lint job enforces."""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.analysis.linter import DEFAULT_SUPPRESSION_BUDGET, Linter

SRC = Path(__file__).resolve().parents[2] / "src"


class TestRepoLintsClean:
    def test_zero_findings(self):
        report = Linter().lint_paths([SRC])
        assert report.findings == [], "\n".join(
            f.render() for f in report.findings
        )
        assert report.exit_code == 0

    def test_suppressions_within_budget(self):
        report = Linter().lint_paths([SRC])
        assert len(report.suppressed) <= DEFAULT_SUPPRESSION_BUDGET
        assert not report.over_budget

    def test_no_stale_suppressions(self):
        report = Linter().lint_paths([SRC])
        assert report.unused_suppressions == []

    def test_whole_package_was_checked(self):
        report = Linter().lint_paths([SRC])
        actual = sum(
            1
            for p in SRC.rglob("*.py")
            if "__pycache__" not in p.parts
        )
        assert report.files_checked == actual >= 100


class TestInjectedViolationCaught:
    def test_seeded_random_in_fvc_cache_fails_lint(self, tmp_path):
        """The ISSUE's acceptance probe: copy the tree, plant a seeded
        ``random.random()`` in ``fvc/cache.py``, and the lint run must
        go non-zero with DET001 at the planted line."""
        root = tmp_path / "repro"
        shutil.copytree(
            SRC / "repro",
            root,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        target = root / "fvc" / "cache.py"
        source = target.read_text()
        lines = source.splitlines()
        planted_line = len(lines) + 2
        target.write_text(
            source
            + "\nimport random\nrandom.seed(42)\n_JITTER = random.random()\n"
        )
        report = Linter().lint_paths([root])
        det001 = [f for f in report.findings if f.code == "DET001"]
        assert report.exit_code == 1
        assert {f.line for f in det001} >= {planted_line, planted_line + 1}
        assert all(f.path.endswith("fvc/cache.py") for f in det001)

    def test_planted_unguarded_shared_write_fails_lint(self, tmp_path):
        """The CI lint gate's concurrency probe: copy the tree, share
        one ``ServiceClient`` between two threads (a use the client
        supports), strip the lock from its retry counter in
        ``service/client.py``, and the lint run must go non-zero with
        CONC001 at that line."""
        root = tmp_path / "repro"
        shutil.copytree(
            SRC / "repro",
            root,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        (root / "service" / "shared_client.py").write_text(
            "import threading\n"
            "\n"
            "from repro.service.client import ServiceClient\n"
            "\n"
            "\n"
            "def poll(client: ServiceClient) -> None:\n"
            "    client.healthz()\n"
            "\n"
            "\n"
            "def poll_twice(client: ServiceClient) -> None:\n"
            "    thread = threading.Thread(target=poll, args=(client,))\n"
            "    thread.start()\n"
            "    poll(client)\n"
            "    thread.join()\n"
        )
        target = root / "service" / "client.py"
        source = target.read_text()
        planted = source.replace(
            "                with self._stats_lock:\n"
            "                    self.retries_attempted += 1\n",
            "                self.retries_attempted += 1\n",
        )
        assert planted != source, "the guarded increment moved; update me"
        target.write_text(planted)
        report = Linter().lint_paths([root])
        conc001 = [f for f in report.findings if f.code == "CONC001"]
        assert report.exit_code == 1
        assert conc001, "stripping the lock must surface CONC001"
        assert all(
            f.path.endswith("service/client.py") for f in conc001
        )
