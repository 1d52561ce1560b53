"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gcc" in out
        assert "fig10" in out

    def test_profile(self, capsys):
        assert main(["profile", "go", "--input", "test"]) == 0
        out = capsys.readouterr().out
        assert "top accessed values" in out

    def test_simulate_baseline_only(self, capsys):
        assert main(
            ["simulate", "go", "--input", "test", "--size-kb", "8"]
        ) == 0
        assert "baseline" in capsys.readouterr().out

    def test_simulate_with_fvc(self, capsys):
        assert main(
            [
                "simulate", "go", "--input", "test",
                "--size-kb", "8", "--fvc", "128", "--top", "3",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "reduction" in out
        assert "FVC hits" in out

    def test_run_experiment_fast(self, capsys):
        assert main(["run", "fig9", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out

    def test_trace_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "go.trc"
        assert main(["trace", "go", "--input", "test", "-o", str(path)]) == 0
        assert path.exists()
        from repro.trace.io import read_trace

        assert len(read_trace(path)) > 1000

    def test_report(self, capsys):
        assert main(
            ["report", "go", "--input", "test", "--no-occurrence"]
        ) == 0
        out = capsys.readouterr().out
        assert "verdict" in out
        assert "access coverage" in out

    def test_classify(self, capsys):
        assert main(
            ["classify", "go", "--input", "test", "--size-kb", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "compulsory" in out
        assert "conflict" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestJsonOutput:
    def test_run_json_is_canonical_payload(self, capsys):
        assert main(["run", "fig9", "--fast", "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["schema"] == "repro.experiment/1"
        assert payload["experiment_id"] == "fig9"
        assert payload["rows"]
        # Canonical form: sorted keys, 2-space indent, trailing newline.
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_run_rejects_spec_files(self, tmp_path, capsys):
        # 'run' takes experiment ids only; a spec file would otherwise
        # bypass --sanitize/--trace-out/--faults/--checkpoint.
        spans = tmp_path / "spans.jsonl"
        argv = [
            "run", "examples/line_size_sweep.json", "--fast",
            "--sanitize", "--trace-out", str(spans),
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "repro-fvc sweep run examples/line_size_sweep.json" in err
        assert "[sanitize]" not in err
        assert not spans.exists()

    def test_run_unknown_experiment_is_one_error_line(self, capsys):
        assert main(["run", "fig99", "--fast"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown experiment 'fig99'")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_sweep_run_of_an_experiment_names_replacement(self, capsys):
        assert main(["sweep", "run", "fig1", "--fast"]) == 2
        assert "repro-fvc run fig1" in capsys.readouterr().err

    def test_run_json_excludes_csv_and_chart(self, capsys):
        assert main(["run", "fig9", "--fast", "--json", "--csv"]) == 2
        assert main(["run", "fig9", "--fast", "--json", "--chart"]) == 2

    def test_simulate_json(self, capsys):
        assert main(
            [
                "simulate", "go", "--input", "test",
                "--size-kb", "8", "--fvc", "128", "--top", "3", "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.simulate/1"
        assert payload["geometry"]["size_bytes"] == 8 * 1024
        assert payload["baseline"]["misses"] > 0
        assert payload["fvc"]["entries"] == 128
        assert payload["fvc"]["fvc_hits"] > 0

    def test_simulate_json_without_fvc(self, capsys):
        assert main(
            ["simulate", "go", "--input", "test", "--size-kb", "8", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fvc"] is None


class TestServiceVerbs:
    """The serve/submit/status/fetch verbs against an in-process
    service."""

    @pytest.fixture(scope="class")
    def service(self, tmp_path_factory):
        from repro.service.server import ReproService, ServiceConfig

        service = ReproService(
            ServiceConfig(
                port=0,
                workers=1,
                store_dir=tmp_path_factory.mktemp("cli-results"),
            )
        ).start()
        yield service
        service.stop(drain=False)

    def test_submit_wait_equals_run_json(self, service, capsys):
        assert main(["run", "fig9", "--fast", "--json"]) == 0
        local = capsys.readouterr().out
        assert main(
            ["submit", "fig9", "--fast", "--wait", "--url", service.url]
        ) == 0
        assert capsys.readouterr().out == local

    def test_submit_then_status_and_fetch(self, service, capsys):
        assert main(["submit", "fig9", "--fast", "--url", service.url]) == 0
        job = json.loads(capsys.readouterr().out)
        assert main(["status", job["id"], "--url", service.url]) == 0
        view = json.loads(capsys.readouterr().out)
        assert view["id"] == job["id"]
        # The previous test completed this spec; fetch its payload.
        assert main(
            ["fetch", job["result_key"], "--url", service.url]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment_id"] == "fig9"

    def test_unreachable_service_fails_cleanly(self, capsys):
        assert main(
            ["status", "job-x", "--url", "http://127.0.0.1:1"]
        ) == 1
        assert "error:" in capsys.readouterr().err

    def test_help_mentions_service_verbs(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for verb in ("serve", "submit", "status", "fetch"):
            assert verb in out
