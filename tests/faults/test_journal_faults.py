"""Injected faults at the journal's three sites — ``journal.append``,
``journal.snapshot``, ``journal.replay`` — must degrade along typed
paths (StorageExhausted, failed-snapshot report, torn-tail truncation),
never crash the control plane."""

import pytest

from repro.common.errors import StorageExhausted
from repro.faults import install, reset
from repro.faults.plan import FaultPlan
from repro.service.journal import LOG_NAME, SNAPSHOT_NAME, Journal


@pytest.fixture(autouse=True)
def _clean_plan():
    reset()
    yield
    reset()


def make_journal(path) -> Journal:
    return Journal(path, fsync=False)


def empty_state():
    return {
        "queue": {"jobs": [], "serial": 0, "counters": {}},
    }


class TestAppendFaults:
    def test_io_error_becomes_storage_exhausted(self, tmp_path):
        journal = make_journal(tmp_path)
        install(FaultPlan.parse("journal.append:io_error@1"))
        with pytest.raises(StorageExhausted):
            journal.append("job.retry")
        assert journal.exhausted
        assert journal.stats()["append_failures"] == 1
        # The injected ENOSPC was transient; the next append recovers.
        assert journal.append("job.retry") == 2
        assert not journal.exhausted

    def test_io_error_via_append_safe_never_raises(self, tmp_path):
        journal = make_journal(tmp_path)
        install(FaultPlan.parse("journal.append:io_error@1"))
        assert journal.append_safe("job.retry") is None
        assert journal.exhausted

    def test_torn_write_is_truncated_on_replay(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append("job.retry")
        install(FaultPlan.parse("journal.append:truncate@1"))
        journal.append("job.cancel", id="j")  # half the bytes hit disk
        journal.close()

        swept = make_journal(tmp_path)
        _, tail, torn = swept.replay()
        assert torn
        assert [record["k"] for record in tail] == ["job.retry"]
        report = swept.sweep()
        assert report["quarantined"] == 1
        assert (tmp_path / (LOG_NAME + ".corrupt")).exists()
        # Post-sweep the log is whole again and appends resume.
        assert swept.append("job.retry") == 2

    def test_corrupt_record_stops_replay_at_last_good(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append("job.retry")
        install(FaultPlan.parse("journal.append:bitflip@1;seed=7"))
        journal.append("job.cancel", id="j")
        journal.close()

        _, tail, torn = make_journal(tmp_path).replay()
        assert torn
        assert [record["k"] for record in tail] == ["job.retry"]


class TestSnapshotFaults:
    def test_io_error_keeps_old_snapshot_and_log(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append("job.retry")
        install(FaultPlan.parse("journal.snapshot:io_error@1"))
        assert journal.snapshot(empty_state) is False
        assert journal.stats()["snapshot_failures"] == 1
        # The log was not compacted: a full replay still works.
        _, tail, torn = make_journal(tmp_path).replay()
        assert not torn and len(tail) == 1

    def test_corrupt_snapshot_quarantined_on_replay(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append("job.retry")
        install(FaultPlan.parse("journal.snapshot:bitflip@1;seed=5"))
        assert journal.snapshot(empty_state)

        state, tail, torn = make_journal(tmp_path).replay()
        assert state is None and not torn
        quarantined = tmp_path / (SNAPSHOT_NAME + ".corrupt")
        assert quarantined.exists()

    def test_truncated_snapshot_quarantined_by_sweep(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append("job.retry")
        install(FaultPlan.parse("journal.snapshot:truncate@1"))
        assert journal.snapshot(empty_state)

        report = make_journal(tmp_path).sweep()
        assert not report["snapshot_ok"]
        assert (tmp_path / (SNAPSHOT_NAME + ".corrupt")).exists()


class TestReplayFaults:
    def test_io_error_recovers_empty(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append("job.retry")
        journal.close()
        install(FaultPlan.parse("journal.replay:io_error@1"))
        _, tail, torn = make_journal(tmp_path).replay()
        # An unreadable log degrades to a cold start, not a crash.
        assert tail == [] and not torn

    def test_bitflip_reads_as_torn_tail(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append("job.retry")
        journal.append("job.cancel", id="j")
        journal.close()
        install(FaultPlan.parse("journal.replay:bitflip@1;seed=11"))
        _, tail, torn = make_journal(tmp_path).replay()
        assert torn or len(tail) == 2  # flip may land in verified bytes
        assert len(tail) <= 2

    def test_truncate_drops_the_tail_only(self, tmp_path):
        journal = make_journal(tmp_path)
        for _ in range(4):
            journal.append("job.retry")
        journal.close()
        install(FaultPlan.parse("journal.replay:truncate@1"))
        _, tail, torn = make_journal(tmp_path).replay()
        # Half the log survives: a clean prefix, never interleaved junk.
        assert 0 < len(tail) < 4
        assert [record["seq"] for record in tail] == list(
            range(1, len(tail) + 1)
        )
