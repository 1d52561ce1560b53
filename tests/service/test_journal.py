"""The write-ahead journal: envelope framing, torn-tail tolerance,
snapshot + compaction equivalence, disk-quota degradation."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import StorageExhausted
from repro.common.integrity import MAGIC
from repro.service.journal import (
    LOG_NAME,
    SNAPSHOT_NAME,
    Journal,
    _parse_log,
    recover,
)


def make_journal(path, **kwargs) -> Journal:
    kwargs.setdefault("fsync", False)
    return Journal(path, **kwargs)


def empty_state(jobs=(), serial=0):
    return {
        "queue": {
            "jobs": list(jobs),
            "serial": serial,
            "counters": {},
        },
    }


class TestAppendReplay:
    def test_roundtrip(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append(
            "job.submit", id="job-00001-aa", spec={"type": "cell"},
            result_key="k1", created=1.0,
        )
        journal.append("job.claim", id="job-00001-aa")
        journal.append("job.finish", id="job-00001-aa", state="done")
        journal.close()

        state, tail, torn = make_journal(tmp_path).replay()
        assert state is None and not torn
        assert [record["k"] for record in tail] == [
            "job.submit", "job.claim", "job.finish",
        ]
        assert [record["seq"] for record in tail] == [1, 2, 3]

    def test_sequence_survives_reopen(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append("job.retry")
        journal.close()
        reopened = make_journal(tmp_path)
        reopened.replay()
        assert reopened.append("job.retry") == 2

    def test_none_fields_are_dropped(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append("job.finish", id="j", state="done", error=None)
        _, tail, _ = make_journal(tmp_path).replay()
        assert "error" not in tail[0]

    def test_records_are_individually_enveloped(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append("job.retry")
        journal.append("job.retry")
        blob = (tmp_path / LOG_NAME).read_bytes()
        assert blob.startswith(MAGIC)
        assert blob.count(MAGIC) == 2


class TestTornTail:
    def test_torn_tail_stops_replay_at_last_good_record(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append("job.retry")
        journal.append("job.cancel", id="j")
        journal.close()
        with open(tmp_path / LOG_NAME, "ab") as handle:
            handle.write(MAGIC + b"half-written")

        _, tail, torn = make_journal(tmp_path).replay()
        assert torn
        assert [record["k"] for record in tail] == ["job.retry", "job.cancel"]

    def test_corrupt_record_is_a_torn_tail(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append("job.retry")
        journal.append("job.cancel", id="j")
        journal.close()
        log = tmp_path / LOG_NAME
        blob = bytearray(log.read_bytes())
        blob[-2] ^= 0x40  # flip a payload bit inside the last record
        log.write_bytes(bytes(blob))

        _, tail, torn = make_journal(tmp_path).replay()
        assert torn
        assert [record["k"] for record in tail] == ["job.retry"]

    def test_sweep_quarantines_and_truncates(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append("job.retry")
        journal.close()
        with open(tmp_path / LOG_NAME, "ab") as handle:
            handle.write(b"not an envelope at all")

        swept = make_journal(tmp_path)
        report = swept.sweep()
        assert report["records_ok"] == 1
        assert report["torn_bytes"] == 22
        assert report["quarantined"] == 1
        assert (tmp_path / (LOG_NAME + ".corrupt")).exists()
        # The truncated log replays clean, and appending resumes.
        _, tail, torn = swept.replay()
        assert not torn and len(tail) == 1
        assert swept.append("job.retry") == 2

    def test_corrupt_snapshot_is_quarantined(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.append("job.retry")
        assert journal.snapshot(empty_state)
        snapshot = tmp_path / SNAPSHOT_NAME
        snapshot.write_bytes(b"garbage")

        state, tail, torn = make_journal(tmp_path).replay()
        assert state is None and not torn
        assert snapshot.with_name(SNAPSHOT_NAME + ".corrupt").exists()
        # With the snapshot gone its covers mark is gone too — but the
        # log was compacted behind it, so the tail is simply empty.
        assert tail == []

    def test_parse_log_empty(self):
        assert _parse_log(b"") == ([], 0, False)


class TestSnapshotCompaction:
    def test_compaction_drops_covered_records(self, tmp_path):
        journal = make_journal(tmp_path)
        for _ in range(50):
            journal.append("job.retry")
        size_before = (tmp_path / LOG_NAME).stat().st_size
        assert journal.snapshot(empty_state)
        assert (tmp_path / LOG_NAME).stat().st_size < size_before
        journal.append("job.retry")
        _, tail, _ = make_journal(tmp_path).replay()
        assert [record["seq"] for record in tail] == [51]

    def test_snapshot_due(self, tmp_path):
        journal = make_journal(tmp_path, snapshot_every=3)
        assert not journal.snapshot_due()
        for _ in range(3):
            journal.append("job.retry")
        assert journal.snapshot_due()
        journal.snapshot(empty_state)
        assert not journal.snapshot_due()

    def test_soak_state_dir_stays_bounded(self, tmp_path):
        # 500 jobs' worth of lifecycle records with periodic snapshot +
        # compaction: the state dir must stay bounded (a few records'
        # tail + one snapshot), not grow linearly with history.
        journal = make_journal(tmp_path, snapshot_every=64)
        for index in range(500):
            journal.append(
                "job.submit", id=f"job-{index:05d}-ab", spec={},
                result_key=f"k{index}", created=float(index),
            )
            journal.append("job.claim", id=f"job-{index:05d}-ab")
            journal.append(
                "job.finish", id=f"job-{index:05d}-ab", state="done",
            )
            if journal.snapshot_due():
                journal.snapshot(empty_state)
        journal.snapshot(empty_state)
        stats = journal.stats()
        assert stats["seq"] == 1500
        assert stats["tail_records"] == 0
        assert stats["size_bytes"] < 64 * 1024
        assert stats["compactions"] >= 20


class TestQuota:
    def test_quota_breach_raises_typed_and_flags(self, tmp_path):
        journal = make_journal(tmp_path, quota_bytes=200)
        journal.append("job.retry")
        assert not journal.exhausted
        with pytest.raises(StorageExhausted):
            for _ in range(100):
                journal.append("job.retry")
        assert journal.exhausted
        assert journal.stats()["append_failures"] == 1

    def test_append_safe_never_raises(self, tmp_path):
        journal = make_journal(tmp_path, quota_bytes=1)
        assert journal.append_safe("job.retry") is None
        assert journal.exhausted

    def test_exhaustion_self_heals_after_compaction(self, tmp_path):
        journal = make_journal(tmp_path, quota_bytes=1500)
        with pytest.raises(StorageExhausted):
            for _ in range(100):
                journal.append("job.retry")
        assert journal.exhausted
        # Snapshot + compaction frees the covered records; the flag
        # clears and appends succeed again.
        assert journal.snapshot(empty_state)
        assert not journal.exhausted
        assert journal.append("job.retry") > 0

    def test_accepted_work_keeps_journalling_after_breach(self, tmp_path):
        journal = make_journal(tmp_path, quota_bytes=400)
        accepted = 0
        for _ in range(20):
            if journal.append_safe("job.retry") is not None:
                accepted += 1
        assert 0 < accepted < 20
        _, tail, _ = make_journal(tmp_path).replay()
        assert len(tail) == accepted


_KINDS = st.sampled_from(
    ["job.submit", "job.claim", "job.attempt", "job.finish", "job.cancel"]
)


class TestSnapshotTailEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        kinds=st.lists(_KINDS, min_size=1, max_size=40),
        cut=st.integers(min_value=0, max_value=40),
    )
    def test_snapshot_plus_tail_equals_full_replay(
        self, tmp_path_factory, kinds, cut
    ):
        """Recovering from snapshot+tail must equal replaying the full
        journal, wherever the snapshot lands in the record stream."""
        cut = min(cut, len(kinds))

        def drive(journal, snapshot_at):
            jobs = {}
            order = []
            for index, kind in enumerate(kinds):
                job_id = f"job-{(index % 5) + 1:05d}-xx"
                if kind == "job.submit":
                    if job_id not in jobs:
                        jobs[job_id] = {
                            "id": job_id, "spec": {}, "result_key": job_id,
                            "state": "queued",
                            "attempts": 0, "created": float(index),
                        }
                        order.append(job_id)
                        journal.append(
                            "job.submit", id=job_id, spec={},
                            result_key=job_id, created=float(index),
                        )
                elif job_id in jobs:
                    job = jobs[job_id]
                    if kind == "job.claim":
                        if job["state"] == "queued":
                            job["state"] = "running"
                        journal.append("job.claim", id=job_id)
                    elif kind == "job.attempt":
                        job["attempts"] = max(job["attempts"], 1)
                        journal.append("job.attempt", id=job_id, n=1)
                    elif kind == "job.finish":
                        if job["state"] in ("queued", "running"):
                            job["state"] = "done"
                        journal.append(
                            "job.finish", id=job_id, state="done",
                        )
                    elif kind == "job.cancel":
                        if job["state"] in ("queued", "running"):
                            job["cancel"] = True
                        journal.append("job.cancel", id=job_id)
                if index + 1 == snapshot_at:
                    state = {
                        "queue": {
                            "jobs": [json.loads(json.dumps(jobs[j]))
                                     for j in order],
                            "serial": 5,
                            "counters": {},
                        },
                    }
                    assert journal.snapshot(lambda: state)

        def fingerprint(directory):
            recovered = recover(make_journal(directory))
            return [
                (job.id, job.state, job.attempts, job.cancel_requested)
                for job in recovered.jobs
            ]

        with_snapshot = tmp_path_factory.mktemp("snap")
        without = tmp_path_factory.mktemp("full")
        drive(make_journal(with_snapshot), snapshot_at=cut)
        drive(make_journal(without), snapshot_at=-1)
        assert fingerprint(with_snapshot) == fingerprint(without)
