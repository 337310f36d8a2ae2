"""Job-store hardening: versioned specs, lease journal replay, compaction.

The lifecycle/resume behaviour is covered from the service side in
tests/test_service.py (TestJobStoreAndResume); this module exercises the
SQLite store as a standalone durability layer:

* format-versioned ``spec`` fields (legacy bare-base64 decodes, foreign
  versions and corrupt payloads fail loudly with
  :class:`~repro.jobstore.JobStoreFormatError`);
* lease-journal records as annotations (they never change lifecycle
  standing and surface as ``StoredJob.lease``, latest wins);
* :meth:`~repro.jobstore.SQLiteJobStore.compact` — settled residue goes,
  standings and open leases on unsettled jobs stay;
* replay order shared by every handle on one file;
* legacy JSONL logs: refused loudly by every entry point.
"""

from __future__ import annotations

import base64
import json
import threading

import pytest

from remote_tasks import sleepy_task
from repro.exec import RemoteFleet, TaskState, WorkScheduler, wire
from repro.jobstore import (
    LEASE_RECORD_TYPES,
    SPEC_FORMAT_VERSION,
    JobRecordWriter,
    JobStoreFormatError,
    SQLiteJobStore,
    StoredJob,
    decode_job,
    encode_job,
    open_job_store,
)
from repro.worker import WorkerAgent


@pytest.fixture
def any_store(tmp_path):
    """One fresh SQLite store."""
    store = SQLiteJobStore(tmp_path / "store.sqlite", fsync=False)
    yield store
    store.close()


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line if line.endswith("\n") or not line else line + "\n")


# ------------------------------------------------------------ spec versioning
class TestSpecFormat:
    def test_round_trip_carries_format_version(self):
        spec = encode_job({"name": "j1", "priority": 3})
        assert spec.startswith(f"{SPEC_FORMAT_VERSION}:")
        assert decode_job(spec) == {"name": "j1", "priority": 3}

    def test_legacy_bare_base64_decodes_as_v1(self):
        # Pre-2.1 stores wrote the pickle unprefixed; the colon never occurs
        # in the base64 alphabet, so the legacy shape is unambiguous.
        legacy = encode_job(("legacy", 42)).split(":", 1)[1]
        assert ":" not in legacy
        assert decode_job(legacy) == ("legacy", 42)

    def test_unsupported_future_version_fails_loudly(self):
        payload = encode_job("x").split(":", 1)[1]
        with pytest.raises(JobStoreFormatError, match="v99"):
            decode_job(f"99:{payload}")

    def test_corrupt_payload_fails_loudly(self):
        with pytest.raises(JobStoreFormatError, match="corrupt"):
            decode_job(f"{SPEC_FORMAT_VERSION}:!!!not-base64!!!")

    def test_truncated_pickle_fails_loudly(self):
        # Valid base64 of an invalid pickle: the damage is inside the payload.
        truncated = base64.b64encode(b"\x80\x04").decode("ascii")
        with pytest.raises(JobStoreFormatError, match="corrupt"):
            decode_job(f"{SPEC_FORMAT_VERSION}:{truncated}")


# ---------------------------------------------------------- lease replay
class TestLeaseJournalReplay:
    def test_lease_records_annotate_without_changing_standing(self, any_store):
        store = any_store
        store.append({"type": "submitted", "job": "j1", "status": "pending", "spec": encode_job("s")})
        store.record_leased("j1", "w0", expiry=123.0)
        jobs = store.load_jobs()
        assert jobs["j1"].status == "pending"  # still the lifecycle standing
        assert jobs["j1"].lease == {
            "type": "leased",
            "job": "j1",
            "worker": "w0",
            "expiry": 123.0,
        }

    def test_latest_lease_record_wins(self, any_store):
        store = any_store
        store.append({"type": "submitted", "job": "j1", "status": "pending"})
        store.record_leased("j1", "w0", expiry=10.0)
        store.record_lease_heartbeat("j1", "w0", expiry=20.0)
        assert store.load_jobs()["j1"].lease["expiry"] == 20.0
        store.record_lease_released("j1", "w0", outcome="lost")
        entry = store.load_jobs()["j1"]
        assert entry.status == "pending"  # no lease record changes standing
        assert entry.lease["type"] == "released" and entry.lease["outcome"] == "lost"

    def test_trailing_lease_line_does_not_resurrect_settled_job(self, any_store):
        store = any_store
        store.append({"type": "submitted", "job": "j1", "status": "pending"})
        store.append({"type": "settled", "job": "j1", "status": "done"})
        store.record_leased("j1", "straggler", expiry=999.0)
        entry = store.load_jobs()["j1"]
        assert entry.settled and entry.status == "done"

    def test_interleaved_leases_fold_per_job(self, any_store):
        """Lease and lifecycle records of two jobs, interleaved as a fleet
        writes them: each job keeps its own standing and latest lease."""
        store = any_store
        for record in [
            {"type": "submitted", "job": "a", "status": "pending", "spec": encode_job("a")},
            {"type": "submitted", "job": "b", "status": "pending", "spec": encode_job("b")},
            {"type": "leased", "job": "a", "worker": "w0", "expiry": 5.0},
            {"type": "running", "job": "a", "status": "running"},
            {"type": "leased", "job": "b", "worker": "w1", "expiry": 5.0},
            {"type": "lease_heartbeat", "job": "a", "worker": "w0", "expiry": 9.0},
            {"type": "released", "job": "a", "worker": "w0", "outcome": "done"},
            {"type": "settled", "job": "a", "status": "done"},
        ]:
            store.append(record)
        jobs = store.load_jobs()
        assert jobs["a"].settled
        assert jobs["a"].lease["outcome"] == "done"
        # b was never released: its lease is still the grant.
        assert jobs["b"].status == "pending"
        assert jobs["b"].lease == {"type": "leased", "job": "b", "worker": "w1", "expiry": 5.0}
        assert jobs["b"].resumable

    def test_fleet_journal_protocol_matches_store_api(self, recording_store):
        """A real fleet journals through the store's lease record methods:
        every record it writes is exactly what the method makes of its
        fields."""
        fleet = RemoteFleet(
            listen="127.0.0.1:0",
            heartbeat_interval=0.05,
            start_timeout=15.0,
            lease_log=recording_store,
        )
        host, port = wire.parse_address(fleet.bound_address)
        agent = WorkerAgent(worker_id="journal-w0")
        thread = threading.Thread(target=agent.connect, args=(host, port), daemon=True)
        thread.start()
        try:
            with WorkScheduler(fleet=fleet) as scheduler:
                handle = scheduler.submit(sleepy_task, 0.3, name="j")
                scheduler.drain()
        finally:
            fleet.close()
            thread.join(timeout=5)
        assert handle.state is TaskState.DONE
        written = [r for r in recording_store.records if r["type"] in LEASE_RECORD_TYPES]
        assert {r["type"] for r in written} == set(LEASE_RECORD_TYPES)

        class Collected(JobRecordWriter):
            def __init__(self):
                self.records: list[dict] = []

            def append(self, record: dict) -> None:
                self.records.append(record)

        rebuilt = Collected()
        for record in written:
            head = (record["job"], record["worker"])
            if record["type"] == "released":
                rebuilt.record_lease_released(*head, record["outcome"], task=record["task"])
            elif record["type"] == "leased":
                rebuilt.record_leased(*head, record["expiry"], task=record["task"])
            else:
                rebuilt.record_lease_heartbeat(*head, record["expiry"], task=record["task"])
        assert rebuilt.records == written
        assert recording_store.load_jobs()["j"].lease["type"] == "released"


# ------------------------------------------------------------- compaction
class TestCompaction:
    def test_settled_jobs_fold_to_terminal_record(self, any_store):
        store = any_store
        store.append({"type": "submitted", "job": "j1", "status": "pending", "spec": encode_job("s")})
        store.append({"type": "running", "job": "j1", "status": "running"})
        store.record_leased("j1", "w0", expiry=1.0)
        store.record_lease_released("j1", "w0", outcome="done")
        store.append({"type": "settled", "job": "j1", "status": "done", "answer": 7})

        assert store.compact() == 1  # the released lease; lifecycle folded at write
        entry = store.load_jobs()["j1"]
        assert entry.last == {"type": "settled", "job": "j1", "status": "done", "answer": 7}
        assert entry.settled and entry.lease is None

    def test_unsettled_job_keeps_spec_lifecycle_and_open_lease(self, any_store):
        store = any_store
        spec = encode_job("rebuild-me")
        store.append({"type": "submitted", "job": "j1", "status": "pending", "spec": spec})
        store.append({"type": "running", "job": "j1", "status": "running"})
        store.record_leased("j1", "w0", expiry=2.0)
        store.record_lease_heartbeat("j1", "w0", expiry=9.0)

        store.compact()
        after = store.load_jobs()["j1"]
        assert after.status == "running"
        assert after.spec == spec
        # The open lease is evidence of in-flight work — it survives.
        assert after.lease["type"] == "lease_heartbeat"
        assert after.resumable

    def test_compaction_is_standing_preserving(self, any_store):
        """load_jobs() before == load_jobs() after, for a mixed store."""
        store = any_store
        store.append({"type": "submitted", "job": "done-job", "status": "pending", "spec": encode_job(1)})
        store.append({"type": "settled", "job": "done-job", "status": "done"})
        store.append({"type": "submitted", "job": "live-job", "status": "pending", "spec": encode_job(2)})
        store.append({"type": "running", "job": "live-job", "status": "running"})
        store.append({"type": "submitted", "job": "queued-job", "status": "pending", "spec": encode_job(3)})

        before = store.load_jobs()
        store.compact()
        after = store.load_jobs()
        assert set(before) == set(after)
        for name in before:
            assert before[name].status == after[name].status, name
            assert before[name].spec == after[name].spec, name

    def test_compact_preserves_standings_drops_settled_residue(self, any_store):
        store = any_store
        store.append({"type": "submitted", "job": "done-job", "status": "pending", "spec": encode_job(1)})
        store.record_event("done-job", 1, {"kind": "solved"})
        store.record_leased("done-job", "w0", expiry=1.0)
        store.record_lease_released("done-job", "w0", outcome="done")
        store.append({"type": "settled", "job": "done-job", "status": "done"})
        store.append({"type": "submitted", "job": "live-job", "status": "pending", "spec": encode_job(2)})
        store.record_event("live-job", 1, {"kind": "vc_selected"})
        store.record_leased("live-job", "w1", expiry=99.0)
        store.record_degraded("fleet", "pool", "test", jobs=["live-job"])

        before = store.load_jobs()
        assert store.compact() == 3  # done-job's lease and event, the annotation
        after = store.load_jobs()
        assert set(before) == set(after)
        for name in before:
            assert before[name].status == after[name].status, name
        # Settled residue is gone; live evidence survives.
        assert store.load_events("done-job") == []
        assert store.load_events("live-job") == [(1, {"kind": "vc_selected"})]
        assert after["done-job"].lease is None
        assert after["live-job"].lease["type"] == "leased"
        assert after["live-job"].resumable

    def test_compact_missing_file_is_a_noop(self, tmp_path):
        store = SQLiteJobStore(tmp_path / "never-written.sqlite")
        try:
            assert store.compact() == 0
            assert store.load_jobs() == {}
        finally:
            store.close()

    def test_released_lease_on_unsettled_job_is_dropped(self, any_store):
        # A released lease is history, not in-flight evidence.
        store = any_store
        store.append({"type": "submitted", "job": "j1", "status": "pending", "spec": encode_job("s")})
        store.record_leased("j1", "w0", expiry=1.0)
        store.record_lease_released("j1", "w0", outcome="lost")
        store.compact()
        entry = store.load_jobs()["j1"]
        assert entry.lease is None
        assert entry.resumable


# ------------------------------------------------------------- fsync modes
class TestDurabilityModes:
    @pytest.mark.parametrize("fsync", [True, False])
    def test_append_visible_in_both_modes(self, tmp_path, fsync):
        store = SQLiteJobStore(tmp_path / f"fsync-{fsync}.sqlite", fsync=fsync)
        store.append({"type": "submitted", "job": "j1", "status": "pending"})
        assert store.load_jobs()["j1"].status == "pending"
        store.close()
        reopened = SQLiteJobStore(tmp_path / f"fsync-{fsync}.sqlite", fsync=fsync)
        assert reopened.load_jobs()["j1"].status == "pending"
        reopened.close()

    def test_stored_job_defaults(self):
        entry = StoredJob("bare")
        assert entry.status == "pending"
        assert not entry.settled
        assert not entry.resumable  # no spec to rebuild from
        assert entry.lease is None


# ------------------------------------------------------------- replay
class TestStoreReplay:
    """Records fold into standings at write time; reads come back in
    ``updated`` order."""

    def test_lifecycle_replay(self, any_store):
        store = any_store
        store.append(
            {
                "type": "submitted",
                "job": "j1",
                "status": "pending",
                "spec": encode_job("s1"),
                "tenant": "acme",
                "pin": {"source": "f" * 16, "target": "t"},
                "fingerprint": "f" * 16,
            }
        )
        store.append({"type": "running", "job": "j1", "status": "running"})
        store.append({"type": "submitted", "job": "j2", "status": "pending", "spec": encode_job("s2")})
        store.append({"type": "settled", "job": "j2", "status": "done"})
        jobs = store.load_jobs()
        assert jobs["j1"].status == "running" and jobs["j1"].resumable
        # Sticky identity fields survive later records that omit them.
        assert jobs["j1"].tenant == "acme"
        assert jobs["j1"].fingerprint == "f" * 16
        assert decode_job(jobs["j1"].spec) == "s1"
        assert jobs["j2"].settled and not jobs["j2"].resumable

    def test_event_log_round_trip(self, any_store):
        store = any_store
        store.append({"type": "submitted", "job": "j1", "status": "pending"})
        for seq in (2, 1, 3):  # append order must not matter
            store.record_event("j1", seq, {"kind": "tick", "n": seq})
        assert store.load_events("j1") == [
            (1, {"kind": "tick", "n": 1}),
            (2, {"kind": "tick", "n": 2}),
            (3, {"kind": "tick", "n": 3}),
        ]
        assert store.load_events("j1", after=2) == [(3, {"kind": "tick", "n": 3})]
        assert store.last_event_seq("j1") == 3
        assert store.load_events("ghost") == [] and store.last_event_seq("ghost") == 0
        # Event records are annotations: standing is untouched.
        assert store.load_jobs()["j1"].status == "pending"

    def test_query_jobs_filters(self, any_store):
        store = any_store
        fp_a, fp_b = "a" * 16, "b" * 16
        store.append({"type": "submitted", "job": "j1", "status": "pending", "tenant": "acme", "fingerprint": fp_a})
        store.append({"type": "submitted", "job": "j2", "status": "pending", "tenant": "acme", "fingerprint": fp_b})
        store.append({"type": "settled", "job": "j2", "status": "done"})
        store.append({"type": "submitted", "job": "j3", "status": "pending", "tenant": "zed", "fingerprint": fp_a})
        names = lambda jobs: sorted(j.name for j in jobs)  # noqa: E731
        assert names(store.query_jobs(tenant="acme")) == ["j1", "j2"]
        assert names(store.query_jobs(status="pending")) == ["j1", "j3"]
        assert names(store.query_jobs(tenant="acme", status="done")) == ["j2"]
        assert names(store.query_jobs(fingerprint=fp_a)) == ["j1", "j3"]
        assert store.query_jobs(tenant="nobody") == []

    def test_mixed_records_fold_to_standings_and_events(self, any_store):
        # Lifecycle, lease, event and degraded records in one stream, each
        # appended as a raw record: every job keeps its latest lifecycle
        # record, sticky identity, latest lease and event log.
        store = any_store
        submitted = {
            "type": "submitted",
            "job": "j1",
            "status": "pending",
            "spec": encode_job("s1"),
            "tenant": "acme",
            "fingerprint": "a" * 16,
        }
        lease = {"type": "leased", "job": "j1", "worker": "w0", "expiry": 7.0}
        for record in [
            submitted,
            {"type": "running", "job": "j1", "status": "running"},
            lease,
            {"type": "event", "job": "j1", "seq": 1, "event": {"kind": "vc_selected"}},
            {"type": "event", "job": "j1", "seq": 2, "event": {"kind": "solved"}},
            {"type": "submitted", "job": "j2", "status": "pending", "spec": encode_job("s2")},
            {"type": "settled", "job": "j2", "status": "done"},
            {"type": "degraded", "from": "fleet", "to": "inline", "reason": "test", "jobs": []},
        ]:
            store.append(record)
        jobs = store.load_jobs()
        assert list(jobs) == ["j1", "j2"]
        assert jobs["j1"].last == {"type": "running", "job": "j1", "status": "running"}
        assert jobs["j1"].spec == submitted["spec"] and jobs["j1"].resumable
        assert jobs["j1"].tenant == "acme"
        assert jobs["j1"].fingerprint == "a" * 16
        assert jobs["j1"].lease == lease
        assert jobs["j2"].last == {"type": "settled", "job": "j2", "status": "done"}
        assert jobs["j2"].spec == encode_job("s2") and jobs["j2"].lease is None
        assert store.load_events("j1") == [(1, {"kind": "vc_selected"}), (2, {"kind": "solved"})]
        assert store.load_events("j2") == []

    def test_degraded_annotation_creates_no_job(self, any_store):
        store = any_store
        store.record_degraded("fleet", "pool", "all workers lost", jobs=["a", "b"])
        assert store.load_jobs() == {}

    def test_handles_sharing_a_store_replay_in_write_order(self, tmp_path):
        # Two services on one file (the case StoredJob.deferred exists for):
        # both handles are open before either writes, so neither has seen
        # the other's rows, yet replay must follow the order of the writes.
        path = tmp_path / "shared.sqlite"
        first, second = SQLiteJobStore(path, fsync=False), SQLiteJobStore(path, fsync=False)
        try:
            for name in ("j1", "j2", "j3"):
                first.append({"type": "submitted", "job": name, "status": "pending"})
            second.append({"type": "submitted", "job": "j4", "status": "pending"})
            first.append({"type": "running", "job": "j2", "status": "running"})
            order = ["j1", "j3", "j4", "j2"]  # an update moves a job last
            for store in (first, second):
                assert list(store.load_jobs()) == order
                assert [job.name for job in store.query_jobs()] == order
        finally:
            first.close()
            second.close()


class TestOpenJobStore:
    def test_scheme_selects_backend(self, tmp_path):
        sq = open_job_store(f"sqlite:{tmp_path / 'a'}")
        assert isinstance(sq, SQLiteJobStore) and sq.path == str(tmp_path / "a")
        sq.close()
        sq2 = open_job_store(f"sqlite://{tmp_path / 'b'}")
        assert isinstance(sq2, SQLiteJobStore) and sq2.path == str(tmp_path / "b")
        sq2.close()

    def test_extension_selects_sqlite(self, tmp_path):
        for suffix in (".sqlite", ".sqlite3", ".db"):
            store = open_job_store(tmp_path / f"jobs{suffix}")
            assert isinstance(store, SQLiteJobStore), suffix
            store.close()

    def test_plain_path_opens_sqlite(self, tmp_path):
        store = open_job_store(tmp_path / "jobs")
        assert isinstance(store, SQLiteJobStore)
        store.close()

    def test_explicit_scheme_beats_extension(self, tmp_path):
        # sqlite:…/jobs.jsonl is a new SQLite store whose name happens to
        # end in .jsonl; only an unprefixed *.jsonl path means a legacy log.
        store = open_job_store(f"sqlite:{tmp_path / 'jobs.jsonl'}")
        assert isinstance(store, SQLiteJobStore)
        store.close()

    def test_store_like_object_passes_through(self, any_store):
        assert open_job_store(any_store) is any_store

    def test_fsync_flag_propagates(self, tmp_path):
        store = open_job_store(tmp_path / "a.sqlite", fsync=False)
        assert store.fsync is False
        store.close()


class TestLegacyJsonlInputs:
    """A JSONL log fails loudly at every entry point."""

    @staticmethod
    def _refused_everywhere(target):
        from repro.server.__main__ import main as server_main
        from repro.service import MigrationService

        entry_points = {
            "open_job_store": open_job_store,
            "MigrationService(job_store=)": lambda t: MigrationService(job_store=t),
            "MigrationService.resume": MigrationService.resume,
            "python -m repro.server --store": lambda t: server_main(["--store", str(t)]),
        }
        for name, entry in entry_points.items():
            with pytest.raises(JobStoreFormatError, match="is not a SQLite job store"):
                entry(target)
                pytest.fail(f"{name} accepted {target}")

    def test_jsonl_url_is_refused(self, tmp_path):
        self._refused_everywhere(f"jsonl:{tmp_path / 'jobs.db'}")
        assert not (tmp_path / "jobs.db").exists()

    def test_jsonl_path_is_refused(self, tmp_path):
        self._refused_everywhere(tmp_path / "jobs.jsonl")
        assert not (tmp_path / "jobs.jsonl").exists()

    def test_existing_jsonl_log_is_refused(self, tmp_path):
        # Any name: the file's content, not its suffix, gives it away.
        log = tmp_path / "batch.log"
        _write_lines(log, [json.dumps({"type": "submitted", "job": "j1", "status": "pending"})])
        before = log.read_bytes()
        self._refused_everywhere(log)
        with pytest.raises(JobStoreFormatError, match="is not a SQLite job store"):
            SQLiteJobStore(log)
        assert log.read_bytes() == before  # refused, not overwritten
