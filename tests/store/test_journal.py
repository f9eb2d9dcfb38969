"""Journal: append/replay roundtrips, corruption detection, repair, recovery."""

import json
import threading

import pytest

from repro.obs.metrics import ALL_PHASES, ALL_WORKERS
from repro.obs.sink import RecordingSink
from repro.store.cache import ResultStore
from repro.store.journal import JOURNAL_FORMAT, JOURNAL_STATES, Journal, JournalRecord


def make_journal(tmp_path, *, sink=None):
    store = ResultStore(str(tmp_path / "cache"))
    return store, Journal(store, sink=sink)


class TestRoundtrip:
    def test_append_replay_roundtrip(self, tmp_path):
        _, journal = make_journal(tmp_path)
        journal.append("accepted", "fp1", job="job-1", owner="w1")
        journal.append("claimed", "fp1", owner="w1")
        replay = journal.replay()
        assert replay.corrupt == 0
        assert replay.records == (
            JournalRecord(cell="fp1", state="accepted", job="job-1", owner="w1"),
            JournalRecord(cell="fp1", state="claimed", job=None, owner="w1"),
        )

    def test_append_many_counts_records(self, tmp_path):
        _, journal = make_journal(tmp_path)
        assert journal.append_many("accepted", ["a", "b", "c"], job="j") == 3
        assert len(journal.replay().records) == 3

    def test_empty_journal_replays_clean(self, tmp_path):
        _, journal = make_journal(tmp_path)
        replay = journal.replay()
        assert replay.records == () and replay.corrupt == 0

    def test_unknown_state_is_rejected(self, tmp_path):
        _, journal = make_journal(tmp_path)
        with pytest.raises(ValueError, match="state"):
            journal.append("exploded", "fp1")

    def test_states_cover_the_lifecycle(self):
        assert JOURNAL_STATES == ("accepted", "claimed", "computed", "flushed")


class TestCorruption:
    def seed(self, journal, count=3):
        for i in range(count):
            journal.append("accepted", f"fp{i}", job="j")

    def test_truncated_tail_is_detected_and_skipped(self, tmp_path):
        _, journal = make_journal(tmp_path)
        self.seed(journal)
        with open(journal.path) as fh:
            lines = fh.readlines()
        with open(journal.path, "w") as fh:
            fh.writelines(lines[:-1])
            fh.write(lines[-1][: len(lines[-1]) // 2])  # SIGKILL mid-append
        replay = journal.replay()
        assert replay.corrupt == 1
        assert [r.cell for r in replay.records] == ["fp0", "fp1"]

    def test_append_after_a_torn_tail_stays_whole(self, tmp_path):
        _, journal = make_journal(tmp_path)
        self.seed(journal)
        with open(journal.path, "rb+") as fh:
            fh.truncate(fh.seek(0, 2) - 10)  # SIGKILL mid-append
        journal.append("flushed", "after")
        replay = journal.replay()
        assert replay.corrupt == 1
        assert [r.cell for r in replay.records] == ["fp0", "fp1", "after"]

    def test_bit_flipped_checksum_is_detected(self, tmp_path):
        _, journal = make_journal(tmp_path)
        self.seed(journal)
        with open(journal.path) as fh:
            lines = fh.readlines()
        record = json.loads(lines[1])
        digest = record["sha256"]
        record["sha256"] = ("0" if digest[0] != "0" else "1") + digest[1:]
        lines[1] = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        with open(journal.path, "w") as fh:
            fh.writelines(lines)
        replay = journal.replay()
        assert replay.corrupt == 1
        assert [r.cell for r in replay.records] == ["fp0", "fp2"]

    def test_tampered_payload_fails_its_checksum(self, tmp_path):
        _, journal = make_journal(tmp_path)
        self.seed(journal, count=1)
        with open(journal.path) as fh:
            line = fh.readline()
        record = json.loads(line)
        record["cell"] = "fp-evil"  # checksum now disagrees
        with open(journal.path, "w") as fh:
            fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
        replay = journal.replay()
        assert replay.corrupt == 1 and replay.records == ()

    def test_wrong_format_tag_reads_as_corrupt(self, tmp_path):
        _, journal = make_journal(tmp_path)
        with open(journal.path, "w") as fh:
            fh.write('{"format": "someone-else/9", "cell": "x"}\n')
            fh.write("not json at all\n")
        replay = journal.replay()
        assert replay.corrupt == 2

    def test_replay_continues_past_interior_corruption(self, tmp_path):
        _, journal = make_journal(tmp_path)
        journal.append("accepted", "before", job="j")
        with open(journal.path, "a") as fh:
            fh.write("garbage{line\n")
        journal.append("accepted", "after", job="j")
        replay = journal.replay()
        assert replay.corrupt == 1
        assert [r.cell for r in replay.records] == ["before", "after"]

    def test_interleaved_concurrent_appends_stay_whole(self, tmp_path):
        store, _ = make_journal(tmp_path)
        journals = [Journal(store) for _ in range(4)]  # one per "process"

        def writer(journal, tag):
            for i in range(25):
                journal.append("accepted", f"{tag}-{i}", job=tag)

        threads = [
            threading.Thread(target=writer, args=(j, f"w{k}"))
            for k, j in enumerate(journals)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        replay = journals[0].replay()
        assert replay.corrupt == 0
        assert len(replay.records) == 100
        assert {r.cell for r in replay.records} == {
            f"w{k}-{i}" for k in range(4) for i in range(25)
        }


class TestRepair:
    def test_repair_quarantines_and_replay_converges(self, tmp_path):
        sink = RecordingSink()
        _, journal = make_journal(tmp_path, sink=sink)
        journal.append("accepted", "good-1", job="j")
        with open(journal.path, "a") as fh:
            fh.write("torn-line-no-json\n")
        journal.append("accepted", "good-2", job="j")

        assert journal.repair() == 1
        replay = journal.replay()
        assert replay.corrupt == 0
        assert [r.cell for r in replay.records] == ["good-1", "good-2"]
        with open(journal.quarantine_path) as fh:
            assert "torn-line-no-json" in fh.read()
        key = ("journal", ALL_WORKERS, ALL_PHASES)
        assert sink.metrics.counter("store_journal_corrupt").get(key) == 1

    def test_repair_on_clean_journal_is_a_noop(self, tmp_path):
        _, journal = make_journal(tmp_path)
        journal.append("accepted", "fp", job="j")
        assert journal.repair() == 0
        assert len(journal.replay().records) == 1

    def test_append_events_hit_the_sink(self, tmp_path):
        sink = RecordingSink()
        _, journal = make_journal(tmp_path, sink=sink)
        journal.append_many("accepted", ["a", "b"], job="j")
        key = ("journal", ALL_WORKERS, ALL_PHASES)
        assert sink.metrics.counter("store_journal_append").get(key) == 2


class TestJobRecovery:
    def test_unknown_job_is_none(self, tmp_path):
        _, journal = make_journal(tmp_path)
        assert journal.job_status("nope") is None

    def test_accepted_only_job_is_all_pending(self, tmp_path):
        _, journal = make_journal(tmp_path)
        journal.append_many("accepted", ["a", "b"], job="j1")
        status = journal.job_status("j1")
        assert status["pending"] == ["a", "b"] and not status["done"]

    def test_progress_records_advance_member_cells(self, tmp_path):
        _, journal = make_journal(tmp_path)
        journal.append_many("accepted", ["a", "b"], job="j1")
        for state in ("claimed", "computed", "flushed"):
            journal.append(state, "a", owner="w1")  # progress carries no job
        status = journal.job_status("j1")
        assert status["finished"] == ["a"]
        assert status["pending"] == ["b"]
        assert status["cells"] == {"a": "flushed", "b": "accepted"}

    def test_store_presence_counts_as_finished(self, tmp_path):
        store, journal = make_journal(tmp_path)
        fp = store.put({"probe": 1}, {"value": 2.0}, kind="probe")
        journal.append("accepted", fp, job="j1")
        # No flushed record (writer died post-put), but the entry exists.
        status = journal.job_status("j1", store=store)
        assert status["done"] and status["finished"] == [fp]

    def test_jobs_lists_accepted_job_ids(self, tmp_path):
        _, journal = make_journal(tmp_path)
        journal.append("accepted", "a", job="j2")
        journal.append("accepted", "b", job="j1")
        journal.append("claimed", "c", job="j9")  # not an acceptance
        assert journal.jobs() == ["j1", "j2"]

    def test_status_reports_corrupt_record_count(self, tmp_path):
        _, journal = make_journal(tmp_path)
        journal.append("accepted", "a", job="j1")
        with open(journal.path, "a") as fh:
            fh.write("zzz\n")
        assert journal.job_status("j1")["corrupt_records"] == 1

    def test_format_tag_is_stable(self, tmp_path):
        _, journal = make_journal(tmp_path)
        journal.append("accepted", "a", job="j1")
        with open(journal.path) as fh:
            record = json.loads(fh.readline())
        assert record["format"] == JOURNAL_FORMAT
