"""ClaimRegistry / HeartbeatTicker / drain_cells: cross-process arbitration."""

import json
import os
import threading
import time

import pytest

from repro.obs.metrics import ALL_PHASES, ALL_WORKERS
from repro.obs.sink import RecordingSink
from repro.store.cache import ResultStore
from repro.store.claims import (
    ClaimRegistry,
    DrainTimeout,
    HeartbeatTicker,
    drain_cells,
)
from repro.store.fingerprint import fingerprint
from repro.store.journal import Journal


class FakeClock:
    """A settable clock shared by every registry in a test."""

    def __init__(self, t=1000.0):
        self.t = t

    def __call__(self):
        return self.t


def make_pair(tmp_path, *, stale_after=10.0, clock=None, sink=None):
    store = ResultStore(str(tmp_path / "cache"))
    clock = clock or FakeClock()
    a = ClaimRegistry(store, stale_after=stale_after, clock=clock, sink=sink)
    b = ClaimRegistry(store, stale_after=stale_after, clock=clock, sink=sink)
    return store, a, b, clock


class TestClaimBasics:
    def test_first_claim_wins_second_is_denied(self, tmp_path):
        _, a, b, _ = make_pair(tmp_path)
        assert a.try_claim("fp1") is True
        assert b.try_claim("fp1") is False
        assert a.counts["claimed"] == 1
        assert b.counts["claimed"] == 0

    def test_reclaim_of_own_cell_is_idempotent(self, tmp_path):
        _, a, _, _ = make_pair(tmp_path)
        assert a.try_claim("fp1") is True
        assert a.try_claim("fp1") is True
        assert a.counts["claimed"] == 1  # one claim, not two

    def test_distinct_cells_do_not_contend(self, tmp_path):
        _, a, b, _ = make_pair(tmp_path)
        assert a.try_claim("fp1") and b.try_claim("fp2")

    def test_release_lets_peer_claim(self, tmp_path):
        _, a, b, _ = make_pair(tmp_path)
        a.try_claim("fp1")
        assert a.release("fp1") is True
        assert b.try_claim("fp1") is True
        assert a.counts["released"] == 1

    def test_release_of_unheld_cell_counts_lost(self, tmp_path):
        _, a, b, _ = make_pair(tmp_path)
        b.try_claim("fp1")
        assert a.release("fp1") is False
        assert a.counts["lost"] == 1
        # b still holds it: the foreign release must not have unlinked it.
        info = b.read_claim("fp1")
        assert info is not None and info.owner == b.owner

    def test_owner_tokens_are_distinct(self, tmp_path):
        _, a, b, _ = make_pair(tmp_path)
        assert a.owner != b.owner

    def test_claim_file_shape(self, tmp_path):
        store, a, _, clock = make_pair(tmp_path)
        a.try_claim("fp1")
        info = a.read_claim("fp1")
        assert info.fingerprint == "fp1"
        assert info.owner == a.owner
        assert info.pid == os.getpid()
        assert info.heartbeat == clock.t
        assert not a.is_stale(info)

    def test_stale_after_must_be_positive(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        with pytest.raises(ValueError, match="stale_after"):
            ClaimRegistry(store, stale_after=0)


class TestStealing:
    def test_stale_claim_is_stolen(self, tmp_path):
        _, a, b, clock = make_pair(tmp_path, stale_after=10.0)
        a.try_claim("fp1")
        clock.t += 11.0
        assert b.try_claim("fp1") is True
        assert b.counts["stolen"] == 1
        assert b.read_claim("fp1").owner == b.owner

    def test_live_claim_is_not_stolen(self, tmp_path):
        _, a, b, clock = make_pair(tmp_path, stale_after=10.0)
        a.try_claim("fp1")
        clock.t += 9.0
        assert b.try_claim("fp1") is False

    def test_heartbeat_prevents_steal(self, tmp_path):
        _, a, b, clock = make_pair(tmp_path, stale_after=10.0)
        a.try_claim("fp1")
        clock.t += 9.0
        assert a.heartbeat("fp1") is True
        clock.t += 9.0  # 18s after claim, 9s after heartbeat
        assert b.try_claim("fp1") is False

    def test_victim_release_after_steal_counts_lost(self, tmp_path):
        _, a, b, clock = make_pair(tmp_path, stale_after=10.0)
        a.try_claim("fp1")
        clock.t += 11.0
        b.try_claim("fp1")
        assert a.release("fp1") is False
        assert a.counts["lost"] == 1

    def test_victim_heartbeat_after_steal_reports_loss(self, tmp_path):
        _, a, b, clock = make_pair(tmp_path, stale_after=10.0)
        a.try_claim("fp1")
        clock.t += 11.0
        b.try_claim("fp1")
        assert a.heartbeat("fp1") is False

    def test_break_stale_sweeps_only_stale_claims(self, tmp_path):
        _, a, b, clock = make_pair(tmp_path, stale_after=10.0)
        a.try_claim("old")
        clock.t += 11.0
        a.try_claim("fresh")
        assert b.break_stale() == 1
        assert b.read_claim("old") is None
        assert b.read_claim("fresh") is not None

    def test_corrupt_fresh_claim_is_respected(self, tmp_path):
        store, a, b, _ = make_pair(tmp_path, stale_after=10.0)
        path = os.path.join(store.root, "claims", "fp1.json")
        with open(path, "w") as fh:
            fh.write("torn{write")
        # A fresh unreadable file might be a peer's in-progress write:
        # staleness falls back to real mtime age, which is ~0 here.
        assert b.try_claim("fp1") is False

    def test_corrupt_old_claim_is_broken(self, tmp_path):
        store, a, b, _ = make_pair(tmp_path, stale_after=10.0)
        path = os.path.join(store.root, "claims", "fp1.json")
        with open(path, "w") as fh:
            fh.write("torn{write")
        old = time.time() - 60.0
        os.utime(path, (old, old))
        assert b.try_claim("fp1") is True
        assert b.counts["stolen"] == 1


class TestObservability:
    def test_claim_steal_release_hit_the_sink(self, tmp_path):
        sink = RecordingSink()
        _, a, b, clock = make_pair(tmp_path, stale_after=10.0, sink=sink)
        a.try_claim("fp1")
        a.release("fp1")
        b.try_claim("fp1")
        clock.t += 11.0
        a.try_claim("fp1")  # steal
        key = ("claim", ALL_WORKERS, ALL_PHASES)
        counters = sink.metrics
        assert counters.counter("store_claim").get(key) == 2
        assert counters.counter("store_release").get(key) == 1
        assert counters.counter("store_steal").get(key) == 1

    def test_active_lists_claims_sorted(self, tmp_path):
        _, a, _, _ = make_pair(tmp_path)
        for fp in ("b", "a", "c"):
            a.try_claim(fp)
        assert [i.fingerprint for i in a.active()] == ["a", "b", "c"]


class TestHeartbeatTicker:
    def test_ticker_refreshes_heartbeats(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        reg = ClaimRegistry(store, stale_after=10.0)  # real clock
        reg.try_claim("fp1")
        before = reg.read_claim("fp1").heartbeat
        with reg.ticker(["fp1"], interval=0.02):
            deadline = time.time() + 5.0
            while reg.read_claim("fp1").heartbeat == before:
                assert time.time() < deadline, "ticker never refreshed"
                time.sleep(0.01)
        assert reg.read_claim("fp1").heartbeat > before

    def test_ticker_with_no_cells_never_starts(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        reg = ClaimRegistry(store)
        with reg.ticker([]) as ticker:
            assert ticker._thread is None

    def test_ticker_rejects_nonpositive_interval(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        reg = ClaimRegistry(store)
        with pytest.raises(ValueError, match="interval"):
            HeartbeatTicker(reg, ["fp"], interval=0.0)


def _put_cell(store, key):
    store.put(key, {"value": 1.0}, kind="probe")


class TestDrainCells:
    def keys(self, count):
        return {fingerprint({"probe": i}): {"probe": i} for i in range(count)}

    def test_single_worker_computes_everything(self, tmp_path):
        store, a, _, _ = make_pair(tmp_path)
        cells = self.keys(4)
        stats = drain_cells(store, cells, lambda k: _put_cell(store, k), claims=a)
        assert stats.computed == 4 and stats.cached == 0
        assert all(store.has_fingerprint(fp) for fp in cells)
        assert a.active() == []  # every claim released

    def test_second_worker_sees_cached_cells(self, tmp_path):
        store, a, b, _ = make_pair(tmp_path)
        cells = self.keys(3)
        drain_cells(store, cells, lambda k: _put_cell(store, k), claims=a)
        stats = drain_cells(store, cells, lambda k: _put_cell(store, k), claims=b)
        assert stats.computed == 0 and stats.cached == 3
        assert stats.total() == 3

    def test_journal_records_full_lifecycle(self, tmp_path):
        store, a, _, _ = make_pair(tmp_path)
        journal = Journal(store)
        cells = self.keys(2)
        drain_cells(
            store, cells, lambda k: _put_cell(store, k),
            claims=a, journal=journal, job="job-1",
        )
        replay = journal.replay()
        states = {}
        for record in replay.records:
            states.setdefault(record.cell, []).append(record.state)
        assert all(v == ["claimed", "computed", "flushed"] for v in states.values())
        status = journal.job_status("job-1", store=store)
        assert status is None  # membership needs "accepted" records, none were journaled

    def test_compute_error_releases_claim_and_reraises(self, tmp_path):
        store, a, b, _ = make_pair(tmp_path)
        cells = self.keys(1)

        def boom(_key):
            raise RuntimeError("engine died")

        with pytest.raises(RuntimeError, match="engine died"):
            drain_cells(store, cells, boom, claims=a)
        # The claim was released, so a peer can pick the cell up.
        fp = next(iter(cells))
        assert b.try_claim(fp) is True

    def test_foreign_live_claim_times_out(self, tmp_path):
        store, a, b, _ = make_pair(tmp_path)
        cells = self.keys(1)
        fp = next(iter(cells))
        a.try_claim(fp)  # a holds it and never finishes (fake clock: no staleness)
        with pytest.raises(DrainTimeout):
            drain_cells(
                store, cells, lambda k: _put_cell(store, k),
                claims=b, poll_interval=0.01, timeout=0.1,
            )

    def test_stale_foreign_claim_is_stolen_and_finished(self, tmp_path):
        store, a, b, clock = make_pair(tmp_path, stale_after=10.0)
        cells = self.keys(1)
        fp = next(iter(cells))
        a.try_claim(fp)
        clock.t += 11.0
        stats = drain_cells(store, cells, lambda k: _put_cell(store, k), claims=b)
        assert stats.computed == 1
        assert b.counts["stolen"] == 1
        assert store.has_fingerprint(fp)

    def test_two_threads_split_a_grid_without_duplicates(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        a = ClaimRegistry(store, stale_after=30.0)
        b = ClaimRegistry(store, stale_after=30.0)
        cells = self.keys(8)
        computed = []
        lock = threading.Lock()

        def compute(key):
            with lock:
                computed.append(fingerprint(key))
            _put_cell(store, key)

        results = {}

        def worker(name, reg):
            results[name] = drain_cells(
                store, cells, compute, claims=reg, poll_interval=0.01
            )

        threads = [
            threading.Thread(target=worker, args=("a", a)),
            threading.Thread(target=worker, args=("b", b)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(computed) == sorted(cells)  # each cell exactly once
        assert results["a"].total() == len(cells)
        assert results["b"].total() == len(cells)
        assert results["a"].computed + results["b"].computed == len(cells)

    def test_poll_interval_must_be_positive(self, tmp_path):
        store, a, _, _ = make_pair(tmp_path)
        with pytest.raises(ValueError, match="poll_interval"):
            drain_cells(store, {}, lambda k: None, claims=a, poll_interval=0)

    def test_cell_stored_between_probe_and_claim_counts_cached(self, tmp_path):
        store, a, peer, _ = make_pair(tmp_path)
        cells = self.keys(3)
        raced = list(cells)[1]
        assert peer.try_claim(raced)

        class PeerFinishesFirst(ClaimRegistry):
            """Lets the peer store *raced* and release it inside the claim."""

            def try_claim(self, fp):
                if fp == raced:
                    _put_cell(store, cells[fp])
                    peer.release(fp)
                return super().try_claim(fp)

        drainer = PeerFinishesFirst(store, owner=a.owner + "-drainer")
        journal = Journal(store)
        computed = []

        def compute(key):
            computed.append(fingerprint(key))
            _put_cell(store, key)

        stats = drain_cells(store, cells, compute, claims=drainer, journal=journal)
        assert (stats.computed, stats.cached) == (2, 1)
        assert raced not in computed
        assert drainer.active() == []  # the claim on the raced cell was released
        journaled = [r.cell for r in journal.replay().records if r.state == "computed"]
        assert sorted(journaled) == sorted(fp for fp in cells if fp != raced)
