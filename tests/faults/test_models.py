"""Tests for the pre-drawn fault models."""

import math

import pytest

from repro.faults.models import AssignmentLoss, FaultSchedule, Slowdown, WorkerCrash


class TestEventValidation:
    def test_crash_fields(self):
        c = WorkerCrash(3, 1.5, 0.5)
        assert c.restart_time == 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"worker": -1, "time": 0.0, "downtime": 1.0},
            {"worker": 0, "time": -0.1, "downtime": 1.0},
            {"worker": 0, "time": 0.0, "downtime": 0.0},
            {"worker": 0, "time": 0.0, "downtime": -1.0},
        ],
    )
    def test_crash_rejects(self, kwargs):
        with pytest.raises(ValueError):
            WorkerCrash(**kwargs)

    def test_slowdown_fields(self):
        s = Slowdown(0, 1.0, 2.0, 3.0)
        assert s.end == 3.0

    @pytest.mark.parametrize("factor", [0.0, 0.5, -2.0])
    def test_slowdown_rejects_factor_below_one(self, factor):
        with pytest.raises(ValueError):
            Slowdown(0, 0.0, 1.0, factor)

    def test_loss_rejects_negative(self):
        with pytest.raises(ValueError):
            AssignmentLoss(0, -1)
        with pytest.raises(ValueError):
            AssignmentLoss(-1, 0)


class TestSchedule:
    def test_empty(self):
        s = FaultSchedule.empty()
        assert s.is_empty
        assert len(s) == 0
        assert s.max_worker == -1

    def test_normalizes_order(self):
        a = FaultSchedule(crashes=(WorkerCrash(1, 5.0, 1.0), WorkerCrash(0, 2.0, 1.0)))
        b = FaultSchedule(crashes=(WorkerCrash(0, 2.0, 1.0), WorkerCrash(1, 5.0, 1.0)))
        assert a == b
        assert a.crashes[0].worker == 0

    def test_rejects_overlapping_crashes(self):
        with pytest.raises(ValueError, match="already down"):
            FaultSchedule(crashes=(WorkerCrash(0, 1.0, 5.0), WorkerCrash(0, 3.0, 1.0)))

    def test_back_to_back_crashes_ok(self):
        after_restart = math.nextafter(2.0, math.inf)
        s = FaultSchedule(crashes=(WorkerCrash(0, 1.0, 1.0), WorkerCrash(0, after_restart, 1.0)))
        assert len(s) == 2

    def test_rejects_crash_at_restart_time(self):
        # The crash event would pop before the queued restart, which would
        # then be scheduled from a stale crash record, back in time.
        crashes = (WorkerCrash(0, 1.0, 1.0), WorkerCrash(0, 2.0, 1.0), WorkerCrash(0, 5.0, 1.0))
        with pytest.raises(ValueError, match="already down"):
            FaultSchedule(crashes=crashes)

    def test_rejects_duplicate_losses(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultSchedule(losses=(AssignmentLoss(0, 3), AssignmentLoss(0, 3)))

    def test_max_worker(self):
        s = FaultSchedule(
            crashes=(WorkerCrash(2, 1.0, 1.0),),
            slowdowns=(Slowdown(5, 0.0, 1.0, 2.0),),
            losses=(AssignmentLoss(1, 0),),
        )
        assert s.max_worker == 5


class TestDraw:
    def test_empty_rates_give_empty_schedule(self):
        assert FaultSchedule.draw(8, 10.0, rng=0).is_empty

    def test_deterministic_given_seed(self):
        a = FaultSchedule.draw(6, 50.0, rng=42, crash_rate=0.2, loss_prob=0.1, slowdown_rate=0.1)
        b = FaultSchedule.draw(6, 50.0, rng=42, crash_rate=0.2, loss_prob=0.1, slowdown_rate=0.1)
        assert a == b

    def test_different_seeds_differ(self):
        a = FaultSchedule.draw(6, 50.0, rng=1, crash_rate=0.5)
        b = FaultSchedule.draw(6, 50.0, rng=2, crash_rate=0.5)
        assert a != b

    def test_per_worker_streams_invariant_under_p(self):
        """Adding workers must not perturb existing workers' faults."""
        small = FaultSchedule.draw(4, 50.0, rng=7, crash_rate=0.3, slowdown_rate=0.2, loss_prob=0.05)
        big = FaultSchedule.draw(9, 50.0, rng=7, crash_rate=0.3, slowdown_rate=0.2, loss_prob=0.05)
        for w in range(4):
            assert [c for c in small.crashes if c.worker == w] == [
                c for c in big.crashes if c.worker == w
            ]
            assert [s for s in small.slowdowns if s.worker == w] == [
                s for s in big.slowdowns if s.worker == w
            ]
            assert [x for x in small.losses if x.worker == w] == [
                x for x in big.losses if x.worker == w
            ]

    def test_crashes_within_horizon(self):
        s = FaultSchedule.draw(5, 20.0, rng=3, crash_rate=1.0)
        assert s.crashes
        assert all(0.0 <= c.time < 20.0 for c in s.crashes)
        assert all(c.downtime > 0.0 for c in s.crashes)

    def test_no_overlap_in_drawn_crashes(self):
        # __post_init__ would raise if draw produced overlapping intervals.
        s = FaultSchedule.draw(3, 100.0, rng=11, crash_rate=5.0, mean_downtime=0.5)
        assert len(s.crashes) > 10

    def test_loss_prob_one_loses_everything(self):
        s = FaultSchedule.draw(2, 1.0, rng=0, loss_prob=1.0, max_requests=10)
        assert len(s.losses) == 20
        indices = sorted(x.request_index for x in s.losses if x.worker == 0)
        assert indices == list(range(10))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            FaultSchedule.draw(0, 1.0)
        with pytest.raises(ValueError):
            FaultSchedule.draw(2, 0.0)
        with pytest.raises(ValueError):
            FaultSchedule.draw(2, 1.0, crash_rate=-1.0)
        with pytest.raises(ValueError):
            FaultSchedule.draw(2, 1.0, loss_prob=1.5)
        with pytest.raises(ValueError):
            FaultSchedule.draw(2, 1.0, slowdown_factor=0.5)


class TestScaled:
    def test_scales_times_not_indices(self):
        s = FaultSchedule(
            crashes=(WorkerCrash(0, 1.0, 2.0),),
            slowdowns=(Slowdown(1, 3.0, 1.0, 4.0),),
            losses=(AssignmentLoss(2, 5),),
        )
        doubled = s.scaled(2.0)
        assert doubled.crashes[0].time == 2.0
        assert doubled.crashes[0].downtime == 4.0
        assert doubled.slowdowns[0].start == 6.0
        assert doubled.slowdowns[0].factor == 4.0  # severity untouched
        assert doubled.losses == s.losses

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            FaultSchedule.empty().scaled(0.0)
