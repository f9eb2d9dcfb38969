"""Tests for repro.taskpool.sample_set — including uniformity properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.taskpool.sample_set import SampleSet


class TestConstruction:
    def test_full_by_default(self):
        s = SampleSet(10)
        assert len(s) == 10
        assert set(s) == set(range(10))

    def test_explicit_members(self):
        s = SampleSet(10, members=[2, 5, 7])
        assert len(s) == 3
        assert set(s) == {2, 5, 7}

    def test_empty_members(self):
        s = SampleSet(10, members=[])
        assert len(s) == 0
        assert not s

    def test_rejects_out_of_range_members(self):
        with pytest.raises(ValueError):
            SampleSet(5, members=[5])
        with pytest.raises(ValueError):
            SampleSet(5, members=[-1])

    def test_rejects_duplicate_members(self):
        with pytest.raises(ValueError):
            SampleSet(5, members=[1, 1])

    def test_rejects_zero_universe(self):
        with pytest.raises(ValueError):
            SampleSet(0)


class TestMembership:
    def test_contains(self):
        s = SampleSet(5, members=[1, 3])
        assert 1 in s and 3 in s
        assert 0 not in s and 2 not in s and 4 not in s

    def test_contains_out_of_universe(self):
        s = SampleSet(5)
        assert 7 not in s
        assert -1 not in s

    def test_contains_non_int(self):
        s = SampleSet(5)
        assert "a" not in s
        assert 1.5 not in s

    def test_members_array(self):
        s = SampleSet(6, members=[0, 2, 4])
        assert sorted(s.members().tolist()) == [0, 2, 4]


class TestMutation:
    def test_add_new(self):
        s = SampleSet(5, members=[])
        assert s.add(3) is True
        assert 3 in s and len(s) == 1

    def test_add_existing_noop(self):
        s = SampleSet(5)
        assert s.add(3) is False
        assert len(s) == 5

    def test_add_out_of_range(self):
        s = SampleSet(5)
        with pytest.raises(ValueError):
            s.add(5)

    def test_discard_present(self):
        s = SampleSet(5)
        assert s.discard(2) is True
        assert 2 not in s and len(s) == 4

    def test_discard_absent(self):
        s = SampleSet(5, members=[1])
        assert s.discard(2) is False
        assert len(s) == 1

    def test_discard_out_of_universe(self):
        s = SampleSet(5)
        assert s.discard(99) is False

    def test_add_after_discard(self):
        s = SampleSet(5)
        s.discard(2)
        assert s.add(2) is True
        assert set(s) == set(range(5))


class TestDraw:
    def test_draw_removes(self, rng):
        s = SampleSet(10)
        seen = set()
        for _ in range(10):
            v = s.draw(rng)
            assert v not in seen
            seen.add(v)
        assert seen == set(range(10))
        assert len(s) == 0

    def test_draw_empty_raises(self, rng):
        s = SampleSet(3, members=[])
        with pytest.raises(IndexError):
            s.draw(rng)

    def test_sample_keeps(self, rng):
        s = SampleSet(4)
        v = s.sample(rng)
        assert v in s
        assert len(s) == 4

    def test_sample_empty_raises(self, rng):
        s = SampleSet(3, members=[])
        with pytest.raises(IndexError):
            s.sample(rng)

    def test_draw_uniformity_chi2(self):
        """Draws from a fresh 8-element set must be uniform (chi^2 test)."""
        rng = np.random.default_rng(0)
        counts = np.zeros(8)
        trials = 8000
        for _ in range(trials):
            s = SampleSet(8)
            counts[s.draw(rng)] += 1
        expected = trials / 8
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        # 7 dof; 0.999 quantile ~ 24.3. Deterministic seed keeps this stable.
        assert chi2 < 24.3

    def test_first_draw_uniform_after_discards(self):
        """Uniformity must survive arbitrary interleaved discards."""
        rng = np.random.default_rng(1)
        counts = {1: 0, 3: 0, 4: 0}
        for _ in range(3000):
            s = SampleSet(6)
            s.discard(0)
            s.discard(2)
            s.discard(5)
            counts[s.draw(rng)] += 1
        vals = np.array(list(counts.values()), dtype=float)
        expected = 1000.0
        chi2 = float(np.sum((vals - expected) ** 2 / expected))
        assert chi2 < 13.8  # 2 dof, 0.999 quantile


@st.composite
def _ops(draw):
    universe = draw(st.integers(1, 40))
    ops = draw(
        st.lists(
            st.tuples(st.sampled_from(["add", "discard", "draw"]), st.integers(0, 39)),
            max_size=120,
        )
    )
    return universe, ops


class TestAgainstModel:
    @settings(max_examples=120, deadline=None)
    @given(_ops())
    def test_matches_python_set(self, case):
        """SampleSet behaves exactly like a python set under random ops."""
        universe, ops = case
        rng = np.random.default_rng(99)
        s = SampleSet(universe)
        model = set(range(universe))
        for op, v in ops:
            v = v % universe
            if op == "add":
                assert s.add(v) == (v not in model)
                model.add(v)
            elif op == "discard":
                assert s.discard(v) == (v in model)
                model.discard(v)
            else:  # draw
                if model:
                    got = s.draw(rng)
                    assert got in model
                    model.remove(got)
                else:
                    with pytest.raises(IndexError):
                        s.draw(rng)
            assert len(s) == len(model)
            assert set(s.members().tolist()) == model
