"""Tests for repro.taskpool.outer_pool."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.taskpool.outer_pool import OuterTaskPool


def _empty():
    return np.empty(0, dtype=np.int64)


class TestBasics:
    def test_initial_state(self):
        pool = OuterTaskPool(4)
        assert pool.total == 16
        assert pool.remaining == 16
        assert not pool.done
        assert not pool.is_processed(0, 0)

    def test_mark_task(self):
        pool = OuterTaskPool(3)
        assert pool.mark_task(1, 2) is True
        assert pool.is_processed(1, 2)
        assert pool.remaining == 8
        assert pool.mark_task(1, 2) is False
        assert pool.remaining == 8

    def test_done_after_all(self):
        pool = OuterTaskPool(2)
        for i in range(2):
            for j in range(2):
                pool.mark_task(i, j)
        assert pool.done

    def test_unprocessed_ids(self):
        pool = OuterTaskPool(2)
        pool.mark_task(0, 1)
        ids = pool.unprocessed_ids()
        assert sorted(ids.tolist()) == [0, 2, 3]  # flat = i*2+j

    def test_processed_view_read_only(self):
        pool = OuterTaskPool(2)
        view = pool.processed_view()
        with pytest.raises(ValueError):
            view[0, 0] = True


class TestMarkCross:
    def test_first_cross_single_cell(self):
        pool = OuterTaskPool(4)
        count, _ = pool.mark_cross(1, 2, _empty(), _empty())
        assert count == 1
        assert pool.is_processed(1, 2)

    def test_full_cross(self):
        pool = OuterTaskPool(4)
        rows = np.array([0])
        cols = np.array([3])
        count, _ = pool.mark_cross(1, 2, rows, cols)
        # cells: (1,2), (1,3), (0,2)
        assert count == 3
        assert pool.is_processed(1, 2)
        assert pool.is_processed(1, 3)
        assert pool.is_processed(0, 2)
        assert not pool.is_processed(0, 3)

    def test_cross_skips_processed(self):
        pool = OuterTaskPool(4)
        pool.mark_task(1, 3)
        count, _ = pool.mark_cross(1, 2, _empty(), np.array([3]))
        assert count == 1  # only (1,2); (1,3) was already processed

    def test_row_only(self):
        pool = OuterTaskPool(4)
        count, _ = pool.mark_cross(2, None, _empty(), np.array([0, 1]))
        assert count == 2
        assert pool.is_processed(2, 0) and pool.is_processed(2, 1)

    def test_col_only(self):
        pool = OuterTaskPool(4)
        count, _ = pool.mark_cross(None, 1, np.array([0, 3]), _empty())
        assert count == 2
        assert pool.is_processed(0, 1) and pool.is_processed(3, 1)

    def test_remaining_consistent(self):
        pool = OuterTaskPool(5)
        pool.mark_cross(0, 0, _empty(), _empty())
        pool.mark_cross(1, 1, np.array([0]), np.array([0]))
        unmarked = np.count_nonzero(~pool.processed_view())
        assert pool.remaining == unmarked

    def test_collect_ids(self):
        pool = OuterTaskPool(4, collect_ids=True)
        count, ids = pool.mark_cross(1, 2, np.array([0]), np.array([3]))
        assert ids is not None
        assert count == ids.size == 3
        assert set(ids.tolist()) == {1 * 4 + 2, 1 * 4 + 3, 0 * 4 + 2}

    def test_collect_ids_empty(self):
        pool = OuterTaskPool(3, collect_ids=True)
        pool.mark_task(0, 0)
        count, ids = pool.mark_cross(0, 0, _empty(), _empty())
        assert count == 0
        assert ids is not None and ids.size == 0

    def test_no_ids_by_default(self):
        pool = OuterTaskPool(3)
        _, ids = pool.mark_cross(0, 0, _empty(), _empty())
        assert ids is None


class TestMarkAll:
    def test_marks_everything(self):
        pool = OuterTaskPool(3)
        pool.mark_task(1, 1)
        count, _ = pool.mark_all()
        assert count == 8
        assert pool.done
        assert pool.remaining == 0

    def test_collect_ids(self):
        pool = OuterTaskPool(2, collect_ids=True)
        pool.mark_task(0, 0)
        count, ids = pool.mark_all()
        assert count == 3
        assert sorted(ids.tolist()) == [1, 2, 3]


class TestPropertyExactlyOnce:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 2**32 - 1))
    def test_random_crosses_never_double_count(self, n, seed):
        """Marked-count accounting must equal the bitmap ground truth."""
        rng = np.random.default_rng(seed)
        pool = OuterTaskPool(n)
        total_counted = 0
        for _ in range(2 * n):
            def pick():
                new = int(rng.integers(n))
                others = np.setdiff1d(np.arange(n), [new])
                size = int(rng.integers(0, others.size + 1))
                return new, rng.choice(others, size=size, replace=False).astype(np.int64)

            i, rows = pick()
            j, cols = pick()
            count, _ = pool.mark_cross(i, j, rows, cols)
            total_counted += count
            assert pool.remaining == pool.total - total_counted
        assert np.count_nonzero(pool.processed_view()) == total_counted


def _reference_cross(processed, i, j, rows, cols):
    """Plain-Python cross marking: centre, row arm in *cols* order, column arm in *rows* order."""
    n = len(processed)
    cells = []
    if i is not None and j is not None:
        cells.append((i, j))
    if i is not None:
        cells.extend((i, int(c)) for c in cols)
    if j is not None:
        cells.extend((int(r), j) for r in rows)
    ids = []
    for r, c in cells:
        if not processed[r][c]:
            processed[r][c] = True
            ids.append(r * n + c)
    return ids


class TestMarkCrossReference:
    """``_mark_cross`` against the plain-Python walk, call after call."""

    @pytest.mark.parametrize("collect_ids", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_crosses_match(self, seed, collect_ids):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        pool = OuterTaskPool(n, collect_ids=collect_ids)
        processed = [[False] * n for _ in range(n)]
        for _ in range(3 * n):
            i = int(rng.integers(n))
            j = int(rng.integers(n))
            rows = rng.permutation(np.delete(np.arange(n), i))[: rng.integers(n)]
            cols = rng.permutation(np.delete(np.arange(n), j))[: rng.integers(n)]
            i_arg = None if rng.random() < 0.2 else i
            j_arg = None if rng.random() < 0.2 else j
            expected = _reference_cross(processed, i_arg, j_arg, rows, cols)
            count, ids = pool._mark_cross(i_arg, j_arg, rows, cols)
            assert count == len(expected)
            if collect_ids:
                assert ids is not None and ids.dtype == np.int64
                assert ids.tolist() == expected  # order included
            else:
                assert ids is None
            assert pool.processed_view().tolist() == processed
            assert pool.remaining == n * n - sum(map(sum, processed))

    @pytest.mark.parametrize(
        "i, j, rows, cols, expected",
        [
            (1, 2, [3, 0], [0, 3], [6, 4, 7, 14, 2]),
            (1, None, [3, 0], [0, 3], [4, 7]),
            (None, 2, [3, 0], [0, 3], [14, 2]),
            (None, None, [3, 0], [0, 3], []),
            (1, 2, [], [], [6]),
        ],
    )
    def test_id_order(self, i, j, rows, cols, expected):
        pool = OuterTaskPool(4, collect_ids=True)
        count, ids = pool._mark_cross(
            i, j, np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)
        )
        assert count == len(expected)
        assert ids is not None and ids.tolist() == expected
