"""The two-phase close-out against its exact expectation, given phase 1.

Under static speeds the phase-2 schedule of a Dynamic*2Phases fork is
fixed: worker ``k`` takes ``T_k`` of the ``R`` open tasks, as the resumed
heap (:func:`_pop_schedule`) says, and since the tasks come from uniform
swap-remove draws, its task set is a uniform ``T_k``-subset of the open
pool.  A block ``b`` missing from ``k``'s seeded caches is shipped iff
one of those tasks needs it, so

    E[phase-2 blocks of k] = sum_b 1 - C(R - r_b, T_k) / C(R, T_k)

over the blocks ``k`` lacks, with ``r_b`` the open tasks that need ``b``.
The forks here are synthetic: random known index sets per worker, and
the open pool equal to the tasks outside every worker's rectangle
(outer) or box (matrix), which is where phase 1 leaves them.
"""

from math import comb

import numpy as np
import pytest

from repro.simulator.vector_kernels import _PHASE2, _close_out, _Fork, _pop_schedule

#: A worker's mean may sit this many standard errors from the exact value.
TOLERANCE_SE = 4.0


def synthetic_fork(outer, n, p, rng):
    """A fork with random knowledge; returns it, the known sets and the open grid."""
    dims = 2 if outer else 3
    d = 1.0 / rng.uniform(10.0, 100.0, p)
    known = [
        [rng.choice(n, size=int(rng.integers(1, n // 2 + 1)), replace=False) for _ in range(dims)]
        for _ in range(p)
    ]
    order = np.zeros((dims, p, n), dtype=np.int64)
    cnt = np.zeros((dims, p), dtype=np.int64)
    grid = np.ones((n,) * dims, dtype=bool)
    for w, sets in enumerate(known):
        for dim, indices in enumerate(sets):
            order[dim, w, : indices.size] = indices
            cnt[dim, w] = indices.size
        grid[np.ix_(*sets)] = False
    pool = np.flatnonzero(grid.reshape(-1))
    fork = _Fork(d, int(pool.size), rng.uniform(0.0, d), rng.permutation(p), pool, (order, cnt))
    return fork, known, grid


def needs(outer, grid, sets):
    """``r_b`` of every block a worker with index *sets* lacks."""
    n = grid.shape[0]
    if outer:
        rows, cols = (set(s.tolist()) for s in sets)
        return [int(grid[i].sum()) for i in range(n) if i not in rows] + [
            int(grid[:, j].sum()) for j in range(n) if j not in cols
        ]
    rows, cols, deps = (set(s.tolist()) for s in sets)
    out = []
    for x in range(n):
        for y in range(n):
            if not (x in rows and y in deps):  # A(i, k)
                out.append(int(grid[x, :, y].sum()))
            if not (x in deps and y in cols):  # B(k, j)
                out.append(int(grid[:, y, x].sum()))
            if not (x in rows and y in cols):  # C(i, j)
                out.append(int(grid[x, y].sum()))
    return out


def exact_blocks(outer, fork, known, grid):
    """Each worker's expected phase-2 blocks."""
    total = fork.remaining
    counts = _pop_schedule(fork.d, total, t0=fork.t0, rank0=fork.rank0)[2]
    return np.array(
        [
            sum(1.0 - comb(total - r, int(t)) / comb(total, int(t)) for r in needs(outer, grid, sets))
            for sets, t in zip(known, counts.tolist())
        ]
    )


@pytest.mark.parametrize(
    "outer, n, p, forks, draws",
    [(True, 12, 4, 3, 2000), (False, 6, 4, 2, 1500)],
    ids=["outer", "matrix"],
)
def test_phase2_blocks_match_exact_expectation(outer, n, p, forks, draws):
    rng = np.random.default_rng(2014)
    for _ in range(forks):
        fork, known, grid = synthetic_fork(outer, n, p, rng)
        exact = exact_blocks(outer, fork, known, grid)
        blocks = np.array(
            [
                _close_out(fork, [_PHASE2], outer, n, np.random.default_rng(seed))[0].per_worker_blocks
                for seed in range(draws)
            ]
        )
        mean = blocks.mean(axis=0)
        se = blocks.std(axis=0, ddof=1) / np.sqrt(draws)
        assert np.all(np.abs(mean - exact) <= TOLERANCE_SE * se + 1e-9), (mean, exact, se)
