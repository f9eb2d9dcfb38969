"""Task-pool substrate: the data structures behind every scheduling strategy.

This package provides

* :class:`~repro.taskpool.sample_set.SampleSet` — O(1) uniform sampling
  without replacement over a shrinking integer universe (swap-remove over a
  pre-sized buffer);
* :class:`~repro.taskpool.outer_pool.OuterTaskPool` — the ``n x n`` domain of
  outer-product block tasks with vectorized cross marking;
* :class:`~repro.taskpool.matrix_pool.MatrixTaskPool` — the ``n x n x n``
  domain of matmul block tasks with vectorized shell marking;
* per-worker knowledge trackers
  (:class:`~repro.taskpool.knowledge.VectorKnowledge`,
  :class:`~repro.taskpool.knowledge.CubeKnowledge`,
  :class:`~repro.taskpool.knowledge.BlockCache`).
"""

from repro.taskpool.knowledge import BlockCache, CubeKnowledge, VectorKnowledge
from repro.taskpool.matrix_pool import MatrixTaskPool
from repro.taskpool.outer_pool import OuterTaskPool
from repro.taskpool.sample_set import SampleSet

__all__ = [
    "SampleSet",
    "OuterTaskPool",
    "MatrixTaskPool",
    "VectorKnowledge",
    "CubeKnowledge",
    "BlockCache",
]
