"""Content-addressed result cache, claims and journal for resumable sweeps.

Paper-scale sweeps (``repro-experiments run all --scale paper``) are grids
of independent (strategy, platform, n, seed) cells — the canonical shape
for content-addressed memoization.  This package stores each cell's
aggregated result under a sha256 fingerprint of a canonical-JSON cache key
(strategy spec, platform spec, seed entropy, engine version tag, fault
schedule), so an interrupted sweep restarted with ``--resume --cache DIR``
recomputes only the missing cells and reproduces the uncached output bit
for bit.

Layered API:

* :mod:`repro.store.fingerprint` — canonical JSON, sha256 fingerprints,
  seed/spec tokens, the engine version tag;
* :mod:`repro.store.lock` — an advisory file lock so concurrent
  processes share one cache directory safely;
* :mod:`repro.store.cache` — :class:`ResultStore`, the on-disk object
  store with corruption detection and LRU garbage collection;
* :mod:`repro.store.cells` — cache keys/payloads for the experiment
  runner's replicate cells (:class:`~repro.utils.stats.Summary` values);
* :mod:`repro.store.results` — caching wrapper for single simulations
  (serialized :class:`~repro.simulator.results.SimulationResult` values);
* :mod:`repro.store.claims` — per-cell claim files with heartbeats and
  stale-claim stealing, so N processes share one cold store without
  duplicate computation (see docs/DISTRIBUTED.md);
* :mod:`repro.store.journal` — the append-only checksummed journal that
  lets a killed service answer "was my sweep finished?" and holds the
  per-CSV records ``repro-experiments run --resume`` skips figures by;
* :mod:`repro.store.cli` — the ``repro-store`` maintenance tool
  (``stats``/``ls``/``gc``/``verify``/``claims``/``journal``).
"""

from __future__ import annotations

from repro.store.cache import ResultStore, StoreCounts
from repro.store.cells import replicate_cell_key
from repro.store.claims import ClaimRegistry, HeartbeatTicker, drain_cells
from repro.store.fingerprint import (
    ENGINE_VERSION,
    canonical_json,
    fingerprint,
    seed_token,
    spec_token,
)
from repro.store.journal import Journal
from repro.store.lock import FileLock
from repro.store.results import run_cached_simulation

__all__ = [
    "ENGINE_VERSION",
    "ClaimRegistry",
    "FileLock",
    "HeartbeatTicker",
    "Journal",
    "ResultStore",
    "StoreCounts",
    "canonical_json",
    "drain_cells",
    "fingerprint",
    "replicate_cell_key",
    "run_cached_simulation",
    "seed_token",
    "spec_token",
]
