"""Coordinator-free multi-worker sweeps over one shared store.

``repro-experiments run --workers N`` (N > 1) and ``--workers-external``
run figures through this module; there is no master process, the store
*is* the coordinator:

1. **Plan** — :func:`plan_figures` runs every requested figure generator
   under :func:`~repro.experiments.runner.collect_planned_cells`, which
   records the deterministic grid of work units instead of computing
   it: a figure point's vector-kernel cells of one product are one unit,
   every other replicate cell a unit of its own.  Every worker derives the
   identical plan from (figures, scale, seed).  A figure whose planning
   pass recorded no cell (ext01, ext02, ext03, flt01 and sec36 do not go
   through the replicate runner) already computed its real output, and
   the plan keeps it.
2. **Publish** — each figure's fingerprints are journaled as ``accepted``
   under a deterministic job id.
3. **Drain** — :func:`repro.store.claims.drain_units` walks the units of
   every figure in one pass: cells already in the store are skipped, the
   other members of a unit are claimed one cell fingerprint at a time,
   the members this process won are computed in one
   :func:`~repro.experiments.runner.average_normalized_comm_group` call,
   and members claimed elsewhere are revisited until their owner
   finishes — or dies, goes stale, and is stolen from.  ``--workers N``
   starts N − 1 local helper processes that drain the same units.
4. **Assemble** — the caller re-runs the generators normally with the
   store as cache; every cell is a hit, so the CSVs are byte-identical to
   a single-process run.

Claim files and journal records stay per cell, so CLI workers and
``repro-serve`` instances arbitrate in one namespace.  All timing
(polling, staleness) lives in :mod:`repro.store.claims`; this module stays
clock-free, as A-TAINT requires of ``repro.experiments``.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Union

from repro.experiments.config import FigureData
from repro.experiments.figures import generate
from repro.experiments.runner import PlannedUnit, average_normalized_comm_group, collect_planned_cells
from repro.store.cache import ResultStore
from repro.store.claims import ClaimRegistry, DrainStats, DrainUnit, drain_units
from repro.store.fingerprint import ENGINE_VERSION, fingerprint, seed_token
from repro.store.journal import Journal
from repro.utils.rng import SeedLike

__all__ = [
    "FigurePlan",
    "drain_plans",
    "drain_summary",
    "external_job_id",
    "plan_figures",
]

#: Schema tag fingerprinted into external-mode job ids.
_JOB_SCHEMA = "repro.store.job/1"


@dataclass(frozen=True)
class FigurePlan:
    """One figure's share of a :func:`plan_figures` pass.

    ``fingerprints`` lists every cacheable cell the figure reads (its
    journal job's members); ``units`` holds only the cells no earlier
    figure of the pass planned, so a cell shared by two figures is
    drained once.  ``output`` is the planning pass's figure when that
    pass recorded no cell, and ``None`` otherwise.
    """

    figure_id: str
    job: Optional[str]
    fingerprints: List[str]
    units: List[DrainUnit[PlannedUnit]]
    output: Optional[FigureData]


def plan_figures(
    figure_ids: Sequence[str],
    *,
    scale: str,
    seed: SeedLike,
    cache: Optional[ResultStore] = None,
) -> List[FigurePlan]:
    """Plan *figure_ids* in order: their deduplicated, cacheable work units.

    Runs each real generator under the plan collector (cheap for runner
    figures: analytical series still evaluate, simulations do not), then
    drops uncacheable cells and every fingerprint an earlier unit already
    planned.  *cache* is what a figure outside the replicate runner reads
    and writes while its planning pass computes it.  Deterministic in its
    arguments — the property the whole external mode rests on.
    """
    seen: Set[str] = set()
    plans: List[FigurePlan] = []
    for figure_id in figure_ids:
        with collect_planned_cells() as bucket:
            output = generate(figure_id, scale=scale, seed=seed, cache=cache)
        job = external_job_id(figure_id, scale=scale, seed=seed)
        reads: Set[str] = set()
        units: List[DrainUnit[PlannedUnit]] = []
        for unit in bucket:
            cacheable = {cell.fingerprint: cell for cell in unit if cell.fingerprint is not None}
            reads.update(cacheable)
            fresh = {fp: cell for fp, cell in cacheable.items() if fp not in seen}
            if fresh:
                seen.update(fresh)
                units.append(DrainUnit(tuple(fresh), tuple(fresh.values()), job))
        plans.append(FigurePlan(figure_id, job, sorted(reads), units, None if bucket else output))
    return plans


def external_job_id(figure_id: str, *, scale: str, seed: SeedLike) -> Optional[str]:
    """Deterministic journal job id for one figure sweep, or ``None``.

    The id names the figure's ``accepted`` cells and the ``flushed``
    records of its CSVs that ``repro-experiments run --resume`` reads.
    ``None`` is the unresumable case: a seed that cannot be tokenized
    cannot be identified across processes, so its sweep gets no
    cross-process job identity.
    """
    tok = seed_token(seed)
    if tok is None:
        return None
    return fingerprint(
        {
            "schema": _JOB_SCHEMA,
            "engine": ENGINE_VERSION,
            "figure": str(figure_id),
            "scale": str(scale),
            "seed": tok,
        }
    )


def _drain(
    units: Sequence[DrainUnit[PlannedUnit]],
    store: ResultStore,
    claims: ClaimRegistry,
    journal: Optional[Journal],
    poll_interval: float,
    timeout: Optional[float],
) -> DrainStats:
    def compute(unit: PlannedUnit, won: List[str]) -> None:
        cells = [cell for cell in unit if cell.fingerprint in won]
        first = cells[0]
        average_normalized_comm_group(
            [cell.strategy_factory for cell in cells],
            first.platform_factory,
            first.n,
            first.reps,
            seed=first.seed,
            cache=store,
        )

    return drain_units(
        store,
        units,
        compute,
        claims=claims,
        journal=journal,
        poll_interval=poll_interval,
        timeout=timeout,
    )


def drain_summary(stats: DrainStats, claims: ClaimRegistry, figures: int) -> str:
    """The one-line report a drainer prints when its pass is done."""
    return (
        f"   [{figures} figure(s) drained as {claims.owner}: {stats.computed} computed,"
        f" {stats.cached} from peers/cache, {claims.counts['stolen']} stolen]"
    )


def _helper(
    root: str,
    units: Sequence[DrainUnit[PlannedUnit]],
    figures: int,
    stale_after: float,
    journaled: bool,
    poll_interval: float,
) -> None:
    """Body of one ``--workers N`` helper process: drain, report, exit."""
    store = ResultStore(root)
    claims = ClaimRegistry(store, stale_after=stale_after)
    journal = Journal(store) if journaled else None
    stats = _drain(units, store, claims, journal, poll_interval, None)
    print(drain_summary(stats, claims, figures), flush=True)


def drain_plans(
    plans: Sequence[FigurePlan],
    *,
    store: ResultStore,
    claims: ClaimRegistry,
    journal: Optional[Journal] = None,
    helpers: int = 0,
    poll_interval: float = 0.05,
    timeout: Optional[float] = None,
) -> DrainStats:
    """Publish *plans* and drain all their units as one worker.

    Safe to run in any number of processes concurrently: claims guarantee
    each cold cell is computed exactly once, and the function returns when
    *every* planned cell is present in the store — whether this worker
    computed it, a peer did, or a peer died and this worker stole it.
    *helpers* local processes (at most one per unit with a missing cell)
    drain the same units alongside this one, with their own claim owners;
    the returned stats count this process's share only.  A helper that
    dies does not fail the call — its claims go stale and this worker
    steals them — so its exit code is only reported on stderr.
    """
    if journal is not None:
        for plan in plans:
            if plan.job is not None:
                journal.append_many("accepted", plan.fingerprints, job=plan.job, owner=claims.owner)
    units = [unit for plan in plans for unit in plan.units]
    cold = sum(1 for unit in units if not all(store.has_fingerprint(fp) for fp in unit.cells))
    # Fork where the platform offers it and no other Python thread runs
    # here: a forked helper starts at once, while a spawned one first
    # starts an interpreter and imports numpy and the package (about 0.3 s
    # on a 2-vCPU guest, more than a short run gains).  numpy's OpenBLAS
    # pool shuts itself down around fork.
    context: "Union[multiprocessing.context.ForkContext, multiprocessing.context.SpawnContext]"
    if threading.active_count() == 1 and "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
    else:
        context = multiprocessing.get_context("spawn")
    sys.stdout.flush()  # a forked helper must not inherit unflushed output
    procs = [
        context.Process(
            target=_helper,
            args=(store.root, units, len(plans), claims.stale_after, journal is not None, poll_interval),
            daemon=True,
        )
        for _ in range(min(helpers, cold))
    ]
    for proc in procs:
        proc.start()
    try:
        stats = _drain(units, store, claims, journal, poll_interval, timeout)
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for proc in procs:
            proc.join()
    for proc in procs:
        if proc.exitcode != 0:
            print(f"drain helper {proc.pid} exited with {proc.exitcode}", file=sys.stderr)
    return stats
