"""``repro-experiments`` — regenerate the paper's figures from the shell.

Examples::

    repro-experiments list
    repro-experiments run fig01 fig06 --scale ci --outdir results
    repro-experiments run all --scale medium --seed 7
    repro-experiments run all --scale paper --outdir results --cache cache --resume

``--cache DIR`` memoizes every replicate cell in a content-addressed
:class:`~repro.store.cache.ResultStore`; with ``--outdir`` too, every CSV
written gets a ``flushed`` record in the store's journal
(:mod:`repro.store.journal`), and ``--resume`` skips figures whose CSV an
earlier (possibly killed) run with the same scale and seed recorded at
its current bytes.  Cached or not, outputs are bit-identical.  See
docs/CACHING.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import sys
import tempfile
from typing import Dict, List, Optional, Set, Tuple

from repro.experiments.config import SCALES, FigureData
from repro.experiments.figures import FIGURES, generate
from repro.experiments.io import render_figure, write_csv
from repro.experiments.parallel import resolve_workers
from repro.obs.profile import wall_time
from repro.store.cache import ResultStore
from repro.store.fingerprint import fingerprint
from repro.store.journal import Journal

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-experiments`` argument parser (exposed for the docs tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the figures of Beaumont & Marchal, HPDC'14.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available figure ids")

    run = sub.add_parser("run", help="run one or more figures")
    run.add_argument(
        "figures",
        nargs="+",
        help=f"figure ids ({', '.join(sorted(FIGURES))}) or 'all'",
    )
    run.add_argument("--scale", choices=SCALES, default="ci", help="experiment scale (default: ci)")
    run.add_argument("--seed", type=int, default=0, help="top-level RNG seed (default: 0)")
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes that compute cells: 1 = serial (default), 0 = one per CPU;"
        " N > 1 drains the planned cells through claims on --cache (or a temporary"
        " store) with N - 1 helper processes, then assembles; outputs are"
        " bit-identical for every worker count",
    )
    run.add_argument("--outdir", default=None, help="write tidy CSVs into this directory")
    run.add_argument("--svg", action="store_true", help="also write an SVG chart per figure (needs --outdir)")
    run.add_argument("--quiet", action="store_true", help="suppress the terminal rendering")
    run.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="memoize replicate cells in a content-addressed store at DIR"
        " (created if missing); outputs are bit-identical with or without it",
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help="skip figures whose CSV a previous run with this scale/seed already"
        " wrote (needs --cache and --outdir; CSVs are checksum-verified)",
    )
    run.add_argument(
        "--workers-external",
        action="store_true",
        help="act as one of N independent sweep workers sharing --cache: claim"
        " unclaimed cells through the store (stealing stale claims of dead"
        " peers), then assemble the figure from cache — byte-identical to a"
        " single-process run; see docs/DISTRIBUTED.md",
    )
    run.add_argument(
        "--claim-stale-after",
        type=float,
        default=30.0,
        metavar="S",
        help="seconds without a heartbeat before a peer's claim is presumed"
        " dead and stolen (default: 30)",
    )

    gantt = sub.add_parser("gantt", help="simulate one strategy and print an ASCII Gantt chart")
    gantt.add_argument("strategy", help="strategy name (see repro.strategy_names())")
    gantt.add_argument("-n", type=int, default=40, help="blocks per dimension (default: 40)")
    gantt.add_argument("-p", type=int, default=10, help="number of workers (default: 10)")
    gantt.add_argument("--seed", type=int, default=0, help="RNG seed")
    gantt.add_argument("--width", type=int, default=72, help="chart width in characters")

    beta = sub.add_parser("beta", help="compute the optimal two-phase threshold beta")
    beta.add_argument("kernel", choices=("outer", "matrix"), help="which kernel")
    beta.add_argument("-n", type=int, required=True, help="blocks per dimension")
    beta.add_argument("-p", type=int, required=True, help="number of workers")
    beta.add_argument(
        "--speeds",
        type=float,
        nargs="*",
        default=None,
        help="explicit worker speeds (defaults to the speed-agnostic homogeneous beta)",
    )

    report = sub.add_parser("report", help="summarize a results directory as markdown")
    report.add_argument("directory", help="directory holding figure CSVs")
    report.add_argument("-o", "--output", default=None, help="write the report here instead of stdout")

    faults = sub.add_parser("faults", help="run the worker-churn sweep (figure flt01)")
    faults.add_argument("--scale", choices=SCALES, default="ci", help="experiment scale (default: ci)")
    faults.add_argument("--seed", type=int, default=0, help="top-level RNG seed (default: 0)")
    faults.add_argument("--outdir", default=None, help="write CSV (and optional SVG/JSON) into this directory")
    faults.add_argument("--svg", action="store_true", help="also write an SVG chart (needs --outdir)")
    faults.add_argument("--json", action="store_true", help="also write a JSON summary (needs --outdir)")
    faults.add_argument("--quiet", action="store_true", help="suppress the terminal rendering")
    faults.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="memoize churn cells in a content-addressed store at DIR",
    )
    faults.add_argument(
        "--resume",
        action="store_true",
        help="skip the sweep when a previous run already wrote its CSV"
        " (needs --cache and --outdir)",
    )
    return parser


def _open_store(args: argparse.Namespace) -> "tuple[Optional[ResultStore], Optional[Journal]]":
    """Resolve ``--cache``/``--resume`` into (store, journal) or exit.

    The journal comes with ``--outdir`` only: CSV records are appended
    whenever a CSV is written to a cached run, so a plain cached run is
    already resumable; ``--resume`` only enables skipping.
    """
    if args.cache is None:
        if args.resume:
            raise SystemExit("--resume requires --cache")
        return None, None
    if args.resume and not args.outdir:
        raise SystemExit("--resume requires --outdir (it verifies written CSVs)")
    store = ResultStore(args.cache)
    return store, Journal(store) if args.outdir else None


def _csv_record(args: argparse.Namespace, figure_id: str, path: str) -> "Tuple[Optional[str], str]":
    """``(job, cell)`` of the journal record for *figure_id*'s CSV at *path*.

    The job is the figure's external-mode job id, one per (figure, scale,
    seed); the cell fingerprints the CSV's absolute path and the sha256
    of its current bytes, so an edited or moved CSV has another cell.
    """
    from repro.experiments.external import external_job_id

    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    job = external_job_id(figure_id, scale=args.scale, seed=args.seed)
    return job, fingerprint({"csv": os.path.abspath(path), "sha256": digest})


def _record_csv(
    args: argparse.Namespace, journal: Optional[Journal], figure_id: str, path: str
) -> None:
    """Append the ``flushed`` record that lets ``--resume`` skip *figure_id*."""
    if journal is not None:
        job, cell = _csv_record(args, figure_id, path)
        journal.append("flushed", cell, job=job)


def _recorded_csvs(args: argparse.Namespace, journal: Optional[Journal]) -> "Set[Tuple[Optional[str], str]]":
    """Every ``flushed`` ``(job, cell)`` pair, from one replay; empty without ``--resume``.

    Replay skips torn or corrupt lines, so a figure whose record did not
    survive reruns instead of failing.
    """
    if not args.resume or journal is None:
        return set()
    return {(r.job, r.cell) for r in journal.replay().records if r.state == "flushed"}


def _already_complete(
    args: argparse.Namespace, recorded: "Set[Tuple[Optional[str], str]]", figure_id: str, path: str
) -> bool:
    """True iff the CSV at *path*, as it is now, has *figure_id*'s record."""
    return bool(recorded) and os.path.isfile(path) and _csv_record(args, figure_id, path) in recorded


def _drain(
    args: argparse.Namespace, figure_ids: List[str], store: ResultStore, workers: int
) -> Dict[str, FigureData]:
    """Plan every figure, then claim-and-compute their cells with local helpers.

    After this returns the store holds every planned cell (computed here,
    by a helper or peer, or stolen from a dead one), so the per-figure
    loop assembles the CSVs from cache hits.  Returns the planning output
    of each figure whose planning pass recorded no cell.
    """
    from repro.experiments.external import drain_plans, drain_summary, plan_figures
    from repro.store.claims import ClaimRegistry

    plans = plan_figures(figure_ids, scale=args.scale, seed=args.seed, cache=store)
    registry = ClaimRegistry(store, stale_after=args.claim_stale_after)
    stats = drain_plans(
        plans, store=store, claims=registry, journal=Journal(store), helpers=workers - 1
    )
    print(drain_summary(stats, registry, len(plans)))
    return {plan.figure_id: plan.output for plan in plans if plan.output is not None}


def _print_cache_summary(store: ResultStore) -> None:
    """One-line hit/miss report after a cached run."""
    counts = store.counts
    rate = counts.hit_rate()
    rate_text = "n/a" if rate is None else f"{100.0 * rate:.0f}%"
    print(
        f"   [cache: {counts.hits} hits, {counts.misses} misses, "
        f"{counts.puts} puts, {counts.corrupt} corrupt — hit rate {rate_text}]"
    )


def _resolve_figures(requested: List[str]) -> List[str]:
    if "all" in requested:
        return sorted(FIGURES)
    unknown = [f for f in requested if f not in FIGURES]
    if unknown:
        raise SystemExit(f"unknown figure id(s): {', '.join(unknown)}; available: {', '.join(sorted(FIGURES))}")
    return requested


def _run_gantt(args: argparse.Namespace) -> int:
    from repro.core.analysis.lower_bounds import lower_bound
    from repro.core.strategies.registry import make_strategy
    from repro.platform.platform import Platform
    from repro.platform.speeds import uniform_speeds
    from repro.simulator.engine import simulate
    from repro.simulator.gantt import ascii_gantt

    platform = Platform(uniform_speeds(args.p, 10, 100, rng=args.seed))
    strategy = make_strategy(args.strategy, args.n)
    result = simulate(strategy, platform, rng=args.seed + 1, collect_trace=True)
    print(ascii_gantt(result, width=args.width))
    lb = lower_bound(strategy.kernel, platform.relative_speeds, args.n)
    print(f"communication: {result.total_blocks} blocks = {result.normalized(lb):.3f} x lower bound")
    return 0


def _run_beta(args: argparse.Namespace) -> int:
    import math

    import numpy as np

    from repro.core.analysis.beta import agnostic_beta
    from repro.core.analysis.matrix import matrix_total_ratio, optimal_matrix_beta
    from repro.core.analysis.outer import optimal_outer_beta, outer_total_ratio

    if args.speeds:
        speeds = np.asarray(args.speeds, dtype=float)
        if speeds.size != args.p:
            raise SystemExit(f"expected {args.p} speeds, got {speeds.size}")
        rel = speeds / speeds.sum()
        beta = optimal_outer_beta(rel, args.n) if args.kernel == "outer" else optimal_matrix_beta(rel, args.n)
        source = "tuned to the given speeds"
    else:
        rel = np.full(args.p, 1.0 / args.p)
        beta = agnostic_beta(args.kernel, args.p, args.n)
        source = "speed-agnostic (homogeneous, Section 3.6)"
    ratio = outer_total_ratio(beta, rel, args.n) if args.kernel == "outer" else matrix_total_ratio(beta, rel, args.n)
    total = args.n**2 if args.kernel == "outer" else args.n**3
    threshold = round(math.exp(-beta) * total)
    print(f"beta* = {beta:.4f}  ({source})")
    print(f"switch to phase 2 when {threshold} of {total} tasks remain "
          f"({100 * (1 - math.exp(-beta)):.1f}% done)")
    print(f"predicted communication: {ratio:.3f} x lower bound")
    return 0


def _write_figure(
    args: argparse.Namespace,
    journal: Optional[Journal],
    figure_id: str,
    fig: FigureData,
    elapsed: float,
) -> None:
    """Render *fig*, then write its CSV (journaled) and optional SVG into ``--outdir``."""
    if not args.quiet:
        print(render_figure(fig))
        print(f"   [{figure_id} generated in {elapsed:.1f}s at scale={args.scale}]\n")
    if not args.outdir:
        return
    path = write_csv(fig, os.path.join(args.outdir, f"{figure_id}_{args.scale}.csv"))
    print(f"   wrote {path}")
    _record_csv(args, journal, figure_id, path)
    if args.svg:
        from repro.experiments.svgplot import write_svg

        svg_path = write_svg(fig, os.path.join(args.outdir, f"{figure_id}_{args.scale}.svg"))
        print(f"   wrote {svg_path}")


def _run_faults(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.faults import churn_summary, flt01

    store, journal = _open_store(args)
    csv_path = os.path.join(args.outdir, f"flt01_{args.scale}.csv") if args.outdir else None
    if csv_path is not None and _already_complete(args, _recorded_csvs(args, journal), "flt01", csv_path):
        print(f"   [flt01 already complete: {csv_path} (resume)]")
        return 0
    start = wall_time()
    fig = flt01(scale=args.scale, seed=args.seed, cache=store)
    _write_figure(args, journal, "flt01", fig, wall_time() - start)
    if not args.outdir:
        if args.svg or args.json:
            raise SystemExit("--svg/--json require --outdir")
    elif args.json:
        json_path = os.path.join(args.outdir, f"flt01_{args.scale}.json")
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(churn_summary(fig), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"   wrote {json_path}")
    if store is not None:
        _print_cache_summary(store)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-experiments``; returns the process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "gantt":
        return _run_gantt(args)

    if args.command == "beta":
        return _run_beta(args)

    if args.command == "report":
        from repro.experiments.report import summarize_results, write_report

        if args.output:
            print(f"wrote {write_report(args.directory, args.output)}")
        else:
            print(summarize_results(args.directory))
        return 0

    if args.command == "faults":
        return _run_faults(args)

    if args.command == "list":
        for fid in sorted(FIGURES):
            doc = (FIGURES[fid].__doc__ or "").strip().splitlines()[0]
            print(f"{fid:8s} {doc}")
        return 0

    figure_ids = _resolve_figures(args.figures)
    try:
        workers = resolve_workers(args.workers)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    store, journal = _open_store(args)
    if args.workers_external and store is None:
        raise SystemExit("--workers-external requires --cache")
    recorded = _recorded_csvs(args, journal)
    todo: List[str] = []
    for fid in figure_ids:
        csv_path = os.path.join(args.outdir, f"{fid}_{args.scale}.csv") if args.outdir else None
        if csv_path is not None and _already_complete(args, recorded, fid, csv_path):
            print(f"   [{fid} already complete: {csv_path} (resume)]")
        else:
            todo.append(fid)
    with contextlib.ExitStack() as stack:
        cache = store
        planned: Dict[str, FigureData] = {}
        if todo and (args.workers_external or workers > 1):
            if cache is None:
                cache = ResultStore(stack.enter_context(tempfile.TemporaryDirectory()))
            planned = _drain(args, todo, cache, workers)
        for fid in todo:
            start = wall_time()
            fig = planned.get(fid)
            if fig is None:
                fig = generate(fid, scale=args.scale, seed=args.seed, cache=cache)
            _write_figure(args, journal, fid, fig, wall_time() - start)
    if store is not None:
        _print_cache_summary(store)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
