"""``repro-serve`` — boot the async sweep service from the command line.

Every flag maps one-to-one onto a :class:`~repro.serve.service.ServeConfig`
field; defaults match the config's.  ``--port 0`` binds an ephemeral port
and prints it in the ``listening on`` line, which is how the CI smoke
harness discovers the address.  ``--quota-burst 0`` disables per-client
quotas entirely (useful for trusted single-tenant runs).
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.serve.service import ServeConfig, run_server

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the ``repro-serve`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Serve cached/computed simulation cells and closed-form "
            "analytical queries over JSON HTTP."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8321, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--store", default="serve-cache", help="result-store root directory"
    )
    parser.add_argument(
        "--sim-workers", type=int, default=2, help="simulation-lane worker tasks"
    )
    parser.add_argument(
        "--max-queue", type=int, default=64, help="max queued cells before 503"
    )
    parser.add_argument(
        "--batch-max", type=int, default=8, help="max cells per engine batch"
    )
    parser.add_argument(
        "--quota-rate",
        type=float,
        default=20.0,
        help="token-bucket refill rate per client per lane (tokens/s)",
    )
    parser.add_argument(
        "--quota-burst",
        type=float,
        default=40.0,
        help="token-bucket capacity per client per lane (0 = unlimited)",
    )
    parser.add_argument(
        "--max-n", type=int, default=512, help="largest accepted cell size n"
    )
    parser.add_argument(
        "--max-reps", type=int, default=256, help="largest accepted replicate count"
    )
    parser.add_argument(
        "--max-p", type=int, default=1024, help="largest accepted worker count"
    )
    parser.add_argument(
        "--max-cells", type=int, default=256, help="largest accepted sweep"
    )
    parser.add_argument(
        "--claim-stale-after",
        type=float,
        default=30.0,
        metavar="S",
        help=(
            "cross-process claim heartbeat staleness in seconds; a peer may "
            "steal a cell whose claim is older (0 = disable claims)"
        ),
    )
    parser.add_argument(
        "--claim-poll",
        type=float,
        default=0.05,
        metavar="S",
        help="poll interval while waiting on a peer process's claimed cell",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: build the config, serve until SIGTERM/SIGINT."""
    args = build_parser().parse_args(argv)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        store_root=args.store,
        lane_workers=args.sim_workers,
        max_queue=args.max_queue,
        batch_max=args.batch_max,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        max_n=args.max_n,
        max_reps=args.max_reps,
        max_p=args.max_p,
        max_cells=args.max_cells,
        claim_stale_after=args.claim_stale_after,
        claim_poll=args.claim_poll,
    )
    return run_server(config)
