#!/usr/bin/env python
"""Two-process kill/steal smoke test for the claim & journal layer, used by CI.

The scenario the cross-process layer exists for, end to end with real
processes and a real SIGKILL:

1. a **reference** run computes one figure single-process (no cache) and
   writes its CSV;
2. a **holder** subprocess claims a member of the figure's first group
   unit over a shared store, journals ``claimed``, and parks — then is
   SIGKILLed mid-cell, exactly like a worker dying on a cluster node;
3. two **survivor** subprocesses run
   ``repro-experiments run --workers-external`` against the shared store;
   the dead worker's claim goes stale, one survivor steals the cell, and
   between them they drain the whole grid;
4. the harness asserts both survivors exited 0, at least one steal
   happened, the journal holds **exactly one** ``computed`` record per
   cell (no duplicate engine work), and every worker's CSV is
   byte-identical to the reference;
5. one survivor's command reruns with ``--resume``: the CSV records the
   survivors appended to the shared journal must make it print
   ``[<figure> already complete`` and journal no new ``computed`` record.

Run it from the repo root::

    python tools/claims_smoke.py

``hold`` mode (used internally, and by the crash-recovery integration
test) runs step 2 only::

    python tools/claims_smoke.py hold <store-root> --figure fig04 --scale ci
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.experiments.external import external_job_id, plan_figures  # noqa: E402
from repro.store.cache import ResultStore  # noqa: E402
from repro.store.claims import ClaimRegistry  # noqa: E402
from repro.store.journal import Journal, JournalReplay  # noqa: E402

_RUN_SHIM = "import sys; from repro.experiments.cli import main; sys.exit(main(sys.argv[1:]))"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def hold(root: str, figure: str, scale: str, seed: int) -> int:
    """Claim the first member of the figure's first group unit, park until killed.

    Prints ``holding <fingerprint>`` once the claim is on disk (the parent
    synchronizes on that line), heartbeats so the claim stays live while
    this process lives, and sleeps forever — the only way out is a signal,
    which is the point.
    """
    store = ResultStore(root)
    units = [unit.cells for plan in plan_figures([figure], scale=scale, seed=seed) for unit in plan.units]
    if not units:
        raise SystemExit(f"figure {figure} planned no cacheable cells")
    fp = ([cells for cells in units if len(cells) > 1] or units)[0][0]
    claims = ClaimRegistry(store, stale_after=30.0)
    if not claims.try_claim(fp):
        raise SystemExit(f"could not claim {fp}: already claimed?")
    job = external_job_id(figure, scale=scale, seed=seed)
    Journal(store).append("claimed", fp, job=job, owner=claims.owner)
    with claims.ticker([fp]):
        print(f"holding {fp}", flush=True)
        while True:  # parked mid-cell; SIGKILL is the expected exit
            time.sleep(60.0)


def _worker_argv(figure: str, scale: str, cache: str, outdir: str, stale: float) -> List[str]:
    return [
        sys.executable,
        "-c",
        _RUN_SHIM,
        "run",
        figure,
        "--scale",
        scale,
        "--quiet",
        "--cache",
        cache,
        "--outdir",
        outdir,
        "--workers-external",
        "--claim-stale-after",
        str(stale),
    ]


def _run_worker(figure: str, scale: str, cache: str, outdir: str, stale: float) -> subprocess.Popen:
    return subprocess.Popen(
        _worker_argv(figure, scale, cache, outdir, stale),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_env(),
    )


def scenario(figure: str, scale: str, stale: float) -> int:
    """The full kill/steal scenario; returns a process exit code.

    Runs in a fresh temporary directory, which is removed when the
    scenario passes and kept (its path printed) when it fails.
    """
    base = tempfile.mkdtemp(prefix="repro-claims-smoke-")
    try:
        _scenario_in(base, figure, scale, stale)
    except BaseException:
        print(f"claims-smoke: failed; kept {base}", file=sys.stderr, flush=True)
        raise
    shutil.rmtree(base)
    return 0


def _scenario_in(base: str, figure: str, scale: str, stale: float) -> None:
    """:func:`scenario`'s steps, with every store and output under *base*; raises on failure."""
    seed = 0
    cache = os.path.join(base, "cache")
    ref_out = os.path.join(base, "ref")
    outs = [os.path.join(base, "worker-a"), os.path.join(base, "worker-b")]

    ref = subprocess.run(
        [sys.executable, "-c", _RUN_SHIM, "run", figure, "--scale", scale,
         "--quiet", "--outdir", ref_out],
        capture_output=True,
        text=True,
        env=_env(),
    )
    if ref.returncode != 0:
        raise SystemExit(f"reference run failed: {ref.stdout}{ref.stderr}")
    print(f"claims-smoke: reference {figure}/{scale} written", flush=True)

    holder = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "hold", cache,
         "--figure", figure, "--scale", scale],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_env(),
    )
    assert holder.stdout is not None
    line = holder.stdout.readline()
    if not line.startswith("holding "):
        holder.kill()
        raise SystemExit(f"holder never claimed a cell, got {line!r}")
    held_fp = line.split()[1]
    holder.send_signal(signal.SIGKILL)
    holder.wait()
    print(f"claims-smoke: holder SIGKILLed mid-cell (claim on {held_fp[:12]}...)", flush=True)

    workers = [_run_worker(figure, scale, cache, out, stale) for out in outs]
    outputs = [w.communicate(timeout=600)[0] for w in workers]
    for worker, output in zip(workers, outputs):
        if worker.returncode != 0:
            raise SystemExit(f"worker failed ({worker.returncode}): {output}")
    stolen = sum(int(line.split(",")[-1].split()[0])
                 for output in outputs
                 for line in output.splitlines()
                 if line.strip().endswith("stolen]"))
    if stolen < 1:
        raise SystemExit(f"no survivor stole the dead worker's cell: {outputs}")
    print(f"claims-smoke: survivors drained the grid, {stolen} steal(s)", flush=True)

    store = ResultStore(cache)
    replay = Journal(store).replay()
    computed = _computed(replay)
    duplicates = {fp: n for fp, n in computed.items() if n > 1}
    if duplicates:
        raise SystemExit(f"cells computed more than once: {duplicates}")
    if replay.corrupt:
        raise SystemExit(f"{replay.corrupt} corrupt journal records after clean runs")
    job = external_job_id(figure, scale=scale, seed=seed)
    status = Journal(store).job_status(job, store=store) if job else None
    if not status or not status["done"] or status["pending"]:
        raise SystemExit(f"journal job status not drained: {status}")
    print(
        f"claims-smoke: journal clean — {len(computed)} cells computed exactly once, "
        f"job {job[:12]}... done",
        flush=True,
    )

    csv_name = f"{figure}_{scale}.csv"
    with open(os.path.join(ref_out, csv_name), "rb") as fh:
        expected = fh.read()
    for out in outs:
        with open(os.path.join(out, csv_name), "rb") as fh:
            if fh.read() != expected:
                raise SystemExit(f"{out}/{csv_name} differs from the reference CSV")
    print("claims-smoke: every worker CSV byte-identical to the reference", flush=True)

    resumed = subprocess.run(
        _worker_argv(figure, scale, cache, outs[0], stale) + ["--resume"],
        capture_output=True,
        text=True,
        env=_env(),
        timeout=600,
    )
    if resumed.returncode != 0 or f"[{figure} already complete" not in resumed.stdout:
        raise SystemExit(f"--resume did not skip the finished figure: {resumed.stdout}{resumed.stderr}")
    if _computed(Journal(store).replay()) != computed:
        raise SystemExit("--resume journaled new computed records")
    print("claims-smoke: --resume skipped the figure from its journal record", flush=True)


def _computed(replay: JournalReplay) -> dict:
    """Per cell, how many ``computed`` records *replay* holds."""
    counts: dict = {}
    for record in replay.records:
        if record.state == "computed":
            counts[record.cell] = counts.get(record.cell, 0) + 1
    return counts


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode")
    holder = sub.add_parser("hold", help="claim one cell and park until killed")
    holder.add_argument("root", help="shared store root")
    holder.add_argument("--figure", default="fig04")
    holder.add_argument("--scale", default="ci")
    holder.add_argument("--seed", type=int, default=0)
    parser.add_argument("--figure", default="fig04")
    parser.add_argument("--scale", default="ci")
    parser.add_argument("--stale-after", type=float, default=2.0)
    args = parser.parse_args(argv)
    if args.mode == "hold":
        return hold(args.root, args.figure, args.scale, args.seed)
    return scenario(args.figure, args.scale, args.stale_after)


if __name__ == "__main__":
    sys.exit(main())
