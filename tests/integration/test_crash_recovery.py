"""Crash recovery: a SIGKILLed worker's cell is stolen and the CSV still matches.

A real subprocess (``tools/claims_smoke.py hold``) claims one member of a
shared phase-1 group unit of fig04's CI plan over a shared store and parks
mid-cell; the test SIGKILLs it, then drains the plan as a second worker
with a short staleness window.  The dead worker's claim must be stolen,
every cell computed exactly once, and the assembled CSV byte-identical to
an uninterrupted single-process run.
"""

import os
import signal
import subprocess
import sys

from repro.experiments.external import drain_plans, external_job_id, plan_figures
from repro.experiments.figures import generate
from repro.experiments.io import write_csv
from repro.store.cache import ResultStore
from repro.store.claims import ClaimRegistry
from repro.store.journal import Journal

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SMOKE = os.path.join(ROOT, "tools", "claims_smoke.py")

FIGURE, SCALE, SEED = "fig04", "ci", 0


def spawn_holder(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, SMOKE, "hold", root, "--figure", FIGURE, "--scale", SCALE],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )


def test_sigkilled_worker_is_stolen_from_and_csv_matches(tmp_path):
    store = ResultStore(str(tmp_path / "cache"))

    holder = spawn_holder(store.root)
    try:
        line = holder.stdout.readline()
        assert line.startswith("holding "), f"holder never claimed: {line!r}"
        held_fp = line.split()[1]
        groups = [
            unit.cells
            for plan in plan_figures([FIGURE], scale=SCALE, seed=SEED)
            for unit in plan.units
            if len(unit.cells) > 1
        ]
        assert any(held_fp in cells for cells in groups), "holder did not claim a group member"
        holder.send_signal(signal.SIGKILL)
        holder.wait(timeout=30)
    finally:
        if holder.poll() is None:
            holder.kill()
            holder.wait()

    # The kill left a claim file behind — nobody will ever release it.
    claims = ClaimRegistry(store, stale_after=0.5)
    assert claims.read_claim(held_fp) is not None

    journal = Journal(store)
    stats = drain_plans(
        plan_figures([FIGURE], scale=SCALE, seed=SEED, cache=store),
        store=store,
        claims=claims,
        journal=journal,
        poll_interval=0.05,
        timeout=120.0,
    )
    assert stats.computed == stats.total() > 0  # cold store: we computed all
    assert claims.counts["stolen"] >= 1, "dead worker's claim was never stolen"
    assert claims.active() == []

    # Journal: every cell computed exactly once, job fully recovered.
    replay = journal.replay()
    assert replay.corrupt == 0
    computed = [r.cell for r in replay.records if r.state == "computed"]
    assert sorted(computed) == sorted(set(computed)), "duplicate engine work"
    status = journal.job_status(
        external_job_id(FIGURE, scale=SCALE, seed=SEED), store=store
    )
    assert status is not None and status["done"] and not status["pending"]

    # Assemble from the store and compare to an uninterrupted reference.
    recovered = generate(FIGURE, scale=SCALE, seed=SEED, cache=store)
    reference = generate(FIGURE, scale=SCALE, seed=SEED)
    recovered_csv = write_csv(recovered, str(tmp_path / "recovered.csv"))
    reference_csv = write_csv(reference, str(tmp_path / "reference.csv"))
    with open(recovered_csv, "rb") as a, open(reference_csv, "rb") as b:
        assert a.read() == b.read(), "recovered CSV differs from reference"
