"""``--resume`` through the journal: one ``flushed`` record per CSV written.

With ``--cache`` and ``--outdir``, ``run`` and ``faults`` append a record
whose job is the figure's external-mode job id (one per figure, scale and
seed) and whose cell fingerprints the CSV's absolute path and the sha256
of its bytes.  ``--resume`` skips a figure whose CSV, as it is now, has
that record, and reruns it in every other case.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.experiments.cli import main
from repro.experiments.external import external_job_id
from repro.store.cache import ResultStore
from repro.store.fingerprint import fingerprint
from repro.store.journal import Journal
from tests.experiments.test_cli import RUN_SHIM
from tests.test_docs import _subprocess_env


class Sweep:
    """Runs the CLI against one cache and reports whether a figure was skipped."""

    def __init__(self, tmp_path, capsys):
        self.root = tmp_path
        self.cache = tmp_path / "cache"
        self.capsys = capsys

    def run(self, *extra, figure="fig01", seed=0, outdir="out"):
        self.capsys.readouterr()
        argv = ["run", figure, "--scale", "ci", "--seed", str(seed), "--quiet",
                "--cache", str(self.cache), "--outdir", str(self.root / outdir), *extra]
        assert main(argv) == 0
        return self.capsys.readouterr().out

    def resumed(self, *extra, figure="fig01", **kwargs):
        """True iff ``--resume`` skipped *figure*; False iff it rewrote it."""
        out = self.run("--resume", *extra, figure=figure, **kwargs)
        skipped = f"[{figure} already complete" in out
        assert skipped != ("wrote" in out), out
        return skipped

    def journal(self):
        return Journal(ResultStore(str(self.cache)))

    def flushed(self):
        return [r for r in self.journal().replay().records if r.state == "flushed"]


@pytest.fixture
def sweep(tmp_path, capsys):
    return Sweep(tmp_path, capsys)


def csv_cell(path):
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return fingerprint({"csv": os.path.abspath(path), "sha256": digest})


class TestRecord:
    def test_one_flushed_record_per_csv(self, sweep):
        sweep.run()
        (record,) = sweep.flushed()
        assert record.job == external_job_id("fig01", scale="ci", seed=0)
        assert record.cell == csv_cell(sweep.root / "out" / "fig01_ci.csv")

    def test_no_record_without_outdir(self, sweep):
        assert main(["run", "fig01", "--scale", "ci", "--quiet", "--cache", str(sweep.cache)]) == 0
        assert sweep.flushed() == []
        assert not os.path.exists(sweep.root / "cache" / "manifests")

    def test_int_and_seedsequence_seeds_have_job_ids(self):
        assert external_job_id("fig01", scale="ci", seed=0) is not None
        assert external_job_id("fig01", scale="ci", seed=np.random.SeedSequence(4)) is not None

    def test_entropy_seed_has_no_job_id(self):
        # Fresh entropy cannot be identified across processes.
        assert external_job_id("fig01", scale="ci", seed=None) is None


class TestSkip:
    def test_recorded_figure_is_skipped(self, sweep):
        sweep.run()
        assert sweep.resumed()
        assert sweep.resumed()  # skipping appends nothing, and stays skippable
        assert len(sweep.flushed()) == 1

    def test_unrecorded_figure_runs(self, sweep):
        assert not sweep.resumed()
        assert sweep.resumed()

    def test_record_survives_a_new_process(self, sweep):
        sweep.run()
        argv = ["run", "fig01", "--scale", "ci", "--quiet", "--cache", str(sweep.cache),
                "--outdir", str(sweep.root / "out"), "--resume"]
        proc = subprocess.run(
            [sys.executable, "-c", RUN_SHIM, *argv],
            capture_output=True, text=True, env=_subprocess_env(), timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "[fig01 already complete" in proc.stdout


class TestRerun:
    def test_edited_csv_reruns(self, sweep):
        sweep.run()
        csv = sweep.root / "out" / "fig01_ci.csv"
        reference = csv.read_bytes()
        with open(csv, "a", encoding="utf-8") as fh:
            fh.write("tampered\n")
        assert not sweep.resumed()
        assert csv.read_bytes() == reference
        assert sweep.resumed()

    def test_deleted_csv_reruns(self, sweep):
        sweep.run()
        os.unlink(sweep.root / "out" / "fig01_ci.csv")
        assert not sweep.resumed()

    def test_other_path_reruns(self, sweep):
        sweep.run()
        other = sweep.root / "other"
        other.mkdir()
        (other / "fig01_ci.csv").write_bytes((sweep.root / "out" / "fig01_ci.csv").read_bytes())
        assert not sweep.resumed(outdir="other")

    def test_other_seed_reruns(self, sweep):
        # Same file name and bytes-as-recorded, but another job.
        sweep.run()
        assert not sweep.resumed(seed=1)

    @pytest.mark.parametrize("figure,scale", [("fig01", "medium"), ("fig02", "ci")])
    def test_another_jobs_record_reruns(self, sweep, figure, scale):
        # A record for this CSV's path and bytes, but under another scale
        # or figure id, does not count.
        sweep.run()
        csv = sweep.root / "out" / "fig01_ci.csv"
        os.unlink(sweep.journal().path)
        job = external_job_id(figure, scale=scale, seed=0)
        sweep.journal().append("flushed", csv_cell(csv), job=job)
        assert not sweep.resumed()
        assert sweep.resumed()

    def test_torn_record_reruns(self, sweep):
        sweep.run()
        path = sweep.journal().path
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:-20])  # a writer killed mid-append
        assert not sweep.resumed()
        assert sweep.journal().replay().corrupt == 1
        assert sweep.resumed()


class TestFaultsResume:
    def _faults(self, tmp_path, capsys, *extra):
        capsys.readouterr()
        argv = ["faults", "--scale", "ci", "--quiet", "--cache", str(tmp_path / "cache"),
                "--outdir", str(tmp_path / "out"), *extra]
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_recorded_sweep_is_skipped_and_edited_csv_reruns(self, tmp_path, capsys):
        assert "wrote" in self._faults(tmp_path, capsys, "--resume")
        assert "[flt01 already complete" in self._faults(tmp_path, capsys, "--resume")
        csv = tmp_path / "out" / "flt01_ci.csv"
        reference = csv.read_bytes()
        csv.write_bytes(reference + b"tampered\n")
        out = self._faults(tmp_path, capsys, "--resume")
        assert "wrote" in out and "already complete" not in out
        assert csv.read_bytes() == reference
