"""Cached sweeps: bit-identity, interrupt/resume, serial/parallel sharing.

The contract under test is the ISSUE's acceptance criterion: a sweep killed
mid-run and relaunched with ``--resume --cache`` produces byte-identical
CSVs while recomputing only the missing cells.
"""

import os

import pytest

import repro.experiments.cli as cli_module
from repro.experiments.cli import main
from repro.experiments.external import drain_plans, plan_figures
from repro.experiments.figures import generate
from repro.experiments.io import write_csv
from repro.experiments.parallel import StrategySpec, UniformPlatformSpec
from repro.experiments.runner import average_normalized_comm
from repro.obs.sink import RecordingSink
from repro.store.cache import ResultStore
from repro.store.cells import replicate_cell_key
from repro.store.claims import ClaimRegistry
from repro.store.fingerprint import fingerprint

STRATEGY = StrategySpec("RandomOuter", 12)
PLATFORM = UniformPlatformSpec(4)

#: Pinned fingerprint of a fixed replicate-cell key.  If this changes, every
#: existing cache silently invalidates — that must be a deliberate
#: ENGINE_VERSION / schema bump, not an accidental key-shape drift.
PINNED_KEY_FINGERPRINT = "3e12f48a2062b251d865fe54e3b0656a257e94c2fe4cd656245476b889fc4e7e"


def test_cell_key_fingerprint_is_pinned():
    key = replicate_cell_key(
        strategy_factory=STRATEGY,
        platform_factory=PLATFORM,
        n=12,
        reps=3,
        seed=0,
        metrics=False,
    )
    assert fingerprint(key) == PINNED_KEY_FINGERPRINT


class TestRunnerCache:
    def test_hit_is_bit_identical(self, tmp_path):
        store = ResultStore(str(tmp_path))
        uncached = average_normalized_comm(STRATEGY, PLATFORM, 12, 3, seed=5)
        miss = average_normalized_comm(STRATEGY, PLATFORM, 12, 3, seed=5, cache=store)
        hit = average_normalized_comm(STRATEGY, PLATFORM, 12, 3, seed=5, cache=store)
        assert uncached == miss == hit
        assert store.counts.hits == 1
        assert store.counts.puts == 1

    def test_serial_and_parallel_share_entries(self, tmp_path):
        store = ResultStore(str(tmp_path))
        generate("fig01", scale="ci", seed=0, cache=store)
        # The --workers N drain finds every cell the serial run stored.
        plans = plan_figures(["fig01"], scale="ci", seed=0, cache=store)
        stats = drain_plans(plans, store=store, claims=ClaimRegistry(store), helpers=1)
        assert (stats.computed, stats.cached) == (0, 6)

    def test_metrics_replay_matches_live_run(self, tmp_path):
        store = ResultStore(str(tmp_path))
        live = RecordingSink()
        average_normalized_comm(STRATEGY, PLATFORM, 12, 3, seed=5, sink=live, cache=store)
        cached = RecordingSink()
        average_normalized_comm(STRATEGY, PLATFORM, 12, 3, seed=5, sink=cached, cache=store)
        assert cached.snapshot() == live.snapshot()

    def test_closure_factories_bypass_cache(self, tmp_path):
        from repro.core.strategies.registry import make_strategy
        from repro.platform.platform import Platform
        from repro.platform.speeds import uniform_speeds

        store = ResultStore(str(tmp_path))
        factory = lambda rng: Platform(uniform_speeds(4, 10, 100, rng=rng))  # noqa: E731
        average_normalized_comm(
            lambda: make_strategy("RandomOuter", 12), factory, 12, 2, seed=5, cache=store
        )
        assert store.entries() == []
        assert store.counts.puts == 0


class TestFigureCache:
    def test_cached_figure_matches_uncached(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        plain = generate("fig01", scale="ci", seed=3)
        warm = generate("fig01", scale="ci", seed=3, cache=store)
        hit = generate("fig01", scale="ci", seed=3, cache=store)
        a, b, c = (
            write_csv(fig, str(tmp_path / name))
            for fig, name in ((plain, "a.csv"), (warm, "b.csv"), (hit, "c.csv"))
        )
        blobs = [open(p, "rb").read() for p in (a, b, c)]
        assert blobs[0] == blobs[1] == blobs[2]
        assert store.counts.hits > 0

    def test_corrupted_entry_recomputes(self, tmp_path):
        store = ResultStore(str(tmp_path / "cache"))
        reference = generate("fig01", scale="ci", seed=3, cache=store)
        for entry in store.entries():
            with open(entry.path, "a", encoding="utf-8") as fh:
                fh.write("garbage")
        recomputed = generate("fig01", scale="ci", seed=3, cache=store)
        assert store.counts.corrupt > 0
        ref_csv = write_csv(reference, str(tmp_path / "ref.csv"))
        new_csv = write_csv(recomputed, str(tmp_path / "new.csv"))
        assert open(ref_csv, "rb").read() == open(new_csv, "rb").read()


class _InterruptingStore(ResultStore):
    """A store whose process 'dies' (KeyboardInterrupt) after a few writes."""

    puts_before_death = 3

    def put(self, key, payload, *, kind):
        if self.counts.puts >= self.puts_before_death:
            raise KeyboardInterrupt("simulated kill -INT mid-sweep")
        return super().put(key, payload, kind=kind)


class TestInterruptAndResume:
    FIGURES = ["fig01", "fig02"]

    def _run(self, outdir, cache):
        return main(
            ["run", *self.FIGURES, "--scale", "ci", "--seed", "3",
             "--outdir", outdir, "--cache", cache, "--resume", "--quiet"]
        )

    def test_killed_sweep_resumes_bit_identical(self, tmp_path, monkeypatch, capsys):
        ref_dir = str(tmp_path / "ref")
        out_dir = str(tmp_path / "out")
        cache_dir = str(tmp_path / "cache")

        # Reference CSVs: no cache involved at all.
        assert main(["run", *self.FIGURES, "--scale", "ci", "--seed", "3",
                     "--outdir", ref_dir, "--quiet"]) == 0

        # First attempt dies after 3 cell writes, partway through the sweep.
        monkeypatch.setattr(cli_module, "ResultStore", _InterruptingStore)
        with pytest.raises(KeyboardInterrupt):
            self._run(out_dir, cache_dir)
        monkeypatch.undo()
        survived = len(ResultStore(cache_dir).entries())
        assert 0 < survived < 14  # partial progress persisted, sweep incomplete

        # Relaunch with --resume --cache: completes, reusing the survivors.
        capsys.readouterr()
        assert self._run(out_dir, cache_dir) == 0
        out = capsys.readouterr().out
        hits = int(out.rsplit("[cache: ", 1)[1].split(" hits")[0])
        assert hits > 0  # only the missing cells were recomputed

        for fid in self.FIGURES:
            ref = open(os.path.join(ref_dir, f"{fid}_ci.csv"), "rb").read()
            got = open(os.path.join(out_dir, f"{fid}_ci.csv"), "rb").read()
            assert got == ref, f"{fid} CSV differs after resume"

        # A third launch skips every figure via its manifest.
        assert self._run(out_dir, cache_dir) == 0
        out = capsys.readouterr().out
        for fid in self.FIGURES:
            assert f"[{fid} already complete" in out

    def test_resume_flag_requires_cache(self, tmp_path):
        with pytest.raises(SystemExit, match="--resume requires --cache"):
            main(["run", "fig01", "--scale", "ci", "--resume",
                  "--outdir", str(tmp_path), "--quiet"])

    def test_resume_flag_requires_outdir(self, tmp_path):
        with pytest.raises(SystemExit, match="--resume requires --outdir"):
            main(["run", "fig01", "--scale", "ci", "--resume",
                  "--cache", str(tmp_path / "c"), "--quiet"])
