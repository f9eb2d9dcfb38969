"""Tests for the repro-experiments CLI."""

import os
import subprocess
import sys

import pytest

from repro.experiments.cli import build_parser, main
from repro.store.cache import ResultStore
from repro.store.journal import Journal

SRC = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN_SHIM = "import sys; from repro.experiments.cli import main; sys.exit(main(sys.argv[1:]))"


def _computed(cache):
    """Journal ``computed`` record count per cell fingerprint."""
    counts = {}
    for record in Journal(ResultStore(str(cache))).replay().records:
        if record.state == "computed":
            counts[record.cell] = counts.get(record.cell, 0) + 1
    return counts


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig01"])
        assert args.figures == ["fig01"]
        assert args.scale == "ci"
        assert args.seed == 0

    def test_run_options(self):
        args = build_parser().parse_args(
            ["run", "fig01", "fig02", "--scale", "medium", "--seed", "9", "--outdir", "out"]
        )
        assert args.figures == ["fig01", "fig02"]
        assert args.scale == "medium"
        assert args.seed == 9
        assert args.outdir == "out"

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig01", "--scale", "huge"])


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig01" in out and "sec36" in out

    def test_run_writes_csv(self, tmp_path, capsys):
        rc = main(["run", "fig01", "--scale", "ci", "--outdir", str(tmp_path), "--quiet"])
        assert rc == 0
        assert os.path.exists(tmp_path / "fig01_ci.csv")

    def test_run_renders(self, capsys):
        assert main(["run", "fig01", "--scale", "ci"]) == 0
        out = capsys.readouterr().out
        assert "RandomOuter" in out

    def test_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_svg_output(self, tmp_path):
        rc = main(["run", "fig01", "--scale", "ci", "--outdir", str(tmp_path), "--svg", "--quiet"])
        assert rc == 0
        assert (tmp_path / "fig01_ci.svg").exists()


class TestGantt:
    def test_gantt_command(self, capsys):
        rc = main(["gantt", "DynamicOuter2Phases", "-n", "12", "-p", "4", "--width", "40"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Gantt (DynamicOuter2Phases" in out
        assert "lower bound" in out
        assert out.count("P") >= 4  # one row per worker

    def test_gantt_matrix_strategy(self, capsys):
        rc = main(["gantt", "DynamicMatrix", "-n", "6", "-p", "3"])
        assert rc == 0
        assert "DynamicMatrix" in capsys.readouterr().out

    def test_gantt_unknown_strategy(self):
        with pytest.raises(ValueError):
            main(["gantt", "NoSuchStrategy"])


class TestBeta:
    def test_agnostic_outer(self, capsys):
        rc = main(["beta", "outer", "-n", "100", "-p", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "beta* = 4.39" in out
        assert "speed-agnostic" in out

    def test_with_speeds(self, capsys):
        rc = main(["beta", "outer", "-n", "50", "-p", "3", "--speeds", "10", "20", "30"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tuned to the given speeds" in out

    def test_speed_count_mismatch(self):
        with pytest.raises(SystemExit):
            main(["beta", "outer", "-n", "50", "-p", "3", "--speeds", "10", "20"])

    def test_matrix_kernel(self, capsys):
        rc = main(["beta", "matrix", "-n", "40", "-p", "100"])
        assert rc == 0
        assert "x lower bound" in capsys.readouterr().out

    def test_rejects_unknown_kernel(self):
        with pytest.raises(SystemExit):
            main(["beta", "conv", "-n", "10", "-p", "5"])


class TestReport:
    def test_report_stdout(self, tmp_path, capsys):
        main(["run", "fig01", "--scale", "ci", "--outdir", str(tmp_path), "--quiet"])
        capsys.readouterr()
        rc = main(["report", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# Results summary" in out
        assert "fig01" in out

    def test_report_to_file(self, tmp_path, capsys):
        main(["run", "fig01", "--scale", "ci", "--outdir", str(tmp_path), "--quiet"])
        rc = main(["report", str(tmp_path), "-o", str(tmp_path / "r.md")])
        assert rc == 0
        assert (tmp_path / "r.md").exists()


class TestWorkersExternal:
    def test_parser_accepts_external_flags(self):
        args = build_parser().parse_args(
            ["run", "fig01", "--workers-external", "--claim-stale-after", "5"]
        )
        assert args.workers_external is True
        assert args.claim_stale_after == 5.0

    def test_external_requires_cache(self):
        with pytest.raises(SystemExit, match="requires --cache"):
            main(["run", "fig01", "--workers-external", "--quiet"])

    def test_single_external_worker_matches_plain_run(self, tmp_path, capsys):
        plain, ext = tmp_path / "plain", tmp_path / "ext"
        assert main(["run", "fig01", "--scale", "ci", "--outdir", str(plain), "--quiet"]) == 0
        rc = main([
            "run", "fig01", "--scale", "ci", "--outdir", str(ext), "--quiet",
            "--cache", str(tmp_path / "cache"), "--workers-external",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "drained as" in out
        with open(plain / "fig01_ci.csv", "rb") as a, open(ext / "fig01_ci.csv", "rb") as b:
            assert a.read() == b.read()


class TestClaimsTransport:
    FIGURES = ["fig04", "fig06"]

    def _run(self, outdir, *extra):
        argv = ["run", *self.FIGURES, "--scale", "ci", "--quiet", "--outdir", str(outdir)]
        assert main([*argv, *extra]) == 0

    @staticmethod
    def _csvs(outdir):
        return {name: (outdir / name).read_bytes() for name in sorted(os.listdir(outdir))}

    def test_worker_counts_write_identical_csvs(self, tmp_path, capsys):
        self._run(tmp_path / "w1")
        self._run(tmp_path / "w2", "--workers", "2")
        self._run(tmp_path / "w2c", "--workers", "2", "--cache", str(tmp_path / "c2"))
        assert capsys.readouterr().out.count("drained as") >= 2
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([os.path.join(SRC, "src"), env.get("PYTHONPATH", "")])
        shared = tmp_path / "shared"
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", RUN_SHIM, "run", *self.FIGURES, "--scale", "ci",
                 "--quiet", "--outdir", str(tmp_path / f"ext{i}"), "--cache", str(shared),
                 "--workers-external"],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
            )
            for i in range(2)
        ]
        for proc in procs:
            output = proc.communicate(timeout=300)[0]
            assert proc.returncode == 0, output
        reference = self._csvs(tmp_path / "w1")
        assert sorted(reference) == ["fig04_ci.csv", "fig06_ci.csv"]
        for name in ("w2", "w2c", "ext0", "ext1"):
            assert self._csvs(tmp_path / name) == reference, name
        for cache in (tmp_path / "c2", shared):
            computed = _computed(cache)
            assert len(computed) == 13 and set(computed.values()) == {1}, cache

    @pytest.mark.parametrize("mode", [["--workers-external"], ["--workers", "2"]])
    def test_resume_after_gc_computes_nothing(self, tmp_path, capsys, mode):
        cache, out = tmp_path / "cache", tmp_path / "out"
        argv = ["run", "fig01", "--scale", "ci", "--quiet", "--cache", str(cache),
                "--outdir", str(out)]
        assert main(argv) == 0
        store = ResultStore(str(cache))
        assert store.gc(0) and store.entries() == []
        capsys.readouterr()
        assert main([*argv, "--resume", *mode]) == 0
        printed = capsys.readouterr().out
        assert "already complete" in printed and "drained" not in printed
        assert ResultStore(str(cache)).entries() == []
        assert _computed(cache) == {}
