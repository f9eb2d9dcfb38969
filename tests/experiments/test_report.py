"""Tests for the results-directory report generator."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.config import FigureData
from repro.experiments.io import write_csv
from repro.experiments.report import summarize_results, write_report


def _populate(directory):
    fig = FigureData("fig99", "t", "p", "ratio")
    s = fig.new_series("RandomOuter")
    s.add(10, 4.0, 0.1)
    s.add(100, 6.0, 0.1)
    t = fig.new_series("DynamicOuter2Phases")
    t.add(10, 2.0, 0.05)
    t.add(100, 2.1, 0.05)
    write_csv(fig, os.path.join(directory, "fig99_ci.csv"))
    return fig


SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestSummarize:
    def test_report_contents(self, tmp_path):
        _populate(str(tmp_path))
        text = summarize_results(str(tmp_path))
        assert "# Results summary" in text
        assert "## fig99 (ci)" in text
        assert "RandomOuter" in text
        assert "DynamicOuter2Phases" in text

    def test_headline_ratio(self, tmp_path):
        _populate(str(tmp_path))
        text = summarize_results(str(tmp_path))
        # At x=100: Random 6.0 vs 2Phases 2.1 -> 2.86x.
        assert "2.86x" in text

    def test_scales_ordered(self, tmp_path):
        fig = FigureData("figz", "t", "p", "r")
        fig.new_series("a").add(1, 1.0)
        write_csv(fig, os.path.join(str(tmp_path), "figz_ci.csv"))
        write_csv(fig, os.path.join(str(tmp_path), "figz_paper.csv"))
        text = summarize_results(str(tmp_path))
        assert text.index("figz (paper)") < text.index("figz (ci)")

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            summarize_results(str(tmp_path))

    def test_non_figure_csv_skipped(self, tmp_path):
        (tmp_path / "random_data.csv").write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            summarize_results(str(tmp_path))

    def test_write_report(self, tmp_path):
        _populate(str(tmp_path))
        out = write_report(str(tmp_path), str(tmp_path / "out" / "report.md"))
        assert os.path.exists(out)
        with open(out) as fh:
            assert "# Results summary" in fh.read()

    def test_real_results_directory(self):
        """The repo's own results/ directory must summarize cleanly."""
        if not os.path.isdir("results"):
            pytest.skip("results/ not present")
        text = summarize_results("results")
        assert "fig04" in text

    def test_headline_independent_of_hash_seed(self, tmp_path):
        """With several Random* and *2Phases series the headline picks the
        first of each in CSV order, never in the process's set-hash order."""
        fig = FigureData("fig98", "t", "p", "ratio")
        for i, label in enumerate(
            ["RandomOuter", "RandomMatrix", "DynamicOuter2Phases", "RandomHybrid", "DynamicMatrix2Phases"]
        ):
            fig.new_series(label).add(10, 2.0 + i, 0.1)
        write_csv(fig, os.path.join(str(tmp_path), "fig98_ci.csv"))
        code = "import sys; from repro.experiments.report import summarize_results; print(summarize_results(sys.argv[1]))"
        texts = set()
        for hash_seed in ("0", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
            proc = subprocess.run(
                [sys.executable, "-c", code, str(tmp_path)],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            texts.add(proc.stdout)
        (text,) = texts
        assert "DynamicOuter2Phases = 4.000, RandomOuter = 2.000" in text
