"""The repo tooling (API-doc generator) stays runnable."""

import os
import subprocess
import sys


def test_api_doc_generator_runs(tmp_path, monkeypatch):
    root = os.path.join(os.path.dirname(__file__), "..")
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "tools", "gen_api_docs.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    path = os.path.join(root, "docs", "API.md")
    assert os.path.exists(path)
    with open(path) as fh:
        text = fh.read()
    assert "# API reference" in text
    assert "repro.core.analysis" in text
    assert "simulate" in text
