"""The documented quickstarts actually run.

These tests parse fenced code blocks out of the markdown they claim to
test — README.md and docs/CACHING.md — and execute them at smoke scale.
If a documented command sequence rots (renamed flag, dropped subcommand,
changed default), the failure points at the doc, not at a copy of it.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Console-script name → (module, function), mirroring [project.scripts].
SCRIPTS = {
    "repro-analyze": ("repro.analyze.cli", "main"),
    "repro-bench": ("repro.experiments.bench", "main"),
    "repro-experiments": ("repro.experiments.cli", "main"),
    "repro-report": ("repro.obs.cli", "main"),
    "repro-serve": ("repro.serve.cli", "main"),
    "repro-store": ("repro.store.cli", "main"),
}

_FENCE = re.compile(r"```(\w+)\n(.*?)```", re.DOTALL)


def fenced_blocks(markdown_path, language):
    """All fenced code blocks of *language* in a markdown file, in order."""
    text = (ROOT / markdown_path).read_text(encoding="utf-8")
    return [body for lang, body in _FENCE.findall(text) if lang == language]


def _subprocess_env():
    env = os.environ.copy()
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_documented_command(line, cwd):
    """Run one quickstart shell line via the script's entry function."""
    argv = shlex.split(line)
    module, func = SCRIPTS[argv[0]]
    code = (
        "import sys; sys.argv = {argv!r}; "
        "from {module} import {func}; sys.exit({func}())"
    ).format(argv=argv, module=module, func=func)
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env=_subprocess_env(),
        capture_output=True,
        text=True,
    )


def test_script_table_matches_pyproject():
    """The mapping above is the one pyproject installs — no silent drift."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    declared = dict(
        (name, tuple(target.split(":")))
        for name, target in re.findall(r'^(repro-[a-z]+) = "([\w.:]+)"', text, re.M)
    )
    assert declared == SCRIPTS


def test_caching_quickstart_runs(tmp_path):
    """Every line of the docs/CACHING.md quickstart exits 0, in order."""
    blocks = fenced_blocks("docs/CACHING.md", "bash")
    assert blocks, "docs/CACHING.md lost its quickstart block"
    lines = [
        ln.strip()
        for ln in blocks[0].splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    assert any("repro-experiments run" in ln for ln in lines)
    for line in lines:
        proc = run_documented_command(line, cwd=tmp_path)
        assert proc.returncode == 0, f"{line!r} failed:\n{proc.stdout}{proc.stderr}"
    # The quickstart's own claims hold: the CSV exists and the second,
    # resumed run skipped the already-complete figure.
    assert (tmp_path / "results" / "fig01_ci.csv").is_file()
    assert (tmp_path / "cache").is_dir()
    resume_line = next(ln for ln in lines if "--resume" in ln)
    proc = run_documented_command(resume_line, cwd=tmp_path)
    assert proc.returncode == 0
    assert "already complete" in proc.stdout


def test_readme_python_quickstart_runs(tmp_path):
    """The README's first python block executes and prints the two values."""
    blocks = fenced_blocks("README.md", "python")
    assert blocks, "README.md lost its python quickstart"
    proc = subprocess.run(
        [sys.executable, "-c", blocks[0]],
        cwd=tmp_path,
        env=_subprocess_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 2


@pytest.mark.parametrize("doc", ["README.md", "docs/CACHING.md"])
def test_quickstart_commands_are_known_scripts(doc):
    """Bash blocks only invoke commands this repo installs (or stdlib)."""
    allowed = set(SCRIPTS) | {"python", "pip", "pytest", "REPRO_SCALE=medium"}
    for block in fenced_blocks(doc, "bash"):
        joined = re.sub(r"\\\n\s*", " ", block)  # fold line continuations
        for line in joined.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            head = line.split()[0]
            assert head in allowed, f"{doc}: undocumented tool {head!r}"
