"""Pieces shared by the figure and serve workloads of the benchmark."""

from __future__ import annotations

import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Sequence

import probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

#: The seed whose CSVs must match perfbench/reference.json byte for byte.
DEFAULT_SEED = 0

#: Fresh warm processes per run; each one is also a set-up sample.
MIN_WARM = 3
MAX_WARM = 10

#: A warm figure pass can take a tenth of a second, too short to calibrate,
#: so each warm process repeats it until this long has passed (at most
#: WARM_PASSES times) and reports the time per pass.
WARM_WINDOW_S = 0.6
WARM_PASSES = 5


def child_env() -> Dict[str, str]:
    """Environment of every launched process: one BLAS/OpenMP thread, fixed hashing."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


class Sampler:
    """The probe sampler process (see probe.py) for the duration of a run."""

    def __init__(self, cpus: Sequence[int], path: str) -> None:
        self.path = path
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py"), "--cpus", *map(str, cpus),
             "--out", path],
            env=child_env(),
        )
        self.samples: List[probe.Sample] = []
        deadline = time.monotonic() + 10.0
        while not probe.read_samples(path) and time.monotonic() < deadline:
            time.sleep(0.01)

    def stop(self) -> List[probe.Sample]:
        self.proc.send_signal(signal.SIGTERM)
        self.proc.wait(timeout=30)
        self.samples = probe.read_samples(self.path)
        return self.samples

    def calibrate(self, raw: float, t0: float, t1: float, cpus: Sequence[int]) -> float:
        return raw * probe.speed_factor(self.samples, t0, t1, cpus)

    def mean_probe_ms(self) -> float:
        """Mean probe over the run: the host's speed while it lasted."""
        return statistics.fmean(s[2] for s in self.samples)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def machine() -> Dict[str, Any]:
    """What the result was measured on."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    info: Dict[str, Any] = {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "cpus_allowed": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        capture_output=True, text=True, env=child_env(), check=False,
    ).stdout.split()
    if len(versions) == 2:
        info["numpy"], info["scipy"] = versions
    return info


class Tally:
    """Attempted and failed operations of one run, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
