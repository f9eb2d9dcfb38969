"""Host-speed probe: a fixed unit of interpreter work, sampled per CPU while a run lasts.

The virtual CPUs this benchmark is built for change speed by up to 2.5x in
phases lasting from seconds to over a minute, independently on each CPU,
and the program's CPU time follows its wall time.  Raw seconds therefore
cannot repeat within a tenth.  Every timed interval is instead scaled by
the speed of the CPU that did the work, measured by :func:`probe_ms` in a
sampler process that visits each CPU in turn all through the run.  An
interpreter loop tracks the vectorized kernels too: calibrating identical
kernel calls by it left less spread than by numpy probes of small or large
arrays.

The probe is timed in *thread CPU time*, so it reads the CPU's speed even
while it shares that CPU with the program under test; wall time would read
the time-slicing instead.

Run as a script, this module is the sampler::

    python3 perfbench/probe.py --cpus 0 1 --out samples.txt

It appends ``<monotonic seconds> <cpu> <probe ms>`` lines until SIGTERM.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time
from typing import Dict, Iterable, List, Sequence, Tuple

#: Probe milliseconds that define one "reference second": a calibrated time
#: is the time the work would take on a CPU whose probe reads this.
REFERENCE_PROBE_MS = 1.0

#: Shortest window of samples that calibrates one interval.
MIN_WINDOW_S = 0.5

#: Share of CPU time the sampler takes, split between the CPUs it samples.
DUTY = 0.06

#: (monotonic seconds, cpu, probe ms)
Sample = Tuple[float, int, float]


def probe_ms() -> float:
    """Thread CPU milliseconds of one fixed mix of interpreter work."""
    start = time.thread_time_ns()
    acc = 0
    table: Dict[int, int] = {}
    items: List[int] = []
    for i in range(3000):
        acc = (acc * 1103515245 + i) & 0xFFFFFFF
        table[acc & 1023] = i
        if i & 7 == 0:
            items.append(acc)
    items.sort()
    sum(table.values())
    return (time.thread_time_ns() - start) / 1e6


def read_samples(path: str) -> List[Sample]:
    """Samples written by the sampler, oldest first (torn last line skipped)."""
    samples: List[Sample] = []
    try:
        with open(path, encoding="ascii") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 3:
                    samples.append((float(parts[0]), int(parts[1]), float(parts[2])))
    except FileNotFoundError:
        return []
    return samples


def speed_factor(samples: Sequence[Sample], t0: float, t1: float, cpus: Iterable[int]) -> float:
    """Mean of ``REFERENCE_PROBE_MS / probe`` over *cpus* during ``[t0, t1]``.

    A fixed amount of CPU work done at speed ``s(t)`` takes ``T`` with
    ``W = T * mean(s)``, so ``raw * factor`` is the time at reference speed.
    Intervals shorter than :data:`MIN_WINDOW_S` use the samples around them.
    """
    wanted = set(cpus)
    mine = [s for s in samples if s[1] in wanted]
    if not mine:
        raise RuntimeError(f"no probe samples on CPUs {sorted(wanted)}")
    # The speed flips between states within milliseconds, so a short
    # interval borrows samples from a window of at least MIN_WINDOW_S.
    pad = max(0.0, (MIN_WINDOW_S - (t1 - t0)) / 2)
    chosen = [s for s in mine if t0 - pad <= s[0] <= t1 + pad]
    if not chosen:
        raise RuntimeError(f"no probe samples between {t0:.3f} and {t1:.3f}")
    return sum(REFERENCE_PROBE_MS / s[2] for s in chosen) / len(chosen)


def _run_sampler(cpus: Sequence[int], out: str) -> int:
    stop = False

    def _stop(signum: int, frame: object) -> None:
        nonlocal stop
        stop = True

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    with open(out, "a", encoding="ascii", buffering=1) as fh:
        while not stop:
            started = time.monotonic()
            for cpu in cpus:
                if len(cpus) > 1:
                    os.sched_setaffinity(0, {cpu})
                ms = probe_ms()
                fh.write(f"{time.monotonic():.6f} {cpu} {ms:.5f}\n")
            # Sleeping in proportion to the probing keeps the sampler's share
            # at DUTY whatever the speed: a fixed interval would take more of
            # a slow CPU and inflate exactly the slow runs.
            time.sleep((time.monotonic() - started) * (1.0 / DUTY - 1.0))
    return 0


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpus", type=int, nargs="+", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if len(args.cpus) == 1:
        os.sched_setaffinity(0, {args.cpus[0]})
    return _run_sampler(args.cpus, args.out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
