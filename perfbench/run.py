"""The repository benchmark: one command, four workloads, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload outer_figures --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload again with span wrappers installed and prints the per-layer
metrics.  Each run starts fresh processes, makes a cold pass against an
empty store and warm passes against the store it filled, checks every
output, and prints one JSON object as the last line of standard output.
See perfbench/README.md for the workloads, metrics and calibration.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import probe
from harness import (
    DEFAULT_SEED, HERE, MAX_WARM, MIN_WARM, ROOT, SRC, WARM_PASSES, WARM_WINDOW_S, WORK, Sampler,
    Tally, child_env, machine, median,
)

#: Figure workloads: (scale, figure ids) per ``repro-experiments run`` call.
FIGURE_WORKLOADS: Dict[str, List[Tuple[str, List[str]]]] = {
    "outer_figures": [("medium", ["fig04", "fig06"]), ("ci", ["fig08"])],
    "matrix_figures": [("medium", ["fig11"]), ("ci", ["fig10"])],
    "scalar_figures": [("medium", ["flt01", "ext03"])],
}
WORKLOADS = tuple(FIGURE_WORKLOADS) + ("serve_mixed",)


# ---------------------------------------------------------------------------
# Figure workloads
# ---------------------------------------------------------------------------


def figure_passes(workload: str, seed: int, cache: str, outdir: str) -> List[List[str]]:
    """The ``repro-experiments`` argument lists of one pass."""
    return [
        ["run", *figures, "--scale", scale, "--seed", str(seed), "--cache", cache,
         "--outdir", outdir, "--quiet"]
        for scale, figures in FIGURE_WORKLOADS[workload]
    ]


def run_worker(workload: str, seed: int, cache: str, outdirs: Sequence[str], cpu: int,
               trace: Optional[str] = None, min_seconds: float = 0.0) -> Dict[str, Any]:
    """Spawn one figure worker: passes into *outdirs* until *min_seconds* have passed."""
    spec = {
        "src": SRC,
        "cpu": cpu,
        "cache": cache,
        "passes": [{"outdir": d, "argv": figure_passes(workload, seed, cache, d)} for d in outdirs],
        "trace": trace,
        "min_seconds": min_seconds,
    }
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "figure_worker.py"), json.dumps(spec)],
        capture_output=True, text=True, env=child_env(), timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"figure worker failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["t_spawn"] = t_spawn
    return report


def check_figure_outputs(tally: Tally, workload: str, seed: int, cold: Dict[str, Any],
                         warm: Sequence[Dict[str, Any]]) -> None:
    """Every CSV of every pass: exit codes, warm == cold, cold == reference."""
    expected = [f"{fid}_{scale}.csv" for scale, figs in FIGURE_WORKLOADS[workload] for fid in figs]
    reference: Dict[str, str] = {}
    if seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            reference = json.load(fh)["csv_sha256"]
    first = cold["passes"][0]
    for report in [cold, *warm]:
        for done in report["passes"]:
            ok = all(code == 0 for code in done["codes"])
            for name in expected:
                digest = done["csv_sha256"].get(name)
                if done is first:
                    want = reference.get(name, digest) if reference else digest
                    tally.check(ok and digest is not None and digest == want,
                                f"{name}: cold CSV differs from perfbench/reference.json")
                else:
                    tally.check(ok and digest is not None and digest == first["csv_sha256"].get(name),
                                f"{name}: warm CSV differs from the cold pass")


def figure_sequence(workload: str, seed: int, seconds: float, cpu: int, base: str, *,
                    trace_dir: Optional[str] = None) -> Dict[str, Any]:
    """Cold pass in a fresh process, then fresh processes of warm passes.

    Untraced, each warm process runs passes back to back for at least
    :data:`WARM_WINDOW_S` (at most :data:`WARM_PASSES`), and warm processes
    keep coming until *seconds* have passed (at least :data:`MIN_WARM`).
    Traced, one process runs one warm pass, so the span counts repeat exactly.
    """
    start = time.monotonic()
    cache = os.path.join(base, "store")
    traces: List[str] = []

    def trace_path(tag: str) -> Optional[str]:
        if trace_dir is None:
            return None
        traces.append(os.path.join(trace_dir, f"{tag}.jsonl"))
        return traces[-1]

    cold = run_worker(workload, seed, cache, [os.path.join(base, "cold")], cpu, trace_path("cold"))
    warm: List[Dict[str, Any]] = []
    traced = trace_dir is not None
    while len(warm) < (1 if traced else MAX_WARM):
        if not traced and len(warm) >= MIN_WARM and time.monotonic() - start >= seconds:
            break
        k = len(warm)
        outdirs = [os.path.join(base, f"warm{k}.{i}") for i in range(1 if traced else WARM_PASSES)]
        warm.append(run_worker(workload, seed, cache, outdirs, cpu, trace_path(f"warm{k}"),
                               WARM_WINDOW_S))
    return {"cold": cold, "warm": warm, "traces": traces}


def figure_timings(seq: Dict[str, Any], sampler: Sampler, cpu: int) -> Dict[str, Any]:
    """(raw, calibrated) seconds of every set-up and pass of a sequence."""

    def timed(t0: float, t1: float, count: int = 1) -> Tuple[float, float]:
        return (t1 - t0) / count, sampler.calibrate(t1 - t0, t0, t1, [cpu]) / count

    cold, warm = seq["cold"], seq["warm"]
    setups = [timed(w["t_spawn"], w["t_ready"]) for w in warm]
    imports = [timed(w["t_import"], w["t_store"]) for w in warm]
    return {
        "cold": timed(cold["passes"][0]["t_pass"], cold["passes"][0]["t_done"]),
        # One figure per warm process: its passes back to back, per pass.
        "warm": [timed(w["passes"][0]["t_pass"], w["passes"][-1]["t_done"], len(w["passes"]))
                 for w in warm],
        "setup": setups,
        "import": imports,
        "boot": [(s[0] - i[0], s[1] - i[1]) for s, i in zip(setups, imports)],
        "rss_mb": max(r["maxrss_kb"] for r in [cold, *warm]) / 1024.0,
    }


def run_figures(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    cpu = sorted(os.sched_getaffinity(0))[0]
    sampler = Sampler([cpu], os.path.join(WORK, "probe.txt"))
    tally = Tally()
    traced = None
    try:
        seq = figure_sequence(workload, seed, seconds, cpu, os.path.join(WORK, "untraced"))
        if trace:
            trace_dir = os.path.join(WORK, "spans")
            os.makedirs(trace_dir)
            traced = figure_sequence(workload, seed, seconds, cpu, os.path.join(WORK, "traced"),
                                     trace_dir=trace_dir)
    finally:
        samples = sampler.stop()
    check_figure_outputs(tally, workload, seed, seq["cold"], seq["warm"])
    times = figure_timings(seq, sampler, cpu)
    record: Dict[str, Any] = {
        "times": times,
        "cold_csv_sha256": seq["cold"]["passes"][0]["csv_sha256"],
        "samples": {"warm_processes": len(seq["warm"]),
                    "warm_passes": sum(len(w["passes"]) for w in seq["warm"]),
                    "setups": len(times["setup"]), "probe_samples": len(samples)},
        "host_probe_ms": sampler.mean_probe_ms(),
    }
    metrics = {
        "setup_s": median([s[1] for s in times["setup"]]),
        "cold_s": times["cold"][1],
        "warm_s": median([w[1] for w in times["warm"]]),
        "peak_rss_mb": times["rss_mb"],
    }
    if traced is not None:
        check_figure_outputs(tally, workload, seed, traced["cold"], traced["warm"])
        record["traced"] = figure_layers(traced, times, sampler, cpu)
    return {"tally": tally, "metrics": metrics, "record": record}


def figure_layers(traced: Dict[str, Any], times: Dict[str, Any], sampler: Sampler,
                  cpu: int) -> Dict[str, float]:
    """Per-layer metrics of the traced cold and warm pass."""
    import spans

    traced_times = figure_timings(traced, sampler, cpu)
    t0 = traced["cold"]["passes"][0]["t_pass"]
    t1 = traced["warm"][-1]["passes"][-1]["t_done"]
    layers = spans.layer_metrics(spans.load(traced["traces"]),
                                 probe.speed_factor(sampler.samples, t0, t1, [cpu]))
    layers["setup.import_s"] = median([i[1] for i in times["import"]])
    layers["setup.boot_s"] = median([b[1] for b in times["boot"]])
    untraced = times["cold"][1] + median([w[1] for w in times["warm"]])
    traced_s = traced_times["cold"][1] + traced_times["warm"][0][1]
    layers["trace.overhead_share"] = traced_s / untraced - 1.0
    layers["store.bytes_written"] = float(traced["cold"]["store_bytes"])
    layers["store.corrupt"] = float(traced["warm"][-1]["store_corrupt"])
    return layers


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGTERM unwinds through the finally blocks that stop every process
    # the run started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)

    started = time.monotonic()
    if args.workload == "serve_mixed":
        import serve_load

        outcome = serve_load.run_serve(args.seed, args.seconds, bool(args.trace))
    else:
        outcome = run_figures(args.workload, args.seed, args.seconds, bool(args.trace))
    tally: Tally = outcome["tally"]
    record = outcome["record"]
    # BENCHMARK.json names the metrics each mode prints, with their units.
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if args.trace:
        # Layers a workload never calls read zero.
        metrics = dict.fromkeys(units, 0.0)
        metrics.update(record.pop("traced"))
        metrics["host.probe_ms"] = record["host_probe_ms"]
        metrics["failed_share"] = tally.failed / tally.attempted
    else:
        metrics = dict(outcome["metrics"])
        metrics["ok_share"] = (tally.attempted - tally.failed) / tally.attempted
    record.update({
        "end_to_end": outcome["metrics"],
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_s": time.monotonic() - started,
        "machine": machine(),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
    })
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"record": record}, sort_keys=True))
    for name in units:
        print(f"{name:28s} {metrics[name]:14.6f} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
