"""The ``serve_mixed`` workload: two ``repro-serve`` instances, one closed-loop client.

Both instances share one store root and run with ``--port 0 --quota-burst 0``
and otherwise default settings, each pinned to its own CPU.  The client
runs two threads, one per instance and pinned to that instance's CPU, each
sending its next request only after the previous one completed, over a
fresh connection per request (the service closes connections after each
response).

The request script is generated from the seed.  Each round gives each
thread one request, in a fixed rotation (:data:`MIX`): half
``/v1/analytical`` queries, a quarter cells seen before by that thread
(answered ``hit``) and a quarter fresh cells (``computed``).  The seed
draws the queries, the platforms and which earlier cell a hit asks for.
Every :data:`DUP_EVERY` rounds both threads send the same fresh cell at
once, so one instance waits on the other's claim, and a few rounds send a
buffered ``/v1/sweep``.  Cells use the figure-path keys (``StrategySpec`` +
``UniformPlatformSpec``), so store entries are shared with
``repro-experiments``.

A run boots the pair, sends the script once against the empty store (the
cold pass) and stops it; then boots :data:`SETUP_PAIRS` fresh pairs on the
filled store, the last of which replays the script (warm passes) until the
time is up.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import probe
from harness import HERE, MAX_WARM, MIN_WARM, SRC, WORK, Sampler, Tally, child_env, median

ROUNDS = 560
DUP_EVERY = 25
SWEEP_ROUNDS = (100, 240, 380, 520)
SWEEP_CELLS = 6

#: Fresh pairs booted on the warm store per run, for the set-up median; the
#: last one then serves the warm passes.
SETUP_PAIRS = 3

#: Request kinds in rotation, so every seed sends the same mix.
MIX = ("analytical", "hit", "analytical", "miss")

#: (strategy, n) of fresh cells, in rotation: every registry strategy.
CELL_SHAPES = (
    ("RandomOuter", 32), ("SortedOuter", 32), ("DynamicOuter", 32), ("DynamicOuter2Phases", 32),
    ("MapReduceOuter", 32), ("RandomMatrix", 8), ("SortedMatrix", 8), ("DynamicMatrix", 8),
    ("DynamicMatrix2Phases", 8), ("MapReduceMatrix", 8),
)
QUERIES = ("ratio", "optimal_beta", "agnostic_beta", "lower_bound")


# ---------------------------------------------------------------------------
# Request script
# ---------------------------------------------------------------------------


class ScriptMaker:
    """Draws the request script of one seed."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.known: Tuple[List[Dict[str, Any]], List[Dict[str, Any]]] = ([], [])
        self.cells = 0

    def fresh_cell(self) -> Dict[str, Any]:
        # Strategies and sizes rotate, so every seed costs about the same
        # engine work; the seed draws the platforms and replicate streams.
        self.cells += 1
        strategy, n = CELL_SHAPES[self.cells % len(CELL_SHAPES)]
        return {
            "strategy": strategy,
            "n": n,
            "reps": 2,
            "seed": self.rng.randrange(2**31),
            "platform": {"type": "uniform", "p": 4 + self.cells % 5 * 4},
        }

    def analytical(self) -> Dict[str, Any]:
        rng = self.rng
        body: Dict[str, Any] = {
            "query": rng.choice(QUERIES),
            "kernel": rng.choice(("outer", "matrix")),
            "n": rng.randint(20, 200),
        }
        p = 4 + len(self.known[0]) % 8 * 4
        if body["query"] == "agnostic_beta":
            body["p"] = p
        else:
            body["speeds"] = [round(rng.uniform(10, 100), 2) for _ in range(p)]
            if body["query"] == "ratio" and rng.random() < 0.5:
                body["beta"] = round(rng.uniform(0.5, 4.0), 3)
        return body

    def op(self, thread: int, rnd: int) -> Dict[str, Any]:
        kind = MIX[(rnd + thread) % len(MIX)]
        if kind == "analytical":
            return {"kind": "analytical", "path": "/v1/analytical", "body": self.analytical()}
        known = self.known[thread]
        if kind == "hit" and known:
            return {"kind": "hit", "path": "/v1/cell", "body": self.rng.choice(known)}
        cell = self.fresh_cell()
        known.append(cell)
        return {"kind": "miss", "path": "/v1/cell", "body": cell}

    def sweep(self, thread: int) -> Dict[str, Any]:
        known = self.known[thread]
        cells = self.rng.sample(known, min(len(known), SWEEP_CELLS // 2))
        fresh = [self.fresh_cell() for _ in range(SWEEP_CELLS - len(cells))]
        known.extend(fresh)
        return {"kind": "sweep", "path": "/v1/sweep", "body": {"cells": cells + fresh}}


def make_script(seed: int) -> List[List[Dict[str, Any]]]:
    """Per-thread request lists; a ``dup`` op sits at the same index in both."""
    maker = ScriptMaker(seed)
    ops: List[List[Dict[str, Any]]] = [[], []]
    for rnd in range(ROUNDS):
        if rnd % DUP_EVERY == DUP_EVERY // 2:
            cell = maker.fresh_cell()
            for thread in (0, 1):
                maker.known[thread].append(cell)
                ops[thread].append({"kind": "dup", "path": "/v1/cell", "body": cell})
            continue
        for thread in (0, 1):
            if rnd in SWEEP_ROUNDS and thread == SWEEP_ROUNDS.index(rnd) % 2:
                ops[thread].append(maker.sweep(thread))
            else:
                ops[thread].append(maker.op(thread, rnd))
    return ops


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


class Pair:
    """Two ``repro-serve`` instances on one store, from spawn to drained."""

    def __init__(self, store: str, cpus: Sequence[int], trace_dir: Optional[str], tag: str) -> None:
        self.trace_paths: List[str] = []
        self.procs: List[subprocess.Popen] = []
        self.ports: List[int] = []
        self.imports: List[Tuple[float, float]] = []
        self.maxrss_kb: List[int] = []
        self.cpus = [cpus[i % len(cpus)] for i in range(2)]
        self.lines: List["queue.Queue[str]"] = []
        self.readers: List[threading.Thread] = []
        self.t_spawn = time.monotonic()
        for i in range(2):
            trace = None
            if trace_dir is not None:
                trace = os.path.join(trace_dir, f"{tag}-{i}.jsonl")
                self.trace_paths.append(trace)
            spec = {
                "src": SRC,
                "cpu": self.cpus[i],
                "trace": trace,
                "args": ["--port", "0", "--store", store, "--quota-burst", "0"],
            }
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "serve_launcher.py"), json.dumps(spec)],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=child_env(),
            )
            self.procs.append(proc)
            self.lines.append(queue.Queue())
            self.readers.append(threading.Thread(target=self._read, args=(proc, self.lines[-1])))
            self.readers[-1].start()
        try:
            for lines in self.lines:
                started = json.loads(self._line(lines))
                self.imports.append((started["t_import"], started["t_imported"]))
                line = self._line(lines)
                if "listening on http://" not in line:
                    raise RuntimeError(f"repro-serve did not start: {line!r}")
                self.ports.append(int(line.rsplit(":", 1)[1]))
            for port in self.ports:
                status, _ = request(port, "GET", "/healthz", None, "healthz")
                if status != 200:
                    raise RuntimeError(f"/healthz answered {status}")
        except BaseException:
            self.stop()
            raise
        self.t_ready = time.monotonic()

    @staticmethod
    def _read(proc: subprocess.Popen, lines: "queue.Queue[str]") -> None:
        assert proc.stdout is not None
        for line in proc.stdout:
            lines.put(line.strip())
        lines.put("")

    @staticmethod
    def _line(lines: "queue.Queue[str]") -> str:
        try:
            line = lines.get(timeout=60.0)
        except queue.Empty:
            line = ""
        if not line:
            raise RuntimeError("repro-serve exited or hung before it was ready")
        return line

    def metrics(self) -> List[Dict[str, Any]]:
        return [json.loads(request(port, "GET", "/metrics", None, "metrics")[1]) for port in self.ports]

    def stop(self) -> None:
        """SIGTERM both (graceful drain) and wait for them; records peak RSS."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc, lines, reader in zip(self.procs, self.lines, self.readers):
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            reader.join(timeout=10)
            while not lines.empty():
                line = lines.get()
                if line.startswith("{") and "maxrss_kb" in line:
                    self.maxrss_kb.append(json.loads(line)["maxrss_kb"])


def request(port: int, method: str, path: str, body: Optional[Dict[str, Any]],
            ident: str) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"X-Repro-Client": ident}
        if payload is not None:
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------


def send_script(pair: Pair, script: List[List[Dict[str, Any]]], tag: str) -> Dict[str, Any]:
    """Both threads through their request lists; returns timings and responses."""
    barrier = threading.Barrier(2)
    results: List[List[Dict[str, Any]]] = [[], []]
    errors: List[BaseException] = []

    def client(thread: int) -> None:
        port = pair.ports[thread]
        out = results[thread]
        clock = time.perf_counter
        # Each thread shares its instance's CPU: a closed loop never has
        # both busy, and a request never hops between CPUs.
        os.sched_setaffinity(0, {pair.cpus[thread]})
        try:
            for i, op in enumerate(script[thread]):
                if op["kind"] == "dup":
                    barrier.wait(timeout=120)
                ident = f"{tag}-{thread}-{i}"
                start = clock()
                status, raw = request(port, "POST", op["path"], op["body"], ident)
                out.append({"id": ident, "latency": clock() - start, "status": status, "raw": raw})
        except BaseException as exc:  # recorded and re-raised by the caller
            barrier.abort()
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(t,)) for t in (0, 1)]
    t0 = time.monotonic()
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    t1 = time.monotonic()
    if errors:
        raise RuntimeError(f"client failed: {errors[0]!r}")
    return {"t0": t0, "t1": t1, "results": results}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def check_pass(tally: Tally, script: List[List[Dict[str, Any]]], sent: Dict[str, Any], cold: bool,
               summaries: Dict[str, Any], analytical: List[Tuple[Dict[str, Any], Dict[str, Any]]],
               classes: Dict[str, List[float]]) -> None:
    """Status codes, cell statuses and summary identity of one pass.

    Fills *classes* with latencies by class and *analytical* with the
    (query, answer) pairs checked later against a local evaluation.
    """
    for thread in (0, 1):
        for op, res in zip(script[thread], sent["results"][thread]):
            classes["all"].append(res["latency"])
            if res["status"] != 200:
                tally.check(False, f"{op['path']} answered HTTP {res['status']}")
                continue
            answer = json.loads(res["raw"])
            if op["kind"] == "analytical":
                classes["analytical"].append(res["latency"])
                analytical.append((op["body"], answer))
                continue
            rows = answer["cells"] if op["kind"] == "sweep" else [answer]
            if op["kind"] == "miss":
                allowed = {"computed"} if cold else {"hit"}
            elif op["kind"] == "hit":
                allowed = {"hit"}
            else:
                allowed = {"computed", "coalesced", "hit"} if cold else {"hit"}
            for row in rows:
                status = row.get("status")
                seen = summaries.setdefault(row.get("fingerprint"), row.get("summary"))
                tally.check(status in allowed and row.get("summary") is not None
                            and row.get("summary") == seen,
                            f"{op['kind']} cell answered {status} with summary {row.get('summary')}")
                if op["kind"] == "sweep":
                    continue
                if op["kind"] == "hit" or status == "computed":
                    classes[status].append(res["latency"])
                elif op["kind"] == "dup":
                    # Rode the other instance's run: the service answers
                    # "coalesced" or, when the wait ends by winning the
                    # released claim and finding the entry, "hit".
                    classes["coalesced"].append(res["latency"])


def check_against_library(tally: Tally, script: List[List[Dict[str, Any]]],
                          summaries: Dict[str, Any],
                          analytical: List[Tuple[Dict[str, Any], Dict[str, Any]]]) -> None:
    """Served answers equal what the library computes for the same inputs."""
    sys.path.insert(0, SRC)
    from repro.experiments.parallel import StrategySpec, UniformPlatformSpec
    from repro.experiments.runner import average_normalized_comm
    from repro.serve.protocol import AnalyticalQuery, CellSpec
    from repro.store.cells import summary_to_payload

    expected: Dict[str, Any] = {}
    for body, answer in analytical:
        text = json.dumps(body, sort_keys=True)
        if text not in expected:
            expected[text] = json.loads(json.dumps(AnalyticalQuery.parse(body).evaluate()))
        tally.check(answer == expected[text],
                    f"analytical {text} answered {answer}, library says {expected[text]}")
    cell = next(op["body"] for op in script[0] if op["kind"] == "miss")
    summary = average_normalized_comm(
        StrategySpec(cell["strategy"], cell["n"]),
        UniformPlatformSpec(cell["platform"]["p"]),
        cell["n"],
        cell["reps"],
        seed=cell["seed"],
    )
    fp = CellSpec.parse(cell).fingerprint()
    local = summary_to_payload(summary, None)["summary"]
    tally.check(summaries.get(fp) == local,
                f"served summary {summaries.get(fp)} differs from average_normalized_comm {local}")


# ---------------------------------------------------------------------------
# Workload
# ---------------------------------------------------------------------------


def _p(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run_serve(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    cpus = sorted(os.sched_getaffinity(0))[:2]
    script = make_script(seed)
    sampler = Sampler(cpus, os.path.join(WORK, "probe.txt"))
    tally = Tally()
    started = time.monotonic()
    pairs: List[Pair] = []
    passes: List[Dict[str, Any]] = []
    traced: Optional[Dict[str, Any]] = None
    store = os.path.join(WORK, "untraced", "store")
    try:
        pair = Pair(store, cpus, None, "cold")
        pairs.append(pair)
        try:
            passes.append(send_script(pair, script, "cold"))
        finally:
            pair.stop()
        for k in range(SETUP_PAIRS):
            pair = Pair(store, cpus, None, f"warm{k}")
            pairs.append(pair)
            if k < SETUP_PAIRS - 1:
                pair.stop()
        try:
            while len(passes) <= MAX_WARM:
                if len(passes) > MIN_WARM and time.monotonic() - started >= seconds:
                    break
                passes.append(send_script(pair, script, f"warm{len(passes)}"))
        finally:
            pair.stop()
        if trace:
            trace_dir = os.path.join(WORK, "spans")
            os.makedirs(trace_dir)
            pair = Pair(os.path.join(WORK, "traced", "store"), cpus, trace_dir, "traced")
            try:
                traced = {"cold": send_script(pair, script, "tcold"),
                          "warm": send_script(pair, script, "twarm")}
                traced["metrics"] = pair.metrics()
            finally:
                pair.stop()
            traced["pair"] = pair
    finally:
        samples = sampler.stop()

    summaries: Dict[str, Any] = {}
    analytical: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
    classes: Dict[str, List[float]] = {k: [] for k in ("all", "analytical", "hit", "computed", "coalesced")}
    check_pass(tally, script, passes[0], True, summaries, analytical, classes)
    cold_classes = {k: list(v) for k, v in classes.items()}
    for sent in passes[1:]:
        check_pass(tally, script, sent, False, summaries, analytical, classes)
    if traced is not None:
        check_pass(tally, script, traced["cold"], True, summaries, analytical, classes)
        check_pass(tally, script, traced["warm"], False, summaries, analytical, classes)
    check_against_library(tally, script, summaries, analytical)

    def calibrated(t0: float, t1: float) -> Tuple[float, float]:
        return t1 - t0, sampler.calibrate(t1 - t0, t0, t1, cpus)

    setups = [calibrated(p.t_spawn, p.t_ready) for p in pairs]
    imports = [calibrated(*imp) for p in pairs for imp in p.imports]
    cold = calibrated(passes[0]["t0"], passes[0]["t1"])
    warm = [calibrated(s["t0"], s["t1"]) for s in passes[1:]]
    ops = [op for thread in script for op in thread]
    shares = {kind: sum(1 for op in ops if op["kind"] == kind) / len(ops)
              for kind in ("analytical", "hit", "miss", "dup", "sweep")}
    record: Dict[str, Any] = {
        # The first pair may compile bytecode; set-up is the median of the rest.
        "times": {"setup": setups, "import": imports, "cold": cold, "warm": warm},
        "samples": {"requests_per_pass": len(ops), "warm_passes": len(warm),
                    "setups": len(setups) - 1, "probe_samples": len(samples),
                    "cold_by_class": {k: len(v) for k, v in cold_classes.items()}},
        # Shares of the script by request kind, and of the cold pass's
        # answers by class ("coalesced": duplicates that rode the other run).
        "request_shares": shares,
        "cold_answer_shares": {k: len(v) / len(cold_classes["all"])
                               for k, v in cold_classes.items() if k != "all"},
        "host_probe_ms": sampler.mean_probe_ms(),
    }
    metrics = {
        "setup_s": median([s[1] for s in setups[1:]]),
        "cold_s": cold[1],
        "warm_s": median([w[1] for w in warm]),
        "peak_rss_mb": max(kb for p in pairs for kb in p.maxrss_kb) / 1024.0,
    }
    if traced is not None:
        record["traced"] = serve_layers(traced, setups, imports, cold, warm, cold_classes,
                                        passes[0], sampler, cpus)
    return {"tally": tally, "metrics": metrics, "record": record}


def serve_layers(traced: Dict[str, Any], setups: List[Tuple[float, float]],
                 imports: List[Tuple[float, float]], cold: Tuple[float, float],
                 warm: List[Tuple[float, float]], cold_classes: Dict[str, List[float]],
                 cold_pass: Dict[str, Any], sampler: Sampler, cpus: Sequence[int]) -> Dict[str, float]:
    """Per-layer metrics: spans of the traced pair, latencies of the untraced cold pass."""
    import spans

    from repro.store.cache import ResultStore

    pair = traced["pair"]
    t0, t1 = traced["cold"]["t0"], traced["warm"]["t1"]
    scale = probe.speed_factor(sampler.samples, t0, t1, cpus)
    records = spans.load(pair.trace_paths)
    layers = spans.layer_metrics(records, scale)
    layers["setup.import_s"] = median([i[1] for i in imports[2:]])
    layers["setup.boot_s"] = median([s[1] for s in setups[1:]]) - layers["setup.import_s"]
    server = spans.request_spans(records)
    http = [res["latency"] - server[res["id"]]
            for thread in traced["cold"]["results"] for res in thread if res["id"] in server]
    layers["serve.http_p50_ms"] = statistics.median(http) * 1000.0 * scale if http else 0.0
    factor = cold[1] / cold[0]
    layers["serve.analytical_p50_ms"] = _p(cold_classes["analytical"], 0.5) * 1000.0 * factor
    layers["serve.hit_p50_ms"] = _p(cold_classes["hit"], 0.5) * 1000.0 * factor
    layers["serve.miss_p50_ms"] = _p(cold_classes["computed"], 0.5) * 1000.0 * factor
    layers["serve.coalesced_p50_ms"] = _p(cold_classes["coalesced"], 0.5) * 1000.0 * factor
    layers["serve.latency_p99_ms"] = _p(cold_classes["all"], 0.99) * 1000.0 * factor
    layers["serve.requests"] = float(len(cold_classes["all"]))
    traced_cold = sampler.calibrate(t1 - t0, t0, t1, cpus)
    layers["trace.overhead_share"] = traced_cold / (cold[1] + median([w[1] for w in warm])) - 1.0
    layers["store.bytes_written"] = float(ResultStore(os.path.join(WORK, "traced", "store")).total_bytes())
    layers["store.corrupt"] = float(sum(m["derived"]["store"]["corrupt"] for m in traced["metrics"]))
    return layers
