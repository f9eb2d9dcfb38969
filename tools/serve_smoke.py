#!/usr/bin/env python
"""End-to-end smoke test for the ``repro-serve`` service, used by CI.

Boots the real server as a subprocess (``python -m repro.serve --port 0``
with a throwaway store), scrapes the bound port from the ``listening on``
line, then checks the service contract from outside the process:

1. ``/healthz`` answers ``ok``;
2. an analytical query returns the closed-form value;
3. a tiny simulation cell computes on first POST and is a byte-identical
   cache **hit** on the second, with ``/metrics`` showing a nonzero hit
   rate and latency quantiles;
4. a ``/v1/sweep`` of one figure point — a β grid of DynamicOuter2Phases
   plus DynamicOuter on one platform, ``n``, ``reps`` and seed — serves
   every summary byte-identical to the library's
   ``average_normalized_comm_group`` for that point;
5. SIGTERM drains cleanly: exit code 0 and the ``drained cleanly`` line.

Run it from the repo root::

    python tools/serve_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.experiments.parallel import StrategySpec, UniformPlatformSpec  # noqa: E402
from repro.experiments.runner import average_normalized_comm_group  # noqa: E402
from repro.serve.client import ServeClient, wait_until_healthy  # noqa: E402
from repro.store.cells import summary_to_payload  # noqa: E402

_LISTEN = re.compile(r"listening on http://([\d.]+):(\d+)")

#: The swept figure point: one platform, n, reps and seed.
_N, _P, _REPS, _SEED = 10, 4, 3, 5
_BETAS = (0.5, 1.0, 2.0, 3.0)


def _check_point_sweep(client: ServeClient) -> None:
    """POST one figure point as a sweep; every summary must match the library's."""
    point = {"n": _N, "reps": _REPS, "seed": _SEED, "platform": {"type": "uniform", "p": _P}}
    cells = [
        {"strategy": "DynamicOuter2Phases", "strategy_kwargs": {"beta": beta}, **point}
        for beta in _BETAS
    ]
    cells.append({"strategy": "DynamicOuter", **point})
    body = client.sweep(cells)
    assert body["counts"] == {"computed": len(cells)}, body["counts"]
    factories = [StrategySpec("DynamicOuter2Phases", _N, beta=beta) for beta in _BETAS]
    factories.append(StrategySpec("DynamicOuter", _N))
    expected = average_normalized_comm_group(
        factories, UniformPlatformSpec(_P), _N, _REPS, seed=_SEED
    )
    for served, summary in zip(body["cells"], expected):
        want = json.dumps(summary_to_payload(summary, None)["summary"], sort_keys=True)
        got = json.dumps(served["summary"], sort_keys=True)
        assert got == want, f"served {got}, library {want}"


def main() -> int:
    store = tempfile.mkdtemp(prefix="repro-serve-smoke-")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0", "--store", store],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    assert proc.stdout is not None
    try:
        line = proc.stdout.readline()
        match = _LISTEN.search(line)
        if not match:
            raise SystemExit(f"no listening line from server, got {line!r}")
        host, port = match.group(1), int(match.group(2))
        health = wait_until_healthy(host, port, timeout=15.0)
        assert health["status"] == "ok", health
        print(f"serve-smoke: healthy at {host}:{port}")

        client = ServeClient(host, port, client_id="smoke")

        analytical = client.analytical(
            {"query": "ratio", "kernel": "outer", "n": 64, "speeds": [1.0, 2.0, 3.0], "beta": 2.0}
        )
        assert analytical["value"] > 0, analytical
        print(f"serve-smoke: analytical ratio = {analytical['value']:.4f}")

        spec = {
            "strategy": "DynamicOuter",
            "n": 12,
            "reps": 2,
            "seed": 3,
            "platform": {"type": "uniform", "p": 4},
        }
        cold = client.cell(spec)
        assert cold["status"] == "computed", cold
        warm = client.cell(spec)
        assert warm["status"] == "hit", warm
        assert warm["summary"] == cold["summary"], "cache hit must be byte-identical"
        print("serve-smoke: cold miss computed, warm hit identical")

        metrics = client.metrics()
        derived = metrics["derived"]
        assert derived["hit_rate"] is not None and derived["hit_rate"] > 0, derived
        assert derived["latency"]["simulation"]["p50"] is not None, derived
        print(f"serve-smoke: hit rate {derived['hit_rate']:.2f}")

        _check_point_sweep(client)
        print(f"serve-smoke: a {len(_BETAS) + 1}-cell figure point matches the library")

        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
        assert proc.returncode == 0, f"exit code {proc.returncode}: {out}"
        assert "drained cleanly" in out, out
        print("serve-smoke: SIGTERM drained cleanly")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
