"""End-to-end service tests over real TCP via the in-process ServerThread."""

import json
import threading

import pytest

import repro.experiments.runner as runner_module
import repro.serve.queueing as queueing_module
from repro.experiments.parallel import StrategySpec, UniformPlatformSpec
from repro.serve.client import ServeClient, ServeError, ServerThread, wait_until_healthy
from repro.serve.service import ServeConfig
from repro.store.cells import summary_to_payload

CELL = {
    "strategy": "DynamicOuter",
    "n": 12,
    "reps": 2,
    "seed": 11,
    "platform": {"type": "uniform", "p": 4},
}
ANALYTICAL = {
    "query": "ratio",
    "kernel": "outer",
    "n": 50,
    "speeds": [70.0, 10.0, 15.0, 20.0],
    "beta": 2.0,
}


def config(tmp_path, **kwargs):
    kwargs.setdefault("quota_burst", 0)  # most tests opt out of quotas
    return ServeConfig(port=0, store_root=str(tmp_path / "cache"), **kwargs)


class TestMixedWorkloadAcceptance:
    """The ISSUE's acceptance scenario: N analytical + M simulation clients."""

    def test_mixed_traffic(self, tmp_path):
        # One lane worker, one cell per batch: the simulation lane is easy
        # to saturate, which is exactly when analytical must stay fast.
        cfg = config(tmp_path, lane_workers=1, batch_max=1)
        with ServerThread(cfg) as (host, port):
            client = ServeClient(host, port, client_id="mixed")
            specs = [dict(CELL, seed=100 + i) for i in range(3)]
            duplicates = specs + [dict(s) for s in specs]  # every cell twice

            sweep_result = {}

            def run_sweep():
                sweep_result.update(
                    ServeClient(host, port, client_id="sweeper").sweep(duplicates)
                )

            sweeper = threading.Thread(target=run_sweep)
            sweeper.start()
            try:
                # While the simulation lane grinds, analytical queries are
                # answered inline — none of them queues behind the lane.
                analytical = [client.analytical(ANALYTICAL) for _ in range(5)]
            finally:
                sweeper.join()
            assert all(r["value"] == analytical[0]["value"] for r in analytical)

            # Duplicates coalesced: 6 requested cells, 3 engine runs.
            counts = sweep_result["counts"]
            assert counts.get("computed", 0) == 3
            assert counts.get("computed", 0) + counts.get("coalesced", 0) + counts.get(
                "hit", 0
            ) == 6
            metrics = client.metrics()
            assert metrics["derived"]["store"]["puts"] == 3

            # Re-requesting is a byte-identical cache hit.
            first = client.cell(specs[0])
            again = client.cell(specs[0])
            assert first["status"] == "hit"
            assert json.dumps(first["summary"], sort_keys=True) == json.dumps(
                again["summary"], sort_keys=True
            )
            row = next(
                r for r in sweep_result["cells"] if r["fingerprint"] == first["fingerprint"]
            )
            assert row["summary"] == first["summary"]

            # /metrics: nonzero hit rate and populated latency histograms.
            derived = client.metrics()["derived"]
            assert derived["hit_rate"] is not None and derived["hit_rate"] > 0
            assert derived["latency"]["simulation"]["p50"] is not None
            assert derived["latency"]["simulation"]["p99"] is not None
            assert derived["latency"]["analytical"]["p50"] is not None


class TestFigurePointSweep:
    """A sweep of one figure point: one engine call per lane batch."""

    BETAS = (0.5, 1.0, 2.0, 3.0, 4.0)

    def test_each_batch_computes_its_cells_in_one_call(self, tmp_path, monkeypatch):
        factories = [StrategySpec("DynamicOuter2Phases", 10, beta=b) for b in self.BETAS]
        factories.append(StrategySpec("DynamicOuter", 10))
        expected = runner_module.average_normalized_comm_group(
            factories, UniformPlatformSpec(4), 10, 3, seed=5
        )
        batches = []
        local = threading.local()
        real_run_cells = queueing_module.run_cells

        def run_cells(cells, **kwargs):
            local.calls = []
            try:
                return real_run_cells(cells, **kwargs)
            finally:
                batches.append((len(cells), local.calls))

        def spy(kind, real):
            def call(factories, *args, **kwargs):
                local.calls.append((kind, len(factories) if kind == "sweep" else 1))
                return real(factories, *args, **kwargs)

            return call

        monkeypatch.setattr(queueing_module, "run_cells", run_cells)
        monkeypatch.setattr(runner_module, "simulate_sweep", spy("sweep", runner_module.simulate_sweep))
        monkeypatch.setattr(runner_module, "simulate_batch", spy("batch", runner_module.simulate_batch))
        point = {"n": 10, "reps": 3, "seed": 5, "platform": {"type": "uniform", "p": 4}}
        cells = [
            {"strategy": "DynamicOuter2Phases", "strategy_kwargs": {"beta": b}, **point}
            for b in self.BETAS
        ]
        cells.append({"strategy": "DynamicOuter", **point})
        with ServerThread(config(tmp_path, lane_workers=1)) as (host, port):
            body = ServeClient(host, port).sweep(cells)
        assert body["counts"] == {"computed": len(cells)}
        assert sum(size for size, _ in batches) == len(cells)
        for size, calls in batches:
            assert calls == [("sweep", size) if size > 1 else ("batch", 1)]
        served = [json.dumps(c["summary"], sort_keys=True) for c in body["cells"]]
        assert served == [
            json.dumps(summary_to_payload(s, None)["summary"], sort_keys=True) for s in expected
        ]


class TestQuotas:
    def test_quota_exhaustion_is_429(self, tmp_path):
        cfg = config(tmp_path, quota_rate=0.0, quota_burst=2.0)
        with ServerThread(cfg) as (host, port):
            client = ServeClient(host, port, client_id="greedy")
            assert client.cell(CELL)["status"] == "computed"
            assert client.cell(CELL)["status"] == "hit"
            with pytest.raises(ServeError) as err:
                client.cell(CELL)
            assert err.value.status == 429
            # Independent budgets: the analytical lane still answers, and so
            # does a different client on the simulation lane.
            assert client.analytical(ANALYTICAL)["value"] > 0
            other = ServeClient(host, port, client_id="patient")
            assert other.cell(CELL)["status"] == "hit"

    def test_sweep_costs_one_token_per_cell(self, tmp_path):
        cfg = config(tmp_path, quota_rate=0.0, quota_burst=3.0)
        with ServerThread(cfg) as (host, port):
            client = ServeClient(host, port, client_id="sweeper")
            cells = [dict(CELL, seed=200 + i) for i in range(4)]
            with pytest.raises(ServeError) as err:
                client.sweep(cells)
            assert err.value.status == 429
            assert client.sweep(cells[:3])["counts"]["computed"] == 3


class TestProtocolSurface:
    def test_error_statuses(self, tmp_path):
        with ServerThread(config(tmp_path, max_body=512)) as (host, port):
            client = ServeClient(host, port)
            assert client.healthz()["status"] == "ok"
            for path, status in (
                ("/nope", 404),
                ("/healthz", 405),  # POSTed below
            ):
                with pytest.raises(ServeError) as err:
                    client._request("POST", path, {})
                assert err.value.status == status
            with pytest.raises(ServeError) as err:
                client._request("POST", "/v1/cell", {"strategy": "nope"})
            assert err.value.status == 400
            with pytest.raises(ServeError) as err:
                client._request("POST", "/v1/sweep", {"cells": []})
            assert err.value.status == 400
            with pytest.raises(ServeError) as err:
                client._request(
                    "POST", "/v1/cell", {**CELL, "strategy_kwargs": {"pad": "x" * 600}}
                )
            assert err.value.status == 413

    def test_sweep_cell_cap(self, tmp_path):
        with ServerThread(config(tmp_path, max_cells=2)) as (host, port):
            client = ServeClient(host, port)
            with pytest.raises(ServeError) as err:
                client.sweep([dict(CELL, seed=i) for i in range(3)])
            assert err.value.status == 400

    def test_sse_stream_orders_events(self, tmp_path):
        with ServerThread(config(tmp_path)) as (host, port):
            client = ServeClient(host, port, client_id="stream")
            cells = [dict(CELL, seed=300 + i) for i in range(3)]
            events = list(client.sweep_stream(cells))
            names = [name for name, _ in events]
            assert names[0] == "accepted"
            assert names[-1] == "done"
            assert names.count("cell") == 3
            assert events[0][1]["cells"] == 3
            assert isinstance(events[0][1]["job"], str) and events[0][1]["job"]
            indices = sorted(data["index"] for name, data in events if name == "cell")
            assert indices == [0, 1, 2]
            done = events[-1][1]
            assert done["counts"] == {"computed": 3}

    def test_wait_until_healthy_and_drain(self, tmp_path):
        server = ServerThread(config(tmp_path))
        host, port = server.start()
        assert wait_until_healthy(host, port)["status"] == "ok"
        server.stop()
        # Port is released: a fresh client cannot connect anymore.
        with pytest.raises((OSError, ServeError)):
            ServeClient(host, port, timeout=1.0).healthz()

    def test_wait_until_healthy_times_out(self):
        with pytest.raises(TimeoutError):
            wait_until_healthy("127.0.0.1", 1, timeout=0.2, interval=0.05)
