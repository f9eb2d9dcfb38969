"""Planning and claim-based draining behind ``run --workers N`` / ``--workers-external``."""

import collections
import multiprocessing
import os
import threading
import time

import pytest

import repro.experiments.external as external_module
import repro.experiments.runner as runner_module
from repro.experiments.external import drain_plans, plan_figures
from repro.experiments.figures import generate
from repro.experiments.io import figure_to_rows
from repro.experiments.runner import average_normalized_comm, collect_planned_cells
from repro.store.cache import ResultStore
from repro.store.claims import ClaimRegistry
from repro.store.journal import Journal


class TestPlanning:
    def test_sweep_point_plans_one_group_unit_plus_singletons(self):
        with collect_planned_cells() as units:
            generate("fig04", scale="ci", seed=0)
        names = [[cell.strategy_factory.name for cell in unit] for unit in units]
        point = [["RandomOuter", "SortedOuter", "DynamicOuter", "DynamicOuter2Phases"]]
        assert names == point * 2  # one four-member unit per p of the ci grid

    def test_cell_planned_in_an_earlier_unit_is_planned_once(self):
        fig01, fig04 = plan_figures(["fig01", "fig04"], scale="ci", seed=0)
        assert [len(unit.cells) for unit in fig01.units] == [3] * 2
        # fig04 shares fig01's three cells per p; only DynamicOuter2Phases is new,
        # so its group unit keeps the one member no earlier unit planned.
        assert [unit.item[0].strategy_factory.name for unit in fig04.units] == [
            "DynamicOuter2Phases"
        ] * 2
        planned = [fp for plan in (fig01, fig04) for unit in plan.units for fp in unit.cells]
        assert len(planned) == len(set(planned)) == 8
        assert set(planned) == set(fig04.fingerprints)  # fig04's job still lists every read
        assert fig01.output is None and fig04.output is None

    def test_figure_without_cells_keeps_its_planning_output(self):
        (plan,) = plan_figures(["sec36"], scale="ci", seed=0)
        assert plan.units == [] and plan.fingerprints == []
        assert plan.output is not None
        assert figure_to_rows(plan.output) == figure_to_rows(generate("sec36", scale="ci", seed=0))


class TestDrain:
    def test_group_member_held_by_a_live_peer(self, tmp_path, monkeypatch):
        store = ResultStore(str(tmp_path / "cache"))
        plans = plan_figures(["fig06"], scale="ci", seed=0)
        (unit,) = plans[0].units
        assert len(unit.cells) == 5  # four two-phase betas and DynamicOuter
        held = unit.cells[1]
        peer = ClaimRegistry(store)
        assert peer.try_claim(held)
        journal = Journal(store)

        sweeps = []
        real = runner_module.simulate_sweep

        def spy(factories, *args, **kwargs):
            sweeps.append(len(factories))
            return real(factories, *args, **kwargs)

        monkeypatch.setattr(runner_module, "simulate_sweep", spy)

        def finish_held():
            others = [fp for fp in unit.cells if fp != held]
            while not all(store.has_fingerprint(fp) for fp in others):
                time.sleep(0.01)
            cell = next(c for c in unit.item if c.fingerprint == held)
            average_normalized_comm(
                cell.strategy_factory, cell.platform_factory, cell.n, cell.reps,
                seed=cell.seed, cache=store,
            )
            journal.append("computed", held, owner=peer.owner)
            peer.release(held)

        thread = threading.Thread(target=finish_held)
        thread.start()
        try:
            stats = drain_plans(
                plans, store=store, claims=ClaimRegistry(store), journal=journal,
                poll_interval=0.01, timeout=60.0,
            )
        finally:
            thread.join(timeout=60.0)
        assert sweeps == [4]  # the members it won ran as one group
        assert (stats.computed, stats.cached) == (4, 1)
        assert stats.waits >= 1  # it waited on the held member
        computed = [r.cell for r in journal.replay().records if r.state == "computed"]
        assert sorted(computed) == sorted(unit.cells)

        expected = figure_to_rows(generate("fig06", scale="ci", seed=0))
        assert figure_to_rows(generate("fig06", scale="ci", seed=0, cache=store)) == expected

    def test_helper_is_spawned_while_another_thread_runs(self, tmp_path, monkeypatch):
        methods = []
        real_context = multiprocessing.get_context

        def spy(method=None):
            methods.append(method)
            return real_context(method)

        monkeypatch.setattr(external_module.multiprocessing, "get_context", spy)
        store = ResultStore(str(tmp_path / "cache"))
        journal = Journal(store)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            stats = drain_plans(
                plan_figures(["fig04"], scale="ci", seed=0), store=store,
                claims=ClaimRegistry(store), journal=journal, helpers=1, timeout=120.0,
            )
        finally:
            release.set()
            other.join(timeout=10.0)
        assert methods == ["spawn"]
        assert stats.total() == 8
        computed = collections.Counter(
            r.cell for r in journal.replay().records if r.state == "computed"
        )
        assert len(computed) == 8 and set(computed.values()) == {1}
        expected = figure_to_rows(generate("fig04", scale="ci", seed=0))
        assert figure_to_rows(generate("fig04", scale="ci", seed=0, cache=store)) == expected

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_dead_helper_does_not_fail_a_complete_drain(self, tmp_path, monkeypatch, capsys):
        real_context = multiprocessing.get_context
        monkeypatch.setattr(
            external_module.multiprocessing, "get_context", lambda method=None: real_context("fork")
        )
        monkeypatch.setattr(external_module, "_helper", lambda *args: os._exit(3))
        store = ResultStore(str(tmp_path / "cache"))
        plans = plan_figures(["fig01"], scale="ci", seed=0)
        stats = drain_plans(
            plans, store=store, claims=ClaimRegistry(store), helpers=1, timeout=120.0,
        )
        assert (stats.computed, stats.cached) == (6, 0)
        assert all(store.has_fingerprint(fp) for fp in plans[0].fingerprints)
        assert "exited with 3" in capsys.readouterr().err
