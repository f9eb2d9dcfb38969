"""Call-graph construction: resolution, virtual dispatch, reachability."""


class TestEdges:
    def test_direct_module_call(self, fixture_model):
        model = fixture_model("bad_drift")
        targets = dict(model.graph.edges["repro.utils.widgets.build"])
        assert "repro.utils.widgets.helper" in targets

    def test_self_method_call(self, fixture_model):
        model = fixture_model("bad_pure")
        targets = [t for t, _ in model.graph.edges["repro.core.strategies.greedy.Greedy.assign"]]
        assert "repro.core.strategies.greedy.Greedy._pick" in targets

    def test_cross_module_import_call(self, fixture_model):
        model = fixture_model("bad_drift")
        targets = [t for t, _ in model.graph.edges["repro.utils.cli.make"]]
        assert targets == ["repro.utils.widgets.build"]

    def test_callers_is_reverse_of_edges(self, fixture_model):
        model = fixture_model("bad_drift")
        callers = [c for c, _ in model.graph.callers["repro.utils.widgets.build"]]
        assert callers == ["repro.utils.cli.make"]

    def test_external_calls_recorded(self, fixture_model):
        model = fixture_model("bad_taint")
        names = [n for n, _ in model.graph.external_calls("repro.simulator.engine._jitter")]
        assert names == ["time.time"]

    def test_import_time_calls_belong_to_the_module_caller(self, fixture_model):
        # Module-level statements and class bodies, not the class's methods.
        model = fixture_model("bad_import_time")
        caller = model.graph.module_caller("repro.simulator.epoch")
        assert caller == "repro.simulator.epoch:<module>"
        assert model.graph.module_of(caller) == "repro.simulator.epoch"
        names = [n for n, _ in model.graph.external_calls(caller)]
        assert names == ["time.time", "os.getpid", "datetime.datetime.now"]


class TestRealTreeDispatch:
    def test_engine_dispatches_to_strategy_overrides(self, src_model):
        """``strategy.assign`` in the engine fans out to every override."""
        targets = {
            t
            for t, _ in src_model.graph.edges.get("repro.simulator.engine.simulate", [])
        }
        assign_overrides = {t for t in targets if t.endswith(".assign")}
        assert len(assign_overrides) >= 5  # virtual dispatch over subclasses

    def test_store_put_reaches_lock(self, src_model):
        targets = {
            t for t, _ in src_model.graph.edges.get("repro.store.cache.ResultStore.put", [])
        }
        assert "repro.store.cache.ResultStore.lock" in targets

    def test_graph_scale(self, src_model):
        assert len(src_model.project.modules) > 100
        assert len(src_model.project.functions) > 500
        edge_count = sum(len(v) for v in src_model.graph.edges.values())
        assert edge_count > 1000


class TestReachability:
    def test_forward_reachable_with_chain(self, fixture_model):
        model = fixture_model("bad_taint")
        parents = model.graph.reachable(["repro.simulator.engine.simulate"])
        assert "repro.simulator.engine._jitter" in parents
        chain = model.graph.chain(parents, "repro.simulator.engine._jitter")
        assert "repro.simulator.engine.simulate" in chain[0]
        assert "_jitter" in chain[-1]

    def test_skip_modules_prunes_traversal(self, fixture_model):
        model = fixture_model("bad_taint")
        parents = model.graph.reachable(
            ["repro.cli.main"], skip_modules=["repro.simulator.engine"]
        )
        assert "repro.simulator.engine._jitter" not in parents

    def test_roots_have_no_parent_link(self, fixture_model):
        model = fixture_model("bad_taint")
        parents = model.graph.reachable(["repro.simulator.engine.simulate"])
        assert parents["repro.simulator.engine.simulate"] is None
