"""Every per-file rule fires on its fixture tree, and only where expected.

The trees run through ``run_analysis``, the full check set of
``repro-analyze check``; assertions pick out the rule under test.
"""


def ids(findings):
    return {f.rule_id for f in findings}


class TestRngDiscipline:
    def test_global_rng_flagged(self, lint_fixture):
        findings = [f for f in lint_fixture("bad_rng") if f.rule_id == "R-RNG"]
        assert len(findings) >= 3  # import random, np.random.seed, np.random.rand
        messages = " ".join(f.message for f in findings)
        assert "random" in messages
        assert all(f.severity == "error" for f in findings)

    def test_randomized_function_needs_rng_param(self, lint_fixture):
        findings = [
            f for f in lint_fixture("bad_rng_param") if f.rule_id == "R-RNG-PARAM"
        ]
        assert len(findings) == 1
        assert "draw_speeds" in findings[0].message

    def test_positions_are_plausible(self, lint_fixture):
        for f in lint_fixture("bad_rng"):
            assert f.line >= 1
            assert f.col >= 0
            assert f.path.endswith("uses_global.py")


class TestFloatEquality:
    def test_float_literal_comparison_flagged(self, lint_fixture):
        findings = [
            f for f in lint_fixture("bad_floateq") if f.rule_id == "R-FLOATEQ"
        ]
        assert len(findings) == 2  # == 1.0 and a/b != 1


class TestValidationBoundary:
    def test_unvalidated_constructor_flagged(self, lint_fixture):
        findings = [
            f for f in lint_fixture("bad_validate") if f.rule_id == "R-VALIDATE"
        ]
        assert len(findings) == 1
        assert "Widget.__init__" in findings[0].message
        assert "beta" in findings[0].message


class TestRegistryContract:
    def test_unregistered_strategy_flagged(self, lint_fixture):
        findings = lint_fixture("bad_registry")
        assert ids(findings) == {"R-REGISTRY"}
        assert len(findings) == 2  # missing from STRATEGIES and from __all__
        assert all("RogueStrategy" in f.message for f in findings)


class TestAllConsistency:
    def test_phantom_name_flagged(self, lint_fixture):
        findings = lint_fixture("bad_all")
        by_id = {f.rule_id: f for f in findings}
        assert "R-ALL-EXISTS" in by_id
        assert "phantom" in by_id["R-ALL-EXISTS"].message

    def test_unlisted_public_def_is_warning(self, lint_fixture):
        findings = [
            f for f in lint_fixture("bad_all") if f.rule_id == "R-ALL-EXPORT"
        ]
        assert len(findings) == 1
        assert findings[0].severity == "warning"
        assert "unlisted" in findings[0].message

    def test_missing_all_flagged(self, lint_fixture):
        findings = [
            f for f in lint_fixture("bad_all") if f.rule_id == "R-ALL-MISSING"
        ]
        assert len(findings) == 1
        assert findings[0].path.endswith("noall.py")
        assert findings[0].severity == "error"


class TestDocstrings:
    def test_undocumented_exports_flagged(self, lint_fixture):
        findings = [
            f for f in lint_fixture("bad_docstring") if f.rule_id == "R-DOCSTRING"
        ]
        assert {m for f in findings for m in ("Undocumented", "undocumented") if m in f.message} == {
            "Undocumented",
            "undocumented",
        }
        assert len(findings) == 2  # documented, private and unlisted defs pass

    def test_constants_are_out_of_scope(self, lint_fixture):
        # CONSTANT is exported without a docstring; the rule only judges
        # defs (constants are documented with #: comments the AST drops).
        findings = [
            f for f in lint_fixture("bad_docstring") if f.rule_id == "R-DOCSTRING"
        ]
        assert not any("CONSTANT" in f.message for f in findings)


class TestExceptions:
    def test_bare_except_flagged(self, lint_fixture):
        findings = [f for f in lint_fixture("bad_except") if f.rule_id == "R-EXCEPT"]
        assert len(findings) == 1

    def test_silent_handlers_flagged(self, lint_fixture):
        findings = [f for f in lint_fixture("bad_except") if f.rule_id == "R-SILENT"]
        assert len(findings) == 2


class TestSuppression:
    def test_noqa_comments_silence_findings(self, lint_fixture):
        # A-DEAD is ignored: the fixture's exports have no caller in its tree.
        assert lint_fixture("suppressed", ignore=["A-DEAD"]) == []
