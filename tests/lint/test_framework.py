"""Unit tests for the lint framework itself (parsing, noqa, selection).

Selection goes through ``repro-analyze check``'s one selector,
:func:`repro.analyze.select_checks`, which covers the R-* rules too.
"""

from pathlib import Path

import pytest

from repro.analyze import ALL_CHECKS, select_checks
from repro.lint import ALL_RULES, collect_modules
from repro.lint.framework import (
    Finding,
    LintError,
    dotted_name,
    parse_noqa,
)


class TestDottedName:
    def test_anchors_at_repro_component(self):
        assert dotted_name(Path("src/repro/utils/rng.py")) == "repro.utils.rng"

    def test_fixture_trees_mirror_the_package(self):
        path = Path("tests/lint/fixtures/bad_rng/repro/taskpool/uses_global.py")
        assert dotted_name(path) == "repro.taskpool.uses_global"

    def test_init_maps_to_package(self):
        assert dotted_name(Path("src/repro/taskpool/__init__.py")) == "repro.taskpool"

    def test_non_repro_path_uses_root(self):
        assert dotted_name(Path("pkg/mod.py"), root=Path("pkg")) == "mod"


class TestParseNoqa:
    def test_specific_rule(self):
        noqa = parse_noqa("x = 1  # repro: noqa[A-TAINT]\n")
        assert noqa == {1: frozenset({"A-TAINT"})}

    def test_multiple_rules_and_spaces(self):
        noqa = parse_noqa("x = 1  # repro: noqa[A-TAINT, R-RNG]\n")
        assert noqa[1] == frozenset({"A-TAINT", "R-RNG"})

    def test_blanket(self):
        noqa = parse_noqa("y = 2\nx = 1  # repro: noqa\n")
        assert noqa == {2: frozenset({"*"})}

    def test_plain_comment_is_not_noqa(self):
        assert parse_noqa("x = 1  # repro is great\n") == {}

    def test_case_insensitive_marker(self):
        assert parse_noqa("x = 1  # REPRO: NOQA[a-taint]\n")[1] == frozenset({"A-TAINT"})


class TestFinding:
    def test_to_dict_schema(self):
        f = Finding("R-X", "error", "a.py", 3, 7, "boom")
        assert f.to_dict() == {
            "rule": "R-X",
            "severity": "error",
            "path": "a.py",
            "line": 3,
            "col": 7,
            "message": "boom",
        }

    def test_render_is_grep_friendly(self):
        f = Finding("R-X", "error", "a.py", 3, 7, "boom")
        assert f.render() == "a.py:3:7: error R-X boom"


class TestCollectModules:
    def test_missing_path_raises(self):
        with pytest.raises(LintError, match="no such file"):
            collect_modules([Path("does/not/exist")])

    def test_unparsable_file_raises(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        with pytest.raises(LintError, match="cannot parse"):
            collect_modules([bad])

    def test_directory_walk_is_sorted(self, tmp_path):
        for name in ("b.py", "a.py", "c.py"):
            (tmp_path / name).write_text("")
        modules = collect_modules([tmp_path])
        assert [m.path.name for m in modules] == ["a.py", "b.py", "c.py"]


class TestSelectRules:
    def test_default_is_full_set(self):
        ids = [check.id for check in select_checks()]
        assert len(ids) == len(ALL_CHECKS)
        assert ids[: len(ALL_RULES)] == [cls.id for cls in ALL_RULES]

    def test_select_subset(self):
        rules = select_checks(select=["R-RNG"])
        assert [r.id for r in rules] == ["R-RNG"]

    def test_ignore_subset(self):
        rules = select_checks(ignore=["R-RNG"])
        assert "R-RNG" not in [r.id for r in rules]

    def test_unknown_id_raises(self):
        for rule_id in ("R-NOPE", "R-DET", "R-OBS-CLOCK"):
            with pytest.raises(ValueError, match="unknown check id"):
                select_checks(select=[rule_id])
