"""Reporter behaviour: JSON round-trips, text prog labels, noqa edge cases."""

import json

from repro.lint import Severity
from repro.lint.framework import Finding, parse_noqa
from repro.lint.reporters import (
    JSON_SCHEMA_VERSION,
    render_json,
    render_text,
    summary_counts,
)


def sample_findings():
    return [
        Finding("R-A", Severity.ERROR, "a.py", 3, 7, "boom"),
        Finding("R-B", Severity.WARNING, "b.py", 1, 0, "meh"),
    ]


class TestJsonRoundTrip:
    def test_document_round_trips_through_json(self):
        doc = json.loads(render_json(sample_findings()))
        assert doc["version"] == JSON_SCHEMA_VERSION
        assert doc["counts"] == {"error": 1, "warning": 1}
        rebuilt = [
            Finding(
                rule_id=f["rule"],
                severity=f["severity"],
                path=f["path"],
                line=f["line"],
                col=f["col"],
                message=f["message"],
            )
            for f in doc["findings"]
        ]
        assert rebuilt == sample_findings()

    def test_real_findings_round_trip(self, lint_fixture):
        findings = lint_fixture("bad_rng")
        assert {f.rule_id for f in findings} >= {"R-RNG", "A-TAINT"}
        doc = json.loads(render_json(findings))
        assert len(doc["findings"]) == len(findings)
        for original, emitted in zip(findings, doc["findings"]):
            assert emitted["line"] == original.line
            assert emitted["rule"] == original.rule_id

    def test_empty_report(self):
        doc = json.loads(render_json([]))
        assert doc["findings"] == []
        assert doc["counts"] == {}


class TestRenderText:
    def test_summary_line_counts_by_severity(self):
        text = render_text(sample_findings())
        assert text.splitlines()[-1] == "repro-analyze: 1 error(s), 1 warning(s)"

    def test_clean_summary(self):
        assert render_text([]) == "repro-analyze: clean"

    def test_summary_counts_only_present_severities(self):
        assert summary_counts([sample_findings()[0]]) == {"error": 1}


class TestNoqaEdgeCases:
    def test_noqa_with_trailing_comment_text(self):
        noqa = parse_noqa("x = 1  # repro: noqa[A-TAINT]  (legacy clock)\n")
        assert noqa[1] == frozenset({"A-TAINT"})

    def test_noqa_inside_string_literal_still_matches_line(self):
        # The scanner is line-based by design: a noqa marker anywhere on the
        # line (even inside a string) suppresses that line.
        noqa = parse_noqa('x = "# repro: noqa[A-TAINT]"\n')
        assert noqa[1] == frozenset({"A-TAINT"})

    def test_empty_rule_list_is_blanket(self):
        noqa = parse_noqa("x = 1  # repro: noqa[]\n")
        assert noqa[1] == frozenset({"*"})

    def test_multiple_noqa_lines_tracked_independently(self):
        source = (
            "a = 1  # repro: noqa[R-A]\n"
            "b = 2\n"
            "c = 3  # repro: noqa[R-B, R-C]\n"
        )
        noqa = parse_noqa(source)
        assert noqa == {
            1: frozenset({"R-A"}),
            3: frozenset({"R-B", "R-C"}),
        }

    def test_unrelated_rule_id_does_not_suppress(self, lint_fixture):
        # The suppressed fixture uses targeted noqa markers on its A-TAINT
        # lines; they must not blanket-suppress other rules on the same
        # tree, so the A-DEAD findings on its unmarked def lines survive.
        findings = lint_fixture("suppressed")
        assert {f.rule_id for f in findings if f.path.endswith("allowed.py")} == {"A-DEAD"}
