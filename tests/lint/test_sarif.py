"""SARIF reporter tests: schema validity plus GitHub-upload essentials.

The schema used here is a vendored subset of the official SARIF 2.1.0
JSON schema: every ``required`` clause and type constraint on the path
reprolint actually emits (log → run → tool.driver → rules / results →
locations → physicalLocation → region). Vendoring the constraint subset
keeps the test hermetic (no network fetch of the 300 KB upstream schema)
while still failing on any structural regression GitHub code scanning
would reject.
"""

from __future__ import annotations

import json

import jsonschema

from repro.lint import all_rules
from repro.lint.diagnostics import Diagnostic
from repro.lint.reporters import LintResult, render_sarif

# Subset of sarif-schema-2.1.0.json: structure + requiredness of the
# fields reprolint emits. `additionalProperties` stays open, as in the
# real schema.
SARIF_SUBSET_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"enum": ["2.1.0"]},
        "$schema": {"type": "string", "format": "uri"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string", "minLength": 1},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                            "properties": {
                                                "id": {"type": "string"},
                                                "shortDescription": {
                                                    "type": "object",
                                                    "required": ["text"],
                                                    "properties": {
                                                        "text": {"type": "string"}
                                                    },
                                                },
                                            },
                                        },
                                    },
                                },
                            }
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["message"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "ruleIndex": {"type": "integer", "minimum": 0},
                                "level": {
                                    "enum": ["none", "note", "warning", "error"]
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                    "properties": {"text": {"type": "string"}},
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "properties": {
                                                    "artifactLocation": {
                                                        "type": "object",
                                                        "properties": {
                                                            "uri": {"type": "string"}
                                                        },
                                                    },
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                            "startColumn": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    },
                                                },
                                            }
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


def _result_with(diagnostics: list[Diagnostic]) -> LintResult:
    return LintResult(diagnostics=diagnostics, files=3)


def _sample_diagnostics() -> list[Diagnostic]:
    return [
        Diagnostic("src/repro/sim/a.py", 10, 4, "wall-clock", "no clocks"),
        Diagnostic("src/repro/sim/b.py", 1, 0, "parse-error", "syntax error: bad"),
        Diagnostic("src/repro/fleet/c.py", 7, 2, "resource-leak", "join your threads"),
    ]


class TestSarifOutput:
    def test_validates_against_sarif_schema(self):
        log = json.loads(render_sarif(_result_with(_sample_diagnostics()), all_rules()))
        jsonschema.validate(log, SARIF_SUBSET_SCHEMA)

    def test_empty_result_also_validates(self):
        log = json.loads(render_sarif(_result_with([]), all_rules()))
        jsonschema.validate(log, SARIF_SUBSET_SCHEMA)
        assert log["runs"][0]["results"] == []

    def test_every_registered_rule_is_in_driver_metadata(self):
        log = json.loads(render_sarif(_result_with([]), all_rules()))
        ids = {rule["id"] for rule in log["runs"][0]["tool"]["driver"]["rules"]}
        expected = {rule.name for rule in all_rules()}
        assert ids == expected
        assert {"wall-clock", "resource-leak", "blocking-in-async"} <= ids

    def test_rule_index_points_at_the_right_rule(self):
        log = json.loads(render_sarif(_result_with(_sample_diagnostics()), all_rules()))
        run = log["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        for result in run["results"]:
            if "ruleIndex" in result:
                assert rules[result["ruleIndex"]]["id"] == result["ruleId"]

    def test_regions_are_one_based(self):
        log = json.loads(render_sarif(_result_with(_sample_diagnostics()), all_rules()))
        regions = [
            loc["physicalLocation"]["region"]
            for result in log["runs"][0]["results"]
            for loc in result["locations"]
        ]
        assert all(r["startLine"] >= 1 and r["startColumn"] >= 1 for r in regions)

    def test_parse_error_maps_to_error_level(self):
        log = json.loads(render_sarif(_result_with(_sample_diagnostics()), all_rules()))
        levels = {r["ruleId"]: r["level"] for r in log["runs"][0]["results"]}
        assert levels["parse-error"] == "error"
        assert levels["wall-clock"] == "warning"

    def test_cli_writes_sarif_to_output_file(self, repo_root, tmp_path, capsys):
        from repro.cli import main as repro_main

        target = tmp_path / "repro/sim/bad.py"
        target.parent.mkdir(parents=True)
        target.write_text("import time\n\n\ndef f():\n    return time.time()\n")
        out_file = tmp_path / "report.sarif"
        exit_code = repro_main(
            ["lint", str(target), "--format", "sarif", "--output", str(out_file)]
        )
        summary = capsys.readouterr().out
        assert exit_code == 1
        assert "1 finding" in summary  # summary still reaches the console
        log = json.loads(out_file.read_text())
        jsonschema.validate(log, SARIF_SUBSET_SCHEMA)
        assert log["runs"][0]["results"][0]["ruleId"] == "wall-clock"
