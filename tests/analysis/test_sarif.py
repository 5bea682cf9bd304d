"""SARIF export and its structural validator."""

import copy
import json

from repro.analysis.framework import (
    Finding,
    all_rules,
    resolve_rules,
    run_analysis,
)
from repro.analysis.sarif import (
    SARIF_VERSION,
    finding_fingerprint,
    findings_to_sarif,
    render_sarif,
    validate_sarif,
)

BAD_SOURCE = (
    "import random\n\n\ndef pick(items):\n"
    "    return random.choice(items)\n"
)


def _export(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(BAD_SOURCE)
    findings = run_analysis([path], rules=resolve_rules(["RAQO001"]))
    assert findings, "fixture must produce at least one finding"
    return findings, findings_to_sarif(
        findings, all_rules(), base_dir=tmp_path
    )


def make_finding(
    path="src/mod.py", line=10, rule_id="RAQO001", message="boom"
):
    return Finding(
        path=path,
        line=line,
        col=1,
        rule_id=rule_id,
        rule_name="unseeded-random",
        message=message,
    )


class TestFingerprint:
    def test_line_drift_does_not_change_identity(self, tmp_path):
        a = make_finding(path=str(tmp_path / "m.py"), line=10)
        b = make_finding(path=str(tmp_path / "m.py"), line=99)
        assert finding_fingerprint(a, tmp_path) == finding_fingerprint(
            b, tmp_path
        )

    def test_rule_path_and_message_all_matter(self, tmp_path):
        base = make_finding(path=str(tmp_path / "m.py"))
        fingerprints = {
            finding_fingerprint(base, tmp_path),
            finding_fingerprint(
                make_finding(path=str(tmp_path / "m.py"), rule_id="RAQO002"),
                tmp_path,
            ),
            finding_fingerprint(
                make_finding(path=str(tmp_path / "other.py")), tmp_path
            ),
            finding_fingerprint(
                make_finding(path=str(tmp_path / "m.py"), message="kaboom"),
                tmp_path,
            ),
        }
        assert len(fingerprints) == 4

    def test_fingerprint_is_relative_to_base_dir(self, tmp_path):
        # The same repo checked out at two roots produces identical
        # fingerprints, so code-scanning identities are portable.
        one = tmp_path / "clone_a" / "src"
        two = tmp_path / "clone_b" / "src"
        one.mkdir(parents=True)
        two.mkdir(parents=True)
        a = make_finding(path=str(one / "m.py"))
        b = make_finding(path=str(two / "m.py"))
        assert finding_fingerprint(
            a, one.parent
        ) == finding_fingerprint(b, two.parent)


class TestExport:
    def test_exported_log_validates(self, tmp_path):
        _, log = _export(tmp_path)
        assert validate_sarif(log) == []

    def test_version_and_tool_identity(self, tmp_path):
        _, log = _export(tmp_path)
        assert log["version"] == SARIF_VERSION == "2.1.0"
        driver = log["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-lint"

    def test_rule_catalog_covers_every_registered_rule(self, tmp_path):
        _, log = _export(tmp_path)
        catalog = log["runs"][0]["tool"]["driver"]["rules"]
        assert [r["id"] for r in catalog] == [
            rule.id for rule in all_rules()
        ]
        assert all(r["fullDescription"]["text"] for r in catalog)

    def test_result_points_at_the_finding(self, tmp_path):
        findings, log = _export(tmp_path)
        result = log["runs"][0]["results"][0]
        assert result["ruleId"] == "RAQO001"
        assert result["message"]["text"] == findings[0].message
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "bad.py"
        assert location["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
        assert location["region"]["startLine"] == findings[0].line

    def test_rule_index_agrees_with_catalog(self, tmp_path):
        _, log = _export(tmp_path)
        catalog = log["runs"][0]["tool"]["driver"]["rules"]
        for result in log["runs"][0]["results"]:
            assert (
                catalog[result["ruleIndex"]]["id"] == result["ruleId"]
            )

    def test_results_carry_stable_fingerprints(self, tmp_path):
        _, first = _export(tmp_path)
        _, second = _export(tmp_path)
        fp = lambda log: [  # noqa: E731
            r["partialFingerprints"]["reproLint/v1"]
            for r in log["runs"][0]["results"]
        ]
        assert fp(first) == fp(second)
        assert all(len(f) == 40 for f in fp(first))

    def test_render_is_deterministic_json(self, tmp_path):
        findings, _ = _export(tmp_path)
        first = render_sarif(findings, all_rules(), base_dir=tmp_path)
        second = render_sarif(findings, all_rules(), base_dir=tmp_path)
        assert first == second
        assert validate_sarif(json.loads(first)) == []

    def test_empty_findings_still_produce_a_valid_log(self, tmp_path):
        log = findings_to_sarif([], all_rules(), base_dir=tmp_path)
        assert validate_sarif(log) == []
        assert log["runs"][0]["results"] == []

    def test_file_outside_base_dir_keeps_absolute_uri(self, tmp_path):
        outside = tmp_path / "elsewhere" / "bad.py"
        outside.parent.mkdir()
        outside.write_text(BAD_SOURCE)
        finding = Finding(
            path=str(outside),
            line=5,
            col=12,
            rule_id="RAQO001",
            rule_name="unseeded-random",
            message="boom",
        )
        log = findings_to_sarif(
            [finding], all_rules(), base_dir=tmp_path / "other"
        )
        uri = log["runs"][0]["results"][0]["locations"][0][
            "physicalLocation"
        ]["artifactLocation"]["uri"]
        assert uri.endswith("elsewhere/bad.py")
        assert validate_sarif(log) == []


class TestValidator:
    def _valid(self, tmp_path):
        return _export(tmp_path)[1]

    def test_non_object_log_is_rejected(self):
        assert validate_sarif([]) == ["log must be an object"]

    def test_wrong_version_is_reported(self, tmp_path):
        log = self._valid(tmp_path)
        log["version"] = "2.0.0"
        assert any("version" in p for p in validate_sarif(log))

    def test_missing_runs_is_reported(self):
        assert any(
            "runs" in p
            for p in validate_sarif({"version": SARIF_VERSION})
        )

    def test_missing_driver_name_is_reported(self, tmp_path):
        log = self._valid(tmp_path)
        del log["runs"][0]["tool"]["driver"]["name"]
        assert any("driver.name" in p for p in validate_sarif(log))

    def test_unknown_rule_id_is_reported(self, tmp_path):
        log = self._valid(tmp_path)
        log["runs"][0]["results"][0]["ruleId"] = "RAQO999"
        assert any(
            "missing from the rule catalog" in p
            for p in validate_sarif(log)
        )

    def test_disagreeing_rule_index_is_reported(self, tmp_path):
        log = self._valid(tmp_path)
        log["runs"][0]["results"][0]["ruleIndex"] += 1
        assert any(
            "ruleIndex disagrees" in p for p in validate_sarif(log)
        )

    def test_missing_message_text_is_reported(self, tmp_path):
        log = self._valid(tmp_path)
        log["runs"][0]["results"][0]["message"] = {}
        assert any("message.text" in p for p in validate_sarif(log))

    def test_zero_start_line_is_reported(self, tmp_path):
        log = self._valid(tmp_path)
        region = log["runs"][0]["results"][0]["locations"][0][
            "physicalLocation"
        ]["region"]
        region["startLine"] = 0
        assert any("startLine" in p for p in validate_sarif(log))

    def test_validator_does_not_mutate_the_log(self, tmp_path):
        log = self._valid(tmp_path)
        snapshot = copy.deepcopy(log)
        validate_sarif(log)
        assert log == snapshot
