"""SARIF 2.1.0 export for lint findings.

SARIF (Static Analysis Results Interchange Format) is what code
scanning UIs ingest -- ``repro lint --sarif out.sarif`` produces a log
that ``github/codeql-action/upload-sarif`` turns into inline PR
annotations.  Only the small stable core of the spec is emitted: one
run, a ``tool.driver`` with the full rule catalog, and one ``result``
per finding with a physical location and a stable partial fingerprint
(line-independent, so a finding keeps its identity across line drift).

The container has no ``jsonschema``, so :func:`validate_sarif` is a
hand-rolled structural checker covering the subset this exporter can
produce; tests run every exported log through it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.framework import Finding, Rule

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
_TOOL_NAME = "repro-lint"
_TOOL_URI = "https://github.com/repro/raqo"
_FINGERPRINT_KEY = "reproLint/v1"


def finding_fingerprint(
    finding: Finding, base_dir: Optional[Path] = None
) -> str:
    """Stable, line-independent identity of one finding."""
    base = (base_dir or Path.cwd()).resolve()
    path = Path(finding.path).resolve()
    try:
        relative = path.relative_to(base).as_posix()
    except ValueError:
        relative = path.as_posix()
    payload = f"{finding.rule_id}|{relative}|{finding.message}"
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()


def findings_to_sarif(
    findings: Sequence[Finding],
    rules: Sequence[Rule],
    base_dir: Optional[Path] = None,
) -> Dict[str, Any]:
    """Build the SARIF log object for one analysis run.

    ``base_dir`` (default: cwd) becomes the ``%SRCROOT%`` base all
    artifact URIs are expressed against, so logs are machine-portable.
    """
    base = (base_dir or Path.cwd()).resolve()
    catalog = sorted(rules, key=lambda r: r.id)
    rule_index = {rule.id: i for i, rule in enumerate(catalog)}
    results: List[Dict[str, Any]] = []
    for finding in findings:
        results.append(
            {
                "ruleId": finding.rule_id,
                "ruleIndex": rule_index.get(finding.rule_id, -1),
                "level": "error",
                "message": {"text": finding.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": _relative_uri(finding.path, base),
                                "uriBaseId": "%SRCROOT%",
                            },
                            "region": {
                                "startLine": finding.line,
                                "startColumn": finding.col,
                            },
                        }
                    }
                ],
                "partialFingerprints": {
                    _FINGERPRINT_KEY: finding_fingerprint(finding, base)
                },
            }
        )
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": _TOOL_NAME,
                        "informationUri": _TOOL_URI,
                        "rules": [
                            {
                                "id": rule.id,
                                "name": rule.name,
                                "shortDescription": {"text": rule.name},
                                "fullDescription": {
                                    "text": rule.description
                                },
                                "defaultConfiguration": {
                                    "level": "error"
                                },
                            }
                            for rule in catalog
                        ],
                    }
                },
                "originalUriBaseIds": {
                    "%SRCROOT%": {"uri": base.as_uri() + "/"}
                },
                "columnKind": "unicodeCodePoints",
                "results": results,
            }
        ],
    }


def render_sarif(
    findings: Sequence[Finding],
    rules: Sequence[Rule],
    base_dir: Optional[Path] = None,
) -> str:
    """The SARIF log as a JSON string (stable key order)."""
    log = findings_to_sarif(findings, rules, base_dir=base_dir)
    return json.dumps(log, indent=2, sort_keys=True)


def _relative_uri(path: str, base: Path) -> str:
    resolved = Path(path).resolve()
    try:
        return resolved.relative_to(base).as_posix()
    except ValueError:
        return resolved.as_posix()


# ----------------------------------------------------------------------
# Structural validation (no jsonschema in the toolchain)
# ----------------------------------------------------------------------


def validate_sarif(log: Any) -> List[str]:
    """Structural problems in a SARIF log; empty means valid.

    Covers the required shape of the SARIF 2.1.0 subset this exporter
    produces: version/runs at the top, ``tool.driver.name`` plus a
    rule catalog per run, and well-formed results whose ``ruleId`` and
    ``ruleIndex`` agree with the catalog.
    """
    problems: List[str] = []

    def check(condition: bool, message: str) -> bool:
        if not condition:
            problems.append(message)
        return condition

    if not check(isinstance(log, dict), "log must be an object"):
        return problems
    check(
        log.get("version") == SARIF_VERSION,
        f"version must be '{SARIF_VERSION}'",
    )
    runs = log.get("runs")
    if not check(
        isinstance(runs, list) and runs, "runs must be a non-empty array"
    ):
        return problems
    for run_index, run in enumerate(runs):
        prefix = f"runs[{run_index}]"
        if not check(isinstance(run, dict), f"{prefix} must be an object"):
            continue
        driver = run.get("tool", {})
        driver = (
            driver.get("driver", {}) if isinstance(driver, dict) else {}
        )
        if check(
            isinstance(driver, dict) and bool(driver),
            f"{prefix}.tool.driver is required",
        ):
            check(
                isinstance(driver.get("name"), str)
                and bool(driver.get("name")),
                f"{prefix}.tool.driver.name must be a non-empty string",
            )
        rules = driver.get("rules", []) if isinstance(driver, dict) else []
        rule_ids: List[str] = []
        if check(
            isinstance(rules, list), f"{prefix}.tool.driver.rules must "
            "be an array"
        ):
            for i, rule in enumerate(rules):
                if not check(
                    isinstance(rule, dict)
                    and isinstance(rule.get("id"), str),
                    f"{prefix}.tool.driver.rules[{i}].id must be a "
                    "string",
                ):
                    continue
                rule_ids.append(rule["id"])
        results = run.get("results")
        if not check(
            isinstance(results, list), f"{prefix}.results must be an array"
        ):
            continue
        for i, result in enumerate(results):
            rprefix = f"{prefix}.results[{i}]"
            if not check(
                isinstance(result, dict), f"{rprefix} must be an object"
            ):
                continue
            rule_id = result.get("ruleId")
            check(
                isinstance(rule_id, str) and bool(rule_id),
                f"{rprefix}.ruleId must be a non-empty string",
            )
            if rule_ids and isinstance(rule_id, str):
                check(
                    rule_id in rule_ids,
                    f"{rprefix}.ruleId '{rule_id}' missing from the "
                    "rule catalog",
                )
            rule_index = result.get("ruleIndex")
            if rule_index is not None and isinstance(rule_id, str):
                check(
                    isinstance(rule_index, int)
                    and 0 <= rule_index < len(rule_ids)
                    and rule_ids[rule_index] == rule_id,
                    f"{rprefix}.ruleIndex disagrees with ruleId",
                )
            message = result.get("message")
            check(
                isinstance(message, dict)
                and isinstance(message.get("text"), str),
                f"{rprefix}.message.text must be a string",
            )
            for j, location in enumerate(result.get("locations", [])):
                lprefix = f"{rprefix}.locations[{j}]"
                physical = (
                    location.get("physicalLocation")
                    if isinstance(location, dict)
                    else None
                )
                if not check(
                    isinstance(physical, dict),
                    f"{lprefix}.physicalLocation must be an object",
                ):
                    continue
                artifact = physical.get("artifactLocation")
                check(
                    isinstance(artifact, dict)
                    and isinstance(artifact.get("uri"), str),
                    f"{lprefix}.physicalLocation.artifactLocation.uri "
                    "must be a string",
                )
                region = physical.get("region")
                if region is not None and check(
                    isinstance(region, dict),
                    f"{lprefix}.physicalLocation.region must be an "
                    "object",
                ):
                    start_line = region.get("startLine")
                    check(
                        isinstance(start_line, int) and start_line >= 1,
                        f"{lprefix}.physicalLocation.region.startLine "
                        "must be a positive integer",
                    )
    return problems
