"""Command-line front end for the invariant linter.

Used by ``python -m repro.analysis`` and the ``repro lint`` subcommand.
"""

from __future__ import annotations

import argparse
import json
from typing import List, Optional, Sequence

from repro.analysis.framework import (
    AnalysisError,
    Finding,
    all_rules,
    resolve_rules,
    run_analysis,
)


def lint_arguments() -> argparse.ArgumentParser:
    """The linter's flags as a parent parser (shared with ``repro lint``)."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        metavar="ID_OR_NAME",
        help="run only this rule (repeatable; id like RAQO001 or name "
        "like unseeded-random)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="findings output format",
    )
    parser.add_argument(
        "--no-suppress",
        action="store_true",
        help="ignore '# lint: disable' pragmas (audit mode)",
    )
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.analysis`` argument parser."""
    return argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "AST-based invariant linter for the RAQO reproduction "
            "(determinism, thread safety, plan well-formedness, typing)"
        ),
        parents=[lint_arguments()],
    )


def _render(findings: List[Finding], output_format: str) -> str:
    if output_format == "json":
        return json.dumps(
            [
                {
                    "path": f.path,
                    "line": f.line,
                    "col": f.col,
                    "rule_id": f.rule_id,
                    "rule_name": f.rule_name,
                    "message": f.message,
                }
                for f in findings
            ],
            indent=2,
        )
    lines = [finding.render() for finding in findings]
    lines.append(
        f"\n{len(findings)} finding(s)"
        if findings
        else "invariants clean: 0 findings"
    )
    return "\n".join(lines)


def run(args: argparse.Namespace) -> int:
    """Lint with parsed :func:`lint_arguments`; returns the exit code."""
    if args.list_rules:
        for rule in all_rules():
            scope = (
                f" [scope: {', '.join(rule.scope_roots)}]"
                if rule.scope_roots
                else ""
            )
            print(f"{rule.id}  {rule.name}{scope}")
            print(f"    {rule.description}")
        return 0
    try:
        findings = run_analysis(
            args.paths,
            rules=resolve_rules(args.rule),
            respect_suppressions=not args.no_suppress,
        )
    except AnalysisError as exc:
        print(f"error: {exc}")
        return 2
    print(_render(findings, args.format))
    return 1 if findings else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    return run(build_parser().parse_args(argv))
