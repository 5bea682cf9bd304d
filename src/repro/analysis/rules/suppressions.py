"""Suppression audit: RAQO015 dead-suppression.

A ``# lint: disable=`` pragma that no longer suppresses anything --
the finding it silenced is gone, or the rule id never existed -- would
hide a future regression on its line.  This meta-pass re-runs the
other rules with pragmas ignored
(:meth:`~repro.analysis.framework.AnalysisSession.unsuppressed_findings`)
and flags every pragma label that matches none of their findings.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set

from repro.analysis.framework import (
    AnalysisSession,
    Finding,
    ModuleInfo,
    Rule,
    all_rules,
    register_rule,
)


@register_rule
class DeadSuppressionRule(Rule):
    """RAQO015: every suppression must still suppress something."""

    id = "RAQO015"
    name = "dead-suppression"
    description = (
        "a '# lint: disable=' pragma that silences nothing -- the "
        "finding it once hid is fixed, or the rule id is a typo; "
        "remove the pragma so future regressions surface"
    )
    meta_rule = True

    #: Labels this pass cannot evaluate against the finding set.
    _UNCHECKABLE = frozenset({"all", "RAQO015", "dead-suppression"})

    def check(
        self, info: ModuleInfo, session: AnalysisSession
    ) -> Iterator[Finding]:
        raw = session.unsuppressed_findings().get(str(info.path), [])
        by_line: Dict[int, Set[str]] = {}
        file_labels: Set[str] = set()
        for found in raw:
            by_line.setdefault(found.line, set()).update(
                {found.rule_id, found.rule_name}
            )
            file_labels.update({found.rule_id, found.rule_name})
        known = {label for r in all_rules() for label in (r.id, r.name)}
        for line, target, labels in info.pragmas:
            for label in sorted(labels - self._UNCHECKABLE):
                anchor = ast.Pass(lineno=line, col_offset=0)
                if label not in known:
                    yield self.finding(
                        info,
                        anchor,
                        f"suppression names unknown rule '{label}'; "
                        "it can never match a finding",
                    )
                    continue
                live = (
                    label in file_labels
                    if target is None
                    else label in by_line.get(target, set())
                )
                if not live:
                    where = (
                        "anywhere in this file"
                        if target is None
                        else f"on line {target}"
                    )
                    yield self.finding(
                        info,
                        anchor,
                        f"suppression of {label} is dead: no {label} "
                        f"finding {where}; remove the pragma",
                    )
