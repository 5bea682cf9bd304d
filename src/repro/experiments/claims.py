"""The paper's figures as data: printed tables and checked claims.

Each ``repro.experiments.figNN`` module declares one :class:`Figure`:
its ``run``, the tables it prints and the claims its result must meet.
``repro figure`` renders that declaration (:func:`render`), the claims
bench and the tier-1 claims test check it, and a tier-1 test checks
EXPERIMENTS.md's "paper | measured" rows against it.

Claim kinds:

- ``exact``: a deterministic value (the simulator is a pure function of
  its inputs and seeds);
- ``shape``: an ordering or monotonicity, as a boolean;
- ``timing``: read from wall-clock, so checked only by the claims bench.

A measure may return a tuple (one value per engine, query or planner);
the claim then holds when every element meets the bound.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence, Tuple

from repro.experiments.report import format_cell, format_table

EXACT = "exact"
SHAPE = "shape"
TIMING = "timing"

#: Operator -> check of (measured value, bound); ``[]`` is a closed
#: interval with bound ``(low, high)``.
_OPERATORS = {
    "==": operator.eq,
    ">": operator.gt,
    ">=": operator.ge,
    "<=": operator.le,
    "<": operator.lt,
    "[]": lambda value, bound: bound[0] <= value <= bound[1],
}


@dataclass(frozen=True)
class Table:
    """One printed table: ``rows`` maps the figure's result to rows."""

    title: str
    headers: Tuple[str, ...]
    rows: Callable[[Any], Iterable[Sequence]]


@dataclass(frozen=True)
class Claim:
    """One paper claim: ``measure(result) <op> bound``.

    ``deviation`` names why the reproduction is known not to meet the
    claim yet; the claims bench expects such a claim to fail.
    """

    key: str
    text: str
    paper: str
    measure: Callable[[Any], Any]
    op: str
    bound: Any
    kind: str
    deviation: Optional[str] = None

    def holds(self, value: Any) -> bool:
        """Whether a measured value (or each element of it) meets the
        bound; a missing value (``None``) never does."""
        values = value if isinstance(value, tuple) else (value,)
        check = _OPERATORS[self.op]
        return all(v is not None and check(v, self.bound) for v in values)

    def describe_bound(self) -> str:
        if self.op == "[]":
            return f"in [{self.bound[0]}, {self.bound[1]}]"
        return f"{self.op} {self.bound}"


@dataclass(frozen=True)
class Figure:
    """A figure's driver, printed tables and claims."""

    name: str
    run: Callable[[], Any]
    tables: Tuple[Table, ...]
    claims: Tuple[Claim, ...] = ()


def _format_value(value: Any) -> str:
    """A measured value as tables print it; tuples element-wise."""
    if isinstance(value, tuple):
        return ", ".join(format_cell(v) for v in value)
    return format_cell(value)


def render(figure: Figure, result: Any) -> str:
    """Every table of ``figure``, then one line per claim."""
    blocks = [
        format_table(table.headers, table.rows(result), table.title)
        for table in figure.tables
    ]
    lines = []
    for claim in figure.claims:
        value = claim.measure(result)
        verdict = "holds" if claim.holds(value) else "FAILS"
        line = (
            f"{claim.key}: {claim.text}: {_format_value(value)} "
            f"(paper: {claim.paper}; claim {claim.describe_bound()}) "
            f"{verdict}"
        )
        if claim.deviation:
            line += f" [known deviation: {claim.deviation}]"
        lines.append(line)
    if lines:
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)
