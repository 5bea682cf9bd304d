"""Plain-text tables for experiment output.

Every figure's declared tables (:mod:`repro.experiments.claims`) and the
benchmark harness's ablation tables render through :func:`format_table`.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence


def format_cell(value: Any) -> str:
    """Human-friendly rendering of one table cell."""
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value in (float("inf"), float("-inf")):
            return "inf" if value > 0 else "-inf"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    title: Optional[str] = None,
) -> str:
    """Render an aligned plain-text table."""
    rendered_rows: List[List[str]] = [
        [format_cell(cell) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(
        h.ljust(widths[i]) for i, h in enumerate(headers)
    )
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append(
            "  ".join(
                cell.rjust(widths[i]) for i, cell in enumerate(row)
            )
        )
    return "\n".join(lines)

