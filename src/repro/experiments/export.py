"""CSV export for experiment results.

``repro figure`` prints each figure's declared tables; this module writes
the same tables as CSV files so they can be plotted against the paper's
figures.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any, Iterable, List, Sequence, Union

from repro.experiments.claims import Figure

PathLike = Union[str, Path]


class ExportError(Exception):
    """Raised for malformed export requests."""


def write_csv(
    path: PathLike,
    headers: Sequence[str],
    rows: Iterable[Sequence],
) -> Path:
    """Write one series as a CSV file; returns the resolved path."""
    if not headers:
        raise ExportError("headers must be non-empty")
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        for row in rows:
            if len(row) != len(headers):
                raise ExportError(
                    f"row has {len(row)} cells, expected {len(headers)}"
                )
            writer.writerow(row)
    return target


def read_csv(path: PathLike) -> List[List[str]]:
    """Read a CSV back (header row included) -- mainly for tests."""
    with Path(path).open(newline="") as handle:
        return [row for row in csv.reader(handle)]


def export_figure(
    figure: Figure, result: Any, directory: PathLike
) -> List[Path]:
    """Write each of ``figure``'s declared tables as one CSV file,
    ``<figure name><a, b, ...>.csv``, headed by the table's headers."""
    return [
        write_csv(
            Path(directory) / f"{figure.name}{chr(ord('a') + index)}.csv",
            table.headers,
            table.rows(result),
        )
        for index, table in enumerate(figure.tables)
    ]
