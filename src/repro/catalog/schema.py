"""Relational schema objects: columns, tables, schemas, and the catalog.

A :class:`Catalog` bundles a :class:`Schema` with its
:class:`~repro.catalog.join_graph.JoinGraph`; it is the single object the
planners and the RAQO optimizer take as input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

BYTES_PER_GB = 1024.0**3


class CatalogError(Exception):
    """Raised for malformed schema or catalog definitions and lookups."""


def _is_finite(value: float) -> bool:
    """False for NaN and infinities; an int too large for a float is
    still finite."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return True


@dataclass(frozen=True)
class Column:
    """A named, typed column with a fixed average width in bytes."""

    name: str
    dtype: str = "bigint"
    width_bytes: int = 8

    def __post_init__(self) -> None:
        if not self.name:
            raise CatalogError("column name must be non-empty")
        # NaN fails every comparison, so it is rejected by name.
        if not _is_finite(self.width_bytes) or self.width_bytes <= 0:
            raise CatalogError(
                f"column {self.name!r} width must be finite and positive, "
                f"got {self.width_bytes}"
            )


@dataclass(frozen=True)
class Table:
    """A base table with cardinality and row-width statistics.

    ``row_width_bytes`` defaults to the sum of the column widths when columns
    are given; tables may also be declared with an explicit width and no
    column list (the random schema generator does this).
    """

    name: str
    row_count: int
    columns: Tuple[Column, ...] = ()
    row_width_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise CatalogError("table name must be non-empty")
        # NaN fails every comparison, so it is rejected by name.
        if not _is_finite(self.row_count) or self.row_count < 0:
            raise CatalogError(
                f"table {self.name!r} row_count must be finite and >= 0, "
                f"got {self.row_count}"
            )
        if self.row_width_bytes is None:
            if not self.columns:
                raise CatalogError(
                    f"table {self.name!r} needs columns or an explicit "
                    "row_width_bytes"
                )
            width = sum(col.width_bytes for col in self.columns)
            object.__setattr__(self, "row_width_bytes", width)
        elif (
            not _is_finite(self.row_width_bytes)
            or self.row_width_bytes <= 0
        ):
            raise CatalogError(
                f"table {self.name!r} row width must be finite and "
                f"positive, got {self.row_width_bytes}"
            )
        names = [col.name for col in self.columns]
        if len(names) != len(set(names)):
            raise CatalogError(f"table {self.name!r} has duplicate columns")

    @property
    def size_bytes(self) -> int:
        """Total estimated on-disk size of the table."""
        assert self.row_width_bytes is not None
        return self.row_count * self.row_width_bytes

    @property
    def size_gb(self) -> float:
        """Total estimated size in GB (1 GB = 2**30 bytes)."""
        return self.size_bytes / BYTES_PER_GB

    def column(self, name: str) -> Column:
        """Return the column with ``name`` or raise :class:`CatalogError`."""
        for col in self.columns:
            if col.name == name:
                return col
        raise CatalogError(f"table {self.name!r} has no column {name!r}")


class Schema:
    """An ordered collection of uniquely named tables."""

    def __init__(self, name: str, tables: Iterable[Table] = ()) -> None:
        self.name = name
        self._tables: Dict[str, Table] = {}
        for table in tables:
            self.add_table(table)

    def add_table(self, table: Table) -> None:
        """Register ``table``; duplicate names raise :class:`CatalogError`."""
        if table.name in self._tables:
            raise CatalogError(f"duplicate table {table.name!r}")
        self._tables[table.name] = table

    def table(self, name: str) -> Table:
        """Return the table called ``name`` or raise :class:`CatalogError`."""
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(
                f"schema {self.name!r} has no table {name!r}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    @property
    def table_names(self) -> List[str]:
        """Names of all tables, in registration order."""
        return list(self._tables)

    @property
    def total_size_gb(self) -> float:
        """Sum of all base table sizes in GB."""
        return sum(table.size_gb for table in self)


@dataclass
class Catalog:
    """A schema together with its join graph.

    This is the unit of input the planners work against; see
    :func:`repro.catalog.tpch.tpch_catalog` for the canonical instance.
    """

    schema: Schema
    join_graph: "JoinGraph" = field(repr=False)  # noqa: F821

    def __post_init__(self) -> None:
        for edge in self.join_graph.edges():
            for name in (edge.left, edge.right):
                if name not in self.schema:
                    raise CatalogError(
                        f"join edge references unknown table {name!r}"
                    )

    def table(self, name: str) -> Table:
        """Shorthand for ``self.schema.table(name)``."""
        return self.schema.table(name)

    @property
    def table_names(self) -> List[str]:
        """Shorthand for ``self.schema.table_names``."""
        return self.schema.table_names
