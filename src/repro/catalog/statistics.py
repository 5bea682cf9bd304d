"""Cardinality and size estimation over join graphs.

Implements the textbook System-R style estimator the paper's planners rely
on: the cardinality of joining a set of relations is the product of base
cardinalities times the product of the selectivities of all join edges
internal to the set. Sizes combine cardinalities with (joined) row widths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Tuple, Union

from repro.catalog.join_graph import JoinGraph, JoinGraphError
from repro.catalog.schema import BYTES_PER_GB, Catalog
from repro.units import GB


@dataclass(frozen=True)
class TableStats:
    """Statistics for a (possibly intermediate) relation."""

    row_count: float
    row_width_bytes: float

    def __post_init__(self) -> None:
        if self.row_count < 0:
            raise ValueError(f"row_count must be >= 0, got {self.row_count}")
        if self.row_width_bytes <= 0:
            raise ValueError(
                f"row_width_bytes must be > 0, got {self.row_width_bytes}"
            )

    @property
    def size_bytes(self) -> float:
        """Estimated total size in bytes."""
        return self.row_count * self.row_width_bytes

    @property
    def size_gb(self) -> float:
        """Estimated total size in GB."""
        return self.size_bytes / BYTES_PER_GB


class StatisticsEstimator:
    """Estimates cardinalities and sizes of joins over a catalog.

    ``filter_factors`` scales base-table cardinalities before any join
    arithmetic -- the paper's uniform sampling filters ("a specific
    fraction of the table each time"). Estimates for a relation *set*
    are memoised by bit mask: planners (especially the Selinger DP) ask
    for the same subsets repeatedly. Adding an edge to the join graph
    drops the memo.
    """

    def __init__(
        self,
        catalog: Catalog,
        filter_factors: Optional[Dict[str, float]] = None,
    ) -> None:
        self._catalog = catalog
        self._filters: Dict[str, float] = dict(filter_factors or {})
        for table, factor in self._filters.items():
            if table not in catalog.schema:
                raise JoinGraphError(
                    f"filter on unknown table {table!r}"
                )
            if not 0.0 < factor <= 1.0:
                raise ValueError(
                    f"filter factor on {table!r} must be in (0, 1], "
                    f"got {factor}"
                )
        #: Estimates by the join graph's bit mask of the relation set;
        #: a table outside the graph (a lone scan) keys by its frozenset.
        self._cache: Dict[Union[int, FrozenSet[str]], TableStats] = {}
        #: Edge count of the join graph the cached estimates assume.
        self._graph_edges = len(catalog.join_graph)

    def with_filters(
        self, filter_factors: Dict[str, float]
    ) -> "StatisticsEstimator":
        """A derived estimator applying per-table scan selectivities."""
        if not filter_factors:
            return self
        merged = dict(self._filters)
        merged.update(filter_factors)
        return StatisticsEstimator(self._catalog, merged)

    @property
    def catalog(self) -> Catalog:
        """The catalog this estimator reads statistics from."""
        return self._catalog

    @property
    def join_graph(self) -> JoinGraph:
        """The catalog's join graph."""
        return self._catalog.join_graph

    def base_stats(self, table_name: str) -> TableStats:
        """Statistics of a single (possibly filtered) base table."""
        table = self._catalog.table(table_name)
        factor = self._filters.get(table_name, 1.0)
        return TableStats(
            row_count=float(table.row_count) * factor,
            row_width_bytes=float(table.row_width_bytes),
        )

    def stats_for(self, tables: Iterable[str]) -> TableStats:
        """Statistics of the relation produced by joining ``tables``.

        The tables must induce a connected subgraph of the join graph
        (cross joins are rejected -- the paper's queries are all connected
        join queries).
        """
        graph = self.join_graph
        if len(graph) != self._graph_edges:
            # Edges are only ever added, so the edge count versions the
            # graph: a new edge can change any multi-table estimate.
            self._cache.clear()
            self._graph_edges = len(graph)
        table_set = frozenset(tables)
        if not table_set:
            raise JoinGraphError("empty table set")
        mask = graph.mask_of(table_set)
        key: Union[int, FrozenSet[str]] = table_set if mask is None else mask
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        names = sorted(table_set)
        if len(names) == 1:
            stats = self.base_stats(names[0])
            self._cache[key] = stats
            return stats
        if not graph.is_connected(table_set):
            raise JoinGraphError(
                f"tables {names} are not connected in the join graph"
            )
        rows = 1.0
        width = 0.0
        for name in names:
            base = self.base_stats(name)
            rows *= base.row_count
            width += base.row_width_bytes
        for edge in graph.edges_within(names):
            rows *= edge.selectivity
        stats = TableStats(row_count=rows, row_width_bytes=width)
        self._cache[key] = stats
        return stats

    def join_stats(
        self, left_tables: Iterable[str], right_tables: Iterable[str]
    ) -> TableStats:
        """Statistics of joining two disjoint relation sets."""
        left = frozenset(left_tables)
        right = frozenset(right_tables)
        return self.stats_for(left | right)

    def join_io_gb(
        self, left_tables: Iterable[str], right_tables: Iterable[str]
    ) -> Tuple[GB, GB]:
        """(smaller, larger) input sizes in GB for a join of two sets.

        This is the ``ss`` (smaller side size) feature the paper's cost
        model is trained on, plus the larger side used by the engine
        simulator.
        """
        left_gb = self.stats_for(left_tables).size_gb
        right_gb = self.stats_for(right_tables).size_gb
        return (GB(min(left_gb, right_gb)), GB(max(left_gb, right_gb)))

    def clear_cache(self) -> None:
        """Drop all memoised intermediate statistics."""
        self._cache.clear()
