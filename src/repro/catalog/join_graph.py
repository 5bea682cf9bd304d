"""Join graphs: which tables join with which, and how selective the join is.

The paper evaluates on the TPC-H join graph ("we used the same tables and the
same join edges and join selectivities ... as specified in the benchmark")
and on randomly generated join graphs. Both are represented here as an
undirected multigraph-free graph of :class:`JoinEdge` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set


class JoinGraphError(Exception):
    """Raised for malformed join graph definitions and queries."""


@dataclass(frozen=True)
class JoinEdge:
    """An equi-join edge between two tables with a fixed selectivity.

    ``selectivity`` is the classic join selectivity factor: the join output
    cardinality is ``|L| * |R| * selectivity``. For a PK-FK join it is
    ``1 / |PK side|``.
    """

    left: str
    right: str
    selectivity: float
    left_column: str = ""
    right_column: str = ""

    def __post_init__(self) -> None:
        if self.left == self.right:
            raise JoinGraphError(f"self-join edge on {self.left!r}")
        if not 0.0 < self.selectivity <= 1.0:
            raise JoinGraphError(
                f"selectivity must be in (0, 1], got {self.selectivity} "
                f"for {self.left!r}-{self.right!r}"
            )

    @property
    def key(self) -> FrozenSet[str]:
        """Unordered pair identifying the edge."""
        return frozenset((self.left, self.right))

    def touches(self, table: str) -> bool:
        """True when the edge is incident to ``table``."""
        return table in (self.left, self.right)


class JoinGraph:
    """Undirected graph of join edges between named tables."""

    def __init__(self, edges: Iterable[JoinEdge] = ()) -> None:
        self._edges: Dict[FrozenSet[str], JoinEdge] = {}
        #: Table -> directly joinable tables.
        self._adjacency: Dict[str, Set[str]] = {}
        #: Connectivity answers by table set. The DP planners probe
        #: every subset of every lattice level (often across many
        #: queries over one catalog), and the search behind each probe
        #: dominates batched planning time. Entries are idempotent, so
        #: concurrent refills by serving worker threads are benign;
        #: ``add_edge`` invalidates.
        self._connected_cache: Dict[FrozenSet[str], bool] = {}
        for edge in edges:
            self.add_edge(edge)

    def add_edge(self, edge: JoinEdge) -> None:
        """Register a join edge; duplicate pairs raise."""
        if edge.key in self._edges:
            raise JoinGraphError(
                f"duplicate join edge {edge.left!r}-{edge.right!r}"
            )
        self._edges[edge.key] = edge
        self._adjacency.setdefault(edge.left, set()).add(edge.right)
        self._adjacency.setdefault(edge.right, set()).add(edge.left)
        self._connected_cache.clear()

    def edges(self) -> List[JoinEdge]:
        """All join edges in insertion order."""
        return list(self._edges.values())

    def edge_between(self, left: str, right: str) -> Optional[JoinEdge]:
        """The edge joining ``left`` and ``right``, or None."""
        return self._edges.get(frozenset((left, right)))

    def edges_within(self, tables: Iterable[str]) -> List[JoinEdge]:
        """All edges whose both endpoints are in ``tables``."""
        table_set = set(tables)
        return [
            edge
            for edge in self._edges.values()
            if edge.left in table_set and edge.right in table_set
        ]

    def edges_between(
        self, left_tables: Iterable[str], right_tables: Iterable[str]
    ) -> List[JoinEdge]:
        """Edges with one endpoint in each of the two disjoint sets."""
        left_set, right_set = set(left_tables), set(right_tables)
        overlap = left_set & right_set
        if overlap:
            raise JoinGraphError(f"table sets overlap on {sorted(overlap)}")
        result = []
        for edge in self._edges.values():
            crosses = (edge.left in left_set and edge.right in right_set) or (
                edge.left in right_set and edge.right in left_set
            )
            if crosses:
                result.append(edge)
        return result

    def joinable(
        self, left_tables: Iterable[str], right_tables: Iterable[str]
    ) -> bool:
        """True when some edge crosses the two disjoint sets.

        The same answer as ``bool(edges_between(...))``, from the
        adjacency sets instead of a scan over every edge: the planners
        ask it of every candidate split. Overlapping sets raise, as in
        :meth:`edges_between`.
        """
        left_set, right_set = frozenset(left_tables), frozenset(right_tables)
        if not left_set.isdisjoint(right_set):
            raise JoinGraphError(
                f"table sets overlap on {sorted(left_set & right_set)}"
            )
        if len(right_set) < len(left_set):
            left_set, right_set = right_set, left_set
        for table in left_set:
            neighbours = self._adjacency.get(table)
            if neighbours is not None and not neighbours.isdisjoint(right_set):
                return True
        return False

    def neighbors(self, table: str) -> Set[str]:
        """Tables directly joinable with ``table``."""
        return set(self._adjacency.get(table, ()))

    def tables(self) -> Set[str]:
        """All tables mentioned by at least one edge."""
        return set(self._adjacency)

    def is_connected(self, tables: Iterable[str]) -> bool:
        """True when ``tables`` induce a connected subgraph.

        Singleton sets are connected; tables absent from the graph make the
        set disconnected (there is no join path to them).
        """
        table_list = list(dict.fromkeys(tables))
        if not table_list:
            raise JoinGraphError("empty table set")
        if len(table_list) == 1:
            return True
        key = frozenset(table_list)
        cached = self._connected_cache.get(key)
        if cached is not None:
            return cached
        # Search the induced subgraph from one table; absent tables are
        # never reached.
        reached = {table_list[0]}
        pending = [table_list[0]]
        while pending:
            for neighbour in self._adjacency.get(pending.pop(), ()):
                if neighbour in key and neighbour not in reached:
                    reached.add(neighbour)
                    pending.append(neighbour)
        connected = len(reached) == len(key)
        self._connected_cache[key] = connected
        return connected

    def selectivity_between(
        self, left_tables: Iterable[str], right_tables: Iterable[str]
    ) -> float:
        """Product of selectivities of all edges crossing the two sets.

        Returns 1.0 when no edge crosses (a cross join).
        """
        product = 1.0
        for edge in self.edges_between(left_tables, right_tables):
            product *= edge.selectivity
        return product

    def connected_subset(
        self, seed: str, size: int, rng: "np.random.Generator"  # noqa: F821
    ) -> List[str]:
        """Grow a random connected subset of ``size`` tables from ``seed``.

        Used by the workload generators to produce joinable queries.
        """
        if seed not in self._adjacency:
            raise JoinGraphError(f"unknown table {seed!r}")
        if size < 1:
            raise JoinGraphError(f"size must be >= 1, got {size}")
        chosen = [seed]
        chosen_set = {seed}
        frontier = sorted(self.neighbors(seed))
        while len(chosen) < size:
            candidates = [t for t in frontier if t not in chosen_set]
            if not candidates:
                raise JoinGraphError(
                    f"cannot grow a connected subset of size {size} "
                    f"from {seed!r}; stuck at {len(chosen)}"
                )
            pick = candidates[int(rng.integers(len(candidates)))]
            chosen.append(pick)
            chosen_set.add(pick)
            frontier = sorted(
                set(frontier) | self.neighbors(pick) - chosen_set
            )
        return chosen

    def __len__(self) -> int:
        return len(self._edges)

    def __iter__(self) -> Iterator[JoinEdge]:
        return iter(self._edges.values())
