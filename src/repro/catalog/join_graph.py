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
    """Undirected graph of join edges between named tables.

    Each table gets one bit, in order of first appearance, and a table
    set is an int mask over those bits (:meth:`mask_of`). Connectivity
    and joinability are bit operations over per-table adjacency masks,
    so the graph keeps no state per table subset.
    """

    def __init__(self, edges: Iterable[JoinEdge] = ()) -> None:
        self._edges: Dict[FrozenSet[str], JoinEdge] = {}
        #: Table -> its bit.
        self._bits: Dict[str, int] = {}
        #: Bit of a table -> mask of the tables directly joinable with it.
        self._adjacent: Dict[int, int] = {}
        for edge in edges:
            self.add_edge(edge)

    def add_edge(self, edge: JoinEdge) -> None:
        """Register a join edge; duplicate pairs raise."""
        if edge.key in self._edges:
            raise JoinGraphError(
                f"duplicate join edge {edge.left!r}-{edge.right!r}"
            )
        self._edges[edge.key] = edge
        for table in (edge.left, edge.right):
            if table not in self._bits:
                bit = self._bits[table] = 1 << len(self._bits)
                self._adjacent[bit] = 0
        left, right = self._bits[edge.left], self._bits[edge.right]
        self._adjacent[left] |= right
        self._adjacent[right] |= left

    def mask_of(self, tables: Iterable[str]) -> Optional[int]:
        """The bit mask of ``tables``; None when one is not in the graph."""
        bits = self._bits
        mask = 0
        for table in tables:
            bit = bits.get(table)
            if bit is None:
                return None
            mask |= bit
        return mask

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
        smaller side's neighbour mask ANDed with the other side's bits:
        the planners ask it of every candidate split. Overlapping sets
        raise, as in :meth:`edges_between`.
        """
        left_set, right_set = frozenset(left_tables), frozenset(right_tables)
        if not left_set.isdisjoint(right_set):
            raise JoinGraphError(
                f"table sets overlap on {sorted(left_set & right_set)}"
            )
        if len(right_set) < len(left_set):
            left_set, right_set = right_set, left_set
        bits, adjacent = self._bits, self._adjacent
        reach = 0
        for table in left_set:
            reach |= adjacent.get(bits.get(table, 0), 0)
        for table in right_set:
            if bits.get(table, 0) & reach:
                return True
        return False

    def neighbors(self, table: str) -> Set[str]:
        """Tables directly joinable with ``table``."""
        mask = self._adjacent.get(self._bits.get(table, 0), 0)
        return {name for name, bit in self._bits.items() if bit & mask}

    def tables(self) -> Set[str]:
        """All tables mentioned by at least one edge."""
        return set(self._bits)

    def is_connected(self, tables: Iterable[str]) -> bool:
        """True when ``tables`` induce a connected subgraph.

        Singleton sets are connected; tables absent from the graph make the
        set disconnected (there is no join path to them). A flood fill
        over the adjacency masks from the set's lowest bit.
        """
        table_set = frozenset(tables)
        if not table_set:
            raise JoinGraphError("empty table set")
        if len(table_set) == 1:
            return True
        mask = self.mask_of(table_set)
        if mask is None:
            return False
        # Grow from the lowest bit; ``unreached`` is the rest of the set.
        adjacent = self._adjacent
        unreached = mask & (mask - 1)
        frontier = mask ^ unreached
        while frontier and unreached:
            bit = frontier & -frontier
            grown = adjacent[bit] & unreached
            unreached ^= grown
            frontier ^= bit | grown
        return not unreached

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
        if seed not in self._bits:
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
