"""The TPC-H schema, statistics, join graph, and the paper's four queries.

Cardinalities follow the TPC-H specification scaled by ``scale_factor``
(``region`` and ``nation`` are fixed-size). Row widths are the standard
average widths of the uncompressed tables. Join selectivities follow the
benchmark's PK-FK structure: each edge's selectivity is the reciprocal of
the primary-key side's cardinality, exactly the "same join edges and join
selectivities as specified in the benchmark" setup of the paper's Sec VII.

The paper evaluates four queries on this schema (Sec VII):

- ``QUERY_Q12`` -- orders |><| lineitem (single join),
- ``QUERY_Q3``  -- customer |><| orders |><| lineitem (two joins),
- ``QUERY_Q2``  -- part |><| partsupp |><| supplier |><| nation (three joins),
- ``QUERY_ALL`` -- all eight tables joined.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import List, Mapping

from repro.catalog.join_graph import JoinEdge, JoinGraph
from repro.catalog.queries import Query
from repro.catalog.schema import Catalog, Column, Schema, Table

# The shared tables below are wrapped in read-only views (and the edge
# list is a tuple) so they can be safely shared across the optimizer
# service's worker threads (lint rule RAQO005).

#: Base cardinalities at scale factor 1. ``region``/``nation`` do not scale.
_BASE_ROWS: Mapping[str, int] = MappingProxyType({
    "region": 5,
    "nation": 25,
    "supplier": 10_000,
    "customer": 150_000,
    "part": 200_000,
    "partsupp": 800_000,
    "orders": 1_500_000,
    "lineitem": 6_000_000,
})

_FIXED_SIZE_TABLES = frozenset({"region", "nation"})

#: Average row widths in bytes (uncompressed), per the TPC-H spec tables.
_ROW_WIDTH: Mapping[str, int] = MappingProxyType({
    "region": 124,
    "nation": 128,
    "supplier": 159,
    "customer": 179,
    "part": 155,
    "partsupp": 144,
    "orders": 121,
    "lineitem": 129,
})

_COLUMNS: Mapping[str, List[Column]] = MappingProxyType({
    "region": [
        Column("r_regionkey", "int", 4),
        Column("r_name", "char(25)", 25),
        Column("r_comment", "varchar(152)", 95),
    ],
    "nation": [
        Column("n_nationkey", "int", 4),
        Column("n_name", "char(25)", 25),
        Column("n_regionkey", "int", 4),
        Column("n_comment", "varchar(152)", 95),
    ],
    "supplier": [
        Column("s_suppkey", "int", 4),
        Column("s_name", "char(25)", 25),
        Column("s_address", "varchar(40)", 25),
        Column("s_nationkey", "int", 4),
        Column("s_phone", "char(15)", 15),
        Column("s_acctbal", "decimal", 8),
        Column("s_comment", "varchar(101)", 78),
    ],
    "customer": [
        Column("c_custkey", "int", 4),
        Column("c_name", "varchar(25)", 25),
        Column("c_address", "varchar(40)", 25),
        Column("c_nationkey", "int", 4),
        Column("c_phone", "char(15)", 15),
        Column("c_acctbal", "decimal", 8),
        Column("c_mktsegment", "char(10)", 10),
        Column("c_comment", "varchar(117)", 88),
    ],
    "part": [
        Column("p_partkey", "int", 4),
        Column("p_name", "varchar(55)", 33),
        Column("p_mfgr", "char(25)", 25),
        Column("p_brand", "char(10)", 10),
        Column("p_type", "varchar(25)", 21),
        Column("p_size", "int", 4),
        Column("p_container", "char(10)", 10),
        Column("p_retailprice", "decimal", 8),
        Column("p_comment", "varchar(23)", 40),
    ],
    "partsupp": [
        Column("ps_partkey", "int", 4),
        Column("ps_suppkey", "int", 4),
        Column("ps_availqty", "int", 4),
        Column("ps_supplycost", "decimal", 8),
        Column("ps_comment", "varchar(199)", 124),
    ],
    "orders": [
        Column("o_orderkey", "int", 4),
        Column("o_custkey", "int", 4),
        Column("o_orderstatus", "char(1)", 1),
        Column("o_totalprice", "decimal", 8),
        Column("o_orderdate", "date", 4),
        Column("o_orderpriority", "char(15)", 15),
        Column("o_clerk", "char(15)", 15),
        Column("o_shippriority", "int", 4),
        Column("o_comment", "varchar(79)", 66),
    ],
    "lineitem": [
        Column("l_orderkey", "int", 4),
        Column("l_partkey", "int", 4),
        Column("l_suppkey", "int", 4),
        Column("l_linenumber", "int", 4),
        Column("l_quantity", "decimal", 8),
        Column("l_extendedprice", "decimal", 8),
        Column("l_discount", "decimal", 8),
        Column("l_tax", "decimal", 8),
        Column("l_returnflag", "char(1)", 1),
        Column("l_linestatus", "char(1)", 1),
        Column("l_shipdate", "date", 4),
        Column("l_commitdate", "date", 4),
        Column("l_receiptdate", "date", 4),
        Column("l_shipinstruct", "char(25)", 25),
        Column("l_shipmode", "char(10)", 10),
        Column("l_comment", "varchar(44)", 27),
    ],
})

#: PK-FK join edges: (fk_table, fk_column, pk_table, pk_column).
_EDGES = (
    ("nation", "n_regionkey", "region", "r_regionkey"),
    ("supplier", "s_nationkey", "nation", "n_nationkey"),
    ("customer", "c_nationkey", "nation", "n_nationkey"),
    ("partsupp", "ps_partkey", "part", "p_partkey"),
    ("partsupp", "ps_suppkey", "supplier", "s_suppkey"),
    ("orders", "o_custkey", "customer", "c_custkey"),
    ("lineitem", "l_orderkey", "orders", "o_orderkey"),
    ("lineitem", "l_partkey", "part", "p_partkey"),
    ("lineitem", "l_suppkey", "supplier", "s_suppkey"),
)

#: Table names in ascending size order at any scale factor.
TABLE_NAMES = tuple(_BASE_ROWS)


def row_count(table: str, scale_factor: float) -> int:
    """TPC-H cardinality of ``table`` at the given scale factor."""
    base = _BASE_ROWS[table]
    if table in _FIXED_SIZE_TABLES:
        return base
    return int(round(base * scale_factor))


def tpch_schema(scale_factor: float = 1.0) -> Schema:
    """Build the eight-table TPC-H schema at ``scale_factor``."""
    # NaN fails every comparison, so it is rejected by name.
    if not math.isfinite(scale_factor) or scale_factor <= 0:
        raise ValueError(
            f"scale_factor must be finite and > 0, got {scale_factor}"
        )
    tables = [
        Table(
            name=name,
            row_count=row_count(name, scale_factor),
            columns=tuple(_COLUMNS[name]),
            row_width_bytes=_ROW_WIDTH[name],
        )
        for name in _BASE_ROWS
    ]
    return Schema(name=f"tpch-sf{scale_factor:g}", tables=tables)


def tpch_join_graph(scale_factor: float = 1.0) -> JoinGraph:
    """Build the TPC-H join graph with PK-FK selectivities."""
    graph = JoinGraph()
    for fk_table, fk_column, pk_table, pk_column in _EDGES:
        pk_rows = row_count(pk_table, scale_factor)
        graph.add_edge(
            JoinEdge(
                left=fk_table,
                right=pk_table,
                selectivity=1.0 / pk_rows,
                left_column=fk_column,
                right_column=pk_column,
            )
        )
    return graph


def tpch_catalog(scale_factor: float = 1.0) -> Catalog:
    """The full TPC-H catalog (schema + join graph) at ``scale_factor``.

    The paper runs its planning evaluation at scale factor 100.
    """
    return Catalog(
        schema=tpch_schema(scale_factor),
        join_graph=tpch_join_graph(scale_factor),
    )


#: Single-join query the paper derives from TPC-H Q12 (Sec III-A).
QUERY_Q12 = Query("Q12", ("orders", "lineitem"))

#: Two-join query the paper derives from TPC-H Q3 (Sec III-B).
QUERY_Q3 = Query("Q3", ("customer", "orders", "lineitem"))

#: Three-join query from TPC-H Q2 (Sec VII).
QUERY_Q2 = Query("Q2", ("part", "partsupp", "supplier", "nation"))

#: All eight TPC-H tables joined (the paper's "All" query).
QUERY_ALL = Query("All", TABLE_NAMES)

#: The evaluation workload of Sec VII, in the paper's order.
EVALUATION_QUERIES = (QUERY_Q12, QUERY_Q3, QUERY_Q2, QUERY_ALL)
