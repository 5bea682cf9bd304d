"""Tests for repro.catalog.schema."""

import dataclasses
import math

import pytest

from repro.api import RaqoSession
from repro.catalog import tpch
from repro.catalog.join_graph import JoinEdge, JoinGraph
from repro.catalog.schema import (
    BYTES_PER_GB,
    Catalog,
    CatalogError,
    Column,
    Schema,
    Table,
)
from repro.core.raqo import ResourcePlanningMethod

NON_FINITE = [math.nan, math.inf, -math.inf]


class TestColumn:
    def test_basic_column(self):
        col = Column("o_orderkey", "int", 4)
        assert col.name == "o_orderkey"
        assert col.width_bytes == 4

    def test_default_width(self):
        assert Column("x").width_bytes == 8

    def test_empty_name_rejected(self):
        with pytest.raises(CatalogError):
            Column("")

    def test_non_positive_width_rejected(self):
        with pytest.raises(CatalogError):
            Column("x", width_bytes=0)
        with pytest.raises(CatalogError):
            Column("x", width_bytes=-3)

    @pytest.mark.parametrize("width", NON_FINITE)
    def test_non_finite_width_rejected(self, width):
        with pytest.raises(CatalogError, match="finite"):
            Column("x", width_bytes=width)


class TestTable:
    def test_row_width_from_columns(self):
        table = Table(
            "t",
            row_count=10,
            columns=(Column("a", width_bytes=4), Column("b", width_bytes=6)),
        )
        assert table.row_width_bytes == 10

    def test_explicit_row_width_wins(self):
        table = Table(
            "t",
            row_count=10,
            columns=(Column("a", width_bytes=4),),
            row_width_bytes=100,
        )
        assert table.row_width_bytes == 100

    def test_size_bytes(self):
        table = Table("t", row_count=1000, row_width_bytes=100)
        assert table.size_bytes == 100_000

    def test_size_gb(self):
        table = Table("t", row_count=2**20, row_width_bytes=1024)
        assert table.size_gb == pytest.approx(1.0)

    def test_requires_columns_or_width(self):
        with pytest.raises(CatalogError):
            Table("t", row_count=10)

    def test_negative_rows_rejected(self):
        with pytest.raises(CatalogError):
            Table("t", row_count=-1, row_width_bytes=10)

    def test_zero_rows_allowed(self):
        assert Table("t", row_count=0, row_width_bytes=10).size_bytes == 0

    @pytest.mark.parametrize("rows", NON_FINITE)
    def test_non_finite_rows_rejected(self, rows):
        with pytest.raises(CatalogError, match="finite"):
            Table("t", row_count=rows, row_width_bytes=10)

    @pytest.mark.parametrize("width", NON_FINITE)
    def test_non_finite_row_width_rejected(self, width):
        with pytest.raises(CatalogError, match="finite"):
            Table("t", row_count=10, row_width_bytes=width)

    def test_huge_integer_rows_allowed(self):
        assert Table("t", row_count=10**400, row_width_bytes=1).row_count

    @pytest.mark.parametrize("rows", NON_FINITE)
    @pytest.mark.parametrize("method", list(ResourcePlanningMethod), ids=str)
    def test_session_catalog_with_non_finite_rows_is_a_catalog_error(
        self, rows, method
    ):
        """Q3 over a TPC-H catalog whose ``orders`` count is not finite
        stops at the typed error, before any planning."""

        def plan():
            tables = [
                dataclasses.replace(table, row_count=rows)
                if table.name == "orders"
                else table
                for table in tpch.tpch_schema(100)
            ]
            catalog = Catalog(
                schema=Schema("tpch-bad", tables),
                join_graph=tpch.tpch_join_graph(100),
            )
            session = RaqoSession(catalog=catalog, resource_method=method)
            return session.plan(tpch.QUERY_Q3)

        with pytest.raises(CatalogError, match="'orders' row_count"):
            plan()

    def test_duplicate_columns_rejected(self):
        with pytest.raises(CatalogError):
            Table(
                "t",
                row_count=1,
                columns=(Column("a"), Column("a")),
            )

    def test_column_lookup(self):
        table = Table("t", row_count=1, columns=(Column("a"),))
        assert table.column("a").name == "a"
        with pytest.raises(CatalogError):
            table.column("missing")

    def test_empty_name_rejected(self):
        with pytest.raises(CatalogError):
            Table("", row_count=1, row_width_bytes=10)


class TestSchema:
    def _schema(self):
        return Schema(
            "s",
            tables=[
                Table("a", row_count=1, row_width_bytes=10),
                Table("b", row_count=2, row_width_bytes=20),
            ],
        )

    def test_lookup(self):
        schema = self._schema()
        assert schema.table("a").row_count == 1

    def test_contains(self):
        schema = self._schema()
        assert "a" in schema
        assert "zz" not in schema

    def test_len_and_iter(self):
        schema = self._schema()
        assert len(schema) == 2
        assert [t.name for t in schema] == ["a", "b"]

    def test_table_names_order(self):
        assert self._schema().table_names == ["a", "b"]

    def test_duplicate_table_rejected(self):
        schema = self._schema()
        with pytest.raises(CatalogError):
            schema.add_table(Table("a", row_count=5, row_width_bytes=1))

    def test_missing_table_raises(self):
        with pytest.raises(CatalogError):
            self._schema().table("nope")

    def test_total_size_gb(self):
        schema = self._schema()
        expected = (1 * 10 + 2 * 20) / BYTES_PER_GB
        assert schema.total_size_gb == pytest.approx(expected)


class TestCatalog:
    def test_valid_catalog(self):
        schema = Schema(
            "s",
            tables=[
                Table("a", row_count=10, row_width_bytes=10),
                Table("b", row_count=10, row_width_bytes=10),
            ],
        )
        graph = JoinGraph([JoinEdge("a", "b", selectivity=0.1)])
        catalog = Catalog(schema=schema, join_graph=graph)
        assert catalog.table("a").row_count == 10
        assert catalog.table_names == ["a", "b"]

    def test_edge_to_unknown_table_rejected(self):
        schema = Schema(
            "s", tables=[Table("a", row_count=10, row_width_bytes=10)]
        )
        graph = JoinGraph([JoinEdge("a", "ghost", selectivity=0.1)])
        with pytest.raises(CatalogError):
            Catalog(schema=schema, join_graph=graph)
