"""Tests for repro.catalog.tpch."""

import pytest

from repro.catalog import tpch
from repro.catalog.queries import QueryError


class TestCardinalities:
    @pytest.mark.parametrize(
        "table,rows",
        [
            ("region", 5),
            ("nation", 25),
            ("supplier", 10_000),
            ("customer", 150_000),
            ("part", 200_000),
            ("partsupp", 800_000),
            ("orders", 1_500_000),
            ("lineitem", 6_000_000),
        ],
    )
    def test_sf1_row_counts(self, table, rows):
        assert tpch.row_count(table, 1.0) == rows

    def test_fixed_tables_do_not_scale(self):
        assert tpch.row_count("region", 100) == 5
        assert tpch.row_count("nation", 1000) == 25

    def test_scaling_tables(self):
        assert tpch.row_count("lineitem", 100) == 600_000_000
        assert tpch.row_count("orders", 10) == 15_000_000

    def test_fractional_scale_factor(self):
        assert tpch.row_count("supplier", 0.1) == 1_000


class TestSchema:
    def test_eight_tables(self, tpch_catalog_sf1):
        assert len(tpch_catalog_sf1.schema) == 8

    def test_invalid_scale_factor(self):
        with pytest.raises(ValueError):
            tpch.tpch_schema(0)
        with pytest.raises(ValueError):
            tpch.tpch_schema(-1)

    @pytest.mark.parametrize(
        "scale_factor", [float("nan"), float("inf")], ids=str
    )
    def test_non_finite_scale_factor(self, scale_factor):
        with pytest.raises(ValueError, match="finite"):
            tpch.tpch_schema(scale_factor)

    def test_lineitem_size_sf100_near_paper(self, tpch_catalog_sf100):
        # The paper's lineitem is ~77 GB at SF 100.
        size = tpch_catalog_sf100.table("lineitem").size_gb
        assert 65 <= size <= 85

    def test_row_widths_match_columns_scale(self, tpch_catalog_sf1):
        for table in tpch_catalog_sf1.schema:
            column_width = sum(c.width_bytes for c in table.columns)
            # Declared widths are close to the column sums.
            assert abs(column_width - table.row_width_bytes) <= 10

    def test_schema_name_embeds_sf(self):
        assert tpch.tpch_schema(100).name == "tpch-sf100"


class TestJoinGraph:
    def test_nine_edges(self, tpch_catalog_sf1):
        assert len(tpch_catalog_sf1.join_graph) == 9

    def test_pk_fk_selectivity(self, tpch_catalog_sf1):
        edge = tpch_catalog_sf1.join_graph.edge_between(
            "lineitem", "orders"
        )
        assert edge is not None
        assert edge.selectivity == pytest.approx(1.0 / 1_500_000)

    def test_selectivity_scales_with_sf(self, tpch_catalog_sf100):
        edge = tpch_catalog_sf100.join_graph.edge_between(
            "lineitem", "orders"
        )
        assert edge.selectivity == pytest.approx(1.0 / 150_000_000)

    def test_whole_schema_connected(self, tpch_catalog_sf1):
        graph = tpch_catalog_sf1.join_graph
        assert graph.is_connected(tpch.TABLE_NAMES)

    def test_no_customer_part_edge(self, tpch_catalog_sf1):
        assert (
            tpch_catalog_sf1.join_graph.edge_between("customer", "part")
            is None
        )


class TestQueries:
    def test_q12_single_join(self):
        assert tpch.QUERY_Q12.num_joins == 1
        assert set(tpch.QUERY_Q12.tables) == {"orders", "lineitem"}

    def test_q3_two_joins(self):
        assert tpch.QUERY_Q3.num_joins == 2

    def test_q2_three_joins(self):
        assert tpch.QUERY_Q2.num_joins == 3

    def test_all_query_covers_schema(self):
        assert set(tpch.QUERY_ALL.tables) == set(tpch.TABLE_NAMES)

    def test_all_evaluation_queries_validate(self, tpch_catalog_sf100):
        for query in tpch.EVALUATION_QUERIES:
            query.validate(tpch_catalog_sf100)

    def test_evaluation_order_matches_paper(self):
        names = [q.name for q in tpch.EVALUATION_QUERIES]
        assert names == ["Q12", "Q3", "Q2", "All"]
