"""Tests for the planner-evaluation drivers (Figs 12, 14, 15).

Reduced-size runs keeping the headline claims verifiable.
"""

import pytest

from repro.catalog import tpch
from repro.experiments import (
    fig12_tpch_planning,
    fig14_plan_cache,
    fig15_scalability,
)


class TestFig12:
    @pytest.fixture(scope="class")
    def result(self):
        # Medians of 25 interleaved runs: a single run of each planner
        # let machine noise invert the QO-vs-RAQO comparison.
        return fig12_tpch_planning.run(
            queries=(tpch.QUERY_Q12, tpch.QUERY_Q3), repetitions=25
        )

    def test_grid_complete(self, result):
        assert len(result.rows) == 4  # 2 queries x 2 planners

    def test_raqo_explores_resource_space(self, result):
        for row in result.rows:
            assert row.resource_iterations > 0

    def test_raqo_adds_overhead(self, result):
        for row in result.rows:
            assert row.raqo_runtime_ms >= row.qo_runtime_ms

    def test_larger_query_explores_more(self, result):
        q12 = result.row("Q12", "selinger")
        q3 = result.row("Q3", "selinger")
        assert q3.resource_iterations > q12.resource_iterations

    def test_lookup_unknown_cell(self, result):
        with pytest.raises(KeyError):
            result.row("Q12", "nonexistent")


class TestFig14:
    @pytest.fixture(scope="class")
    def result(self):
        return fig14_plan_cache.run(
            query=tpch.QUERY_Q2, repetitions=1
        )

    def test_caching_reduces_iterations(self, result):
        for point in result.points:
            assert point.resource_iterations <= (
                result.baseline_iterations
            )
        assert result.best_iteration_reduction() > 2.0

    def test_larger_threshold_never_explores_more(self, result):
        for variant in ("HC+Caching_NN", "HC+Caching_WA"):
            series = [
                p for p in result.points if p.variant == variant
            ]
            series.sort(key=lambda p: p.threshold_gb)
            iterations = [p.resource_iterations for p in series]
            assert iterations == sorted(iterations, reverse=True)

    def test_cache_hits_recorded(self, result):
        assert any(p.cache_hits > 0 for p in result.points)

    def test_both_variants_measured(self, result):
        variants = {p.variant for p in result.points}
        assert variants == {"HC+Caching_NN", "HC+Caching_WA"}


class TestFig15:
    def test_schema_scaling_claims(self):
        result = fig15_scalability.run_schema_scaling(
            sizes=(2, 5, 10), num_tables=20, iterations=2
        )
        assert len(result.points) == 3
        # Caching reduces resource iterations dramatically.
        for point in result.points[1:]:
            assert point.raqo_cached_iterations < point.raqo_iterations
        assert result.mean_cache_speedup > 1.5

    def test_resource_scaling_iterations_grow(self):
        result = fig15_scalability.run_resource_scaling(
            query_size=6,
            num_tables=20,
            container_scale=(100, 10_000),
            size_scale_gb=(10.0,),
            iterations=1,
        )
        iterations = [p.raqo_iterations for p in result.points]
        assert iterations[-1] > iterations[0]

    def test_empty_schema_sweep_rejected(self):
        with pytest.raises(ValueError, match="sizes"):
            fig15_scalability.run_schema_scaling(sizes=())

    @pytest.mark.parametrize(
        "sweep", [{"container_scale": ()}, {"size_scale_gb": ()}]
    )
    def test_empty_resource_sweep_rejected(self, sweep):
        with pytest.raises(ValueError, match="must be non-empty"):
            fig15_scalability.run_resource_scaling(**sweep)

    def test_scaled_cluster_levels(self):
        small = fig15_scalability.scaled_cluster(100, 10.0)
        large = fig15_scalability.scaled_cluster(100_000, 100.0)
        assert small.container_step == 1
        assert large.container_step > 1
        # The discrete level count grows with the cluster.
        small_levels = small.dimensions[0].num_values
        large_levels = large.dimensions[0].num_values
        assert large_levels > small_levels
