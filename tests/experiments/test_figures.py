"""Tests for the experiment drivers: each figure's headline claims.

These run reduced-size versions of the drivers where the full sweep is
slow; the benchmarks run the full configurations.
"""

import math

import pytest

from repro.catalog import tpch
from repro.cluster.trace import TraceConfig
from repro.engine.profiles import HIVE_PROFILE, SPARK_PROFILE
from repro.experiments import (
    fig01_queue_cdf,
    fig02_potential_gains,
    fig03_operator_switch,
    fig04_data_switch,
    fig05_join_order,
    fig06_monetary,
    fig07_monetary_switch,
    fig09_switch_space,
    fig10_default_trees,
    fig11_raqo_trees,
    fig13_hill_climbing,
)
from repro.experiments.report import format_table


class TestReport:
    def test_format_table_aligns(self):
        text = format_table(
            ["a", "bb"], [(1, 2.5), (10, 3.25)], title="t"
        )
        lines = text.splitlines()
        assert lines[0] == "t"
        assert len(set(len(line) for line in lines[1:])) == 1

    def test_row_arity_checked(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [(1,)])

    def test_inf_and_nan_rendering(self):
        text = format_table(
            ["x"], [(float("inf"),), (float("nan"),)]
        )
        assert "inf" in text and "nan" in text


class TestFig01:
    def test_headline_statistics(self):
        # The calibrated defaults (2000 jobs) reproduce the paper's
        # two claims; shorter traces under-sample the bursts.
        result = fig01_queue_cdf.run(seed=7)
        assert result.fraction_ratio_ge_1 >= 0.80
        assert result.fraction_ratio_ge_4 >= 0.20

    def test_cdf_monotone(self):
        result = fig01_queue_cdf.run(TraceConfig(num_jobs=500), seed=1)
        ratios = [ratio for _, ratio in result.cdf]
        assert ratios == sorted(ratios)


class TestFig02:
    def test_hive_default_loses_somewhere(self):
        result = fig02_potential_gains.run(HIVE_PROFILE)
        assert result.max_time_ratio >= 1.3
        assert result.max_resource_ratio >= 1.3

    def test_spark_default_loses_somewhere(self):
        result = fig02_potential_gains.run(SPARK_PROFILE)
        assert result.max_time_ratio >= 1.2

    def test_ratios_never_below_one(self):
        result = fig02_potential_gains.run(HIVE_PROFILE)
        for point in result.points:
            assert point.time_ratio >= 1.0 - 1e-9


class TestFig03:
    def test_switch_points_match_paper(self):
        result = fig03_operator_switch.run()
        assert result.switch_container_gb() == pytest.approx(7.0)
        assert result.switch_container_count() == 20

    def test_oom_region(self):
        result = fig03_operator_switch.run()
        small = [
            p
            for p in result.container_size_sweep
            if p.config.container_gb < 4.5
        ]
        assert all(not p.bhj_feasible for p in small)


class TestFig04:
    def test_switch_points(self):
        result = fig04_data_switch.run()
        assert result.switch_gb("cs=3GB,nc=10") == pytest.approx(
            3.45, abs=0.15
        )
        assert 5.0 <= result.switch_gb("cs=9GB,nc=10") <= 7.0

    def test_switch_moves_with_resources(self):
        result = fig04_data_switch.run()
        assert result.switch_gb("cs=3GB,nc=10") != result.switch_gb(
            "cs=9GB,nc=10"
        )


class TestFig05:
    def test_plan1_wins_at_moderate_parallelism(self):
        result = fig05_join_order.run()
        at_16 = [
            p
            for p in result.container_count_sweep
            if p.config.num_containers == 16
        ][0]
        assert at_16.winner == "Plan 1"

    def test_plan2_overtakes_at_high_parallelism(self):
        result = fig05_join_order.run()
        crossover = result.crossover_containers()
        assert crossover is not None
        assert 24 <= crossover <= 44  # paper: 32

    def test_plan1_oom_at_small_containers(self):
        result = fig05_join_order.run()
        smallest = result.container_size_sweep[0]
        assert not math.isfinite(smallest.plan1_time_s)

    def test_container_size_mild_effect_on_plan2(self):
        result = fig05_join_order.run()
        times = [
            p.plan2_time_s
            for p in result.container_size_sweep
            if math.isfinite(p.plan2_time_s)
        ]
        assert max(times) / min(times) < 1.1


class TestFig06:
    def test_either_implementation_can_be_cheaper(self):
        result = fig06_monetary.run()
        winners = {
            p.cheaper.value
            for p in (
                result.container_size_sweep
                + result.container_count_sweep
            )
            if math.isfinite(p.bhj_dollars)
        }
        assert len(winners) == 2


class TestFig07:
    def test_monetary_switch_varies(self):
        result = fig07_monetary_switch.run()
        switches = {
            entry.switch.switch_gb for entry in result.series.values()
        }
        assert len(switches) > 1


class TestFig09:
    def test_hive_surface_shape(self):
        result = fig09_switch_space.run(HIVE_PROFILE, resolution_gb=0.2)
        for curve in result.curves.values():
            switches = [p.switch_gb for p in curve]
            # Switch points rise with container size.
            assert switches == sorted(switches)

    def test_default_rule_way_off(self):
        result = fig09_switch_space.run(HIVE_PROFILE, resolution_gb=0.2)
        assert result.default_rule_error() > 1.0  # off by >1 GB

    def test_spark_range(self):
        result = fig09_switch_space.run(
            SPARK_PROFILE, resolution_gb=0.05
        )
        for curve in result.curves.values():
            for point in curve:
                assert 0.05 <= point.switch_gb <= 1.5


class TestFig10:
    def test_learned_threshold_matches_rule(self):
        result = fig10_default_trees.run()
        for engine in ("hive", "spark"):
            assert result.learned_thresholds_gb[engine] == (
                pytest.approx(0.010, rel=0.3)
            )
        assert "class=BHJ" in result.rendered["hive"]


class TestFig11:
    def test_hive_tree_quality(self):
        result = fig11_raqo_trees.run(HIVE_PROFILE)
        assert result.training_accuracy >= 0.95
        assert result.max_path_length <= 7
        assert result.num_samples > 500

    def test_spark_tree_quality(self):
        result = fig11_raqo_trees.run(SPARK_PROFILE)
        assert result.training_accuracy >= 0.95
        assert result.max_path_length <= 7


class TestFig13:
    def test_hill_climbing_reduces_iterations(self):
        result = fig13_hill_climbing.run(
            queries=(tpch.QUERY_Q12, tpch.QUERY_Q3)
        )
        for row in result.rows:
            assert row.iteration_reduction > 1.5
        assert result.mean_iteration_reduction > 2.0

    def test_empty_queries_rejected(self):
        with pytest.raises(ValueError, match="queries"):
            fig13_hill_climbing.run(queries=())
