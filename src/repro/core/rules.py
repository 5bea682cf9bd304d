"""Rule-based RAQO: resource-aware join-implementation selection (Sec V).

Both Hive and Spark ship a *default* rule -- broadcast when the small
relation is under a 10 MB threshold (the trivial one-split trees of the
paper's Fig 10). Rule-based RAQO replaces it with a decision tree learned
over the data-resource space (Fig 11), traversed "using the current
cluster conditions ... and the resources available for the query"; the
leaf gives the implementation to use.

:func:`apply_rule_to_plan` plugs either rule into an existing query plan,
exactly how the paper suggests deploying it: "we still pick the join
operator implementations for each join operator in the query DAG
independently, however, we use the RAQO decision tree instead."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

import numpy as np

from repro.catalog.statistics import StatisticsEstimator
from repro.cluster.containers import ResourceConfiguration
from repro.core.decision_tree import DecisionTreeClassifier
from repro.core.switch_points import (
    LabeledSample,
    SwitchMetric,
    TREE_FEATURE_NAMES,
    labeled_samples,
)
from repro.engine.joins import JoinAlgorithm, default_num_reducers
from repro.engine.profiles import EngineProfile
from repro.planner.plan import JoinNode, PlanNode


class JoinSelectionRule(Protocol):
    """Anything that can pick a join implementation for an operator."""

    def choose(
        self,
        small_gb: float,
        large_gb: float,
        config: ResourceConfiguration,
        num_reducers: Optional[int] = None,
    ) -> JoinAlgorithm:
        """The implementation to use for this operator."""
        ...


@dataclass(frozen=True)
class DefaultThresholdRule:
    """The stock Hive/Spark rule: broadcast below a size threshold.

    Fig 10's "default decision trees": a single split on
    ``Data Size <= threshold``, resource-oblivious.
    """

    threshold_gb: float = 0.010

    def __post_init__(self) -> None:
        if self.threshold_gb <= 0:
            raise ValueError(
                f"threshold_gb must be > 0, got {self.threshold_gb}"
            )

    def choose(
        self,
        small_gb: float,
        large_gb: float,
        config: ResourceConfiguration,
        num_reducers: Optional[int] = None,
    ) -> JoinAlgorithm:
        """Broadcast iff the small relation is under the threshold."""
        if small_gb <= self.threshold_gb:
            return JoinAlgorithm.BROADCAST_HASH
        return JoinAlgorithm.SORT_MERGE

    def export_text(self) -> str:
        """Render the Fig 10 one-split tree."""
        threshold_mb = self.threshold_gb * 1024.0
        return "\n".join(
            (
                f"Data Size (MB) <= {threshold_mb:g} | samples=2 "
                "value=[1, 1] class=BHJ",
                "  True: gini=0.0 samples=1 value=[1, 0] class=BHJ",
                "  False: gini=0.0 samples=1 value=[0, 1] class=SMJ",
            )
        )


class RaqoDecisionTreeRule:
    """The learned, resource-aware rule of the paper's Fig 11."""

    def __init__(
        self,
        tree: DecisionTreeClassifier,
        profile: EngineProfile,
    ) -> None:
        self.tree = tree
        self.profile = profile

    @classmethod
    def train(
        cls,
        profile: EngineProfile,
        large_gb: float,
        data_sizes_gb: Sequence[float],
        container_sizes_gb: Sequence[float],
        container_counts: Sequence[int],
        reducer_settings: Sequence[Optional[int]] = (None,),
        metric: SwitchMetric = SwitchMetric.TIME,
        max_depth: Optional[int] = None,
    ) -> "RaqoDecisionTreeRule":
        """Label the data-resource grid and fit a CART tree on it."""
        samples = labeled_samples(
            profile,
            large_gb,
            data_sizes_gb,
            container_sizes_gb,
            container_counts,
            reducer_settings,
            metric,
        )
        return cls.from_samples(samples, profile, max_depth=max_depth)

    @classmethod
    def from_samples(
        cls,
        samples: Sequence[LabeledSample],
        profile: EngineProfile,
        max_depth: Optional[int] = None,
    ) -> "RaqoDecisionTreeRule":
        """Fit the rule from pre-labelled samples (e.g. workload traces)."""
        tree = DecisionTreeClassifier(max_depth=max_depth)
        tree.fit(
            [sample.features for sample in samples],
            [sample.label for sample in samples],
        )
        return cls(tree=tree, profile=profile)

    def choose(
        self,
        small_gb: float,
        large_gb: float,
        config: ResourceConfiguration,
        num_reducers: Optional[int] = None,
    ) -> JoinAlgorithm:
        """Traverse the tree with the current data and resources."""
        total = num_reducers or default_num_reducers(
            small_gb + large_gb, self.profile
        )
        label = self.tree.predict_one(
            (
                small_gb,
                config.container_gb,
                float(config.num_containers),
                float(total),
            )
        )
        if label == "BHJ":
            # Never recommend a broadcast that cannot fit in memory.
            wall = (
                self.profile.hash_memory_fraction * config.container_gb
            )
            if small_gb <= wall:
                return JoinAlgorithm.BROADCAST_HASH
        return JoinAlgorithm.SORT_MERGE

    def export_text(self) -> str:
        """Render the learned tree in the paper's Fig 11 style."""
        return self.tree.export_text(
            feature_names=TREE_FEATURE_NAMES,
            class_names=["BHJ", "SMJ"],
        )

    @property
    def max_path_length(self) -> int:
        """Longest decision path (paper: 6 for Hive, 7 for Spark)."""
        return self.tree.max_path_length()


def apply_rule_to_plan(
    plan: PlanNode,
    rule: JoinSelectionRule,
    estimator: StatisticsEstimator,
    config: ResourceConfiguration,
    num_reducers: Optional[int] = None,
) -> PlanNode:
    """Re-pick every join's implementation with ``rule``.

    The join order is left untouched; only operator implementations
    change, mirroring how the rule plugs into Hive/Spark.
    """

    def choose(join: JoinNode) -> JoinNode:
        small_gb, large_gb = estimator.join_io_gb(
            join.left.tables, join.right.tables
        )
        algorithm = rule.choose(
            small_gb, large_gb, config, num_reducers
        )
        return join.with_algorithm(algorithm)

    return plan.map_joins(choose)


class RuleBasedOptimizer:
    """Rule-based RAQO as it would deploy inside Hive or Spark.

    The engines keep their existing cost-based *join ordering* (driven
    by cardinalities) and apply a *rule* for each operator's
    implementation. This facade reproduces that split: a Selinger pass
    over the classic output-size metric fixes the order, then the
    supplied rule (the stock 10 MB threshold, or a learned RAQO tree)
    picks every join's implementation for the given resources.
    """

    def __init__(
        self,
        estimator: StatisticsEstimator,
        rule: JoinSelectionRule,
    ) -> None:
        self.estimator = estimator
        self.rule = rule

    def optimize(
        self,
        query: "Query",  # noqa: F821 - documented, imported lazily
        config: ResourceConfiguration,
        num_reducers: Optional[int] = None,
    ) -> PlanNode:
        """Order joins by cardinality, pick implementations by rule."""
        from repro.cluster.cluster import ClusterConditions
        from repro.planner.cost_interface import (
            BatchCostResult,
            Cost,
            PlanningContext,
        )
        from repro.planner.selinger import SelingerPlanner

        estimator = self.estimator
        if query.filters:
            estimator = estimator.with_filters(query.filter_factors)

        class _OutputSizeCoster:
            """The classic Cout metric the engines' CBO uses."""

            def join_cost(self, left, right, algorithm, context):
                stats = context.estimator.join_stats(left, right)
                return Cost(time_s=stats.size_gb, money=0.0), None

            def cost_batch(self, batch, context):
                sizes = np.array(
                    [
                        context.estimator.join_stats(left, right).size_gb
                        for left, right in zip(
                            batch.left_tables, batch.right_tables
                        )
                    ],
                    dtype=float,
                )
                return BatchCostResult(
                    time_s=sizes,
                    money=np.zeros(len(sizes)),
                    feasible=np.isfinite(sizes),
                    configs=(None,) * len(sizes),
                )

        context = PlanningContext(
            estimator=estimator,
            cluster=ClusterConditions(
                max_containers=config.num_containers,
                max_container_gb=config.container_gb,
            ),
        )
        ordered = SelingerPlanner(_OutputSizeCoster()).plan(
            query, context
        )
        return apply_rule_to_plan(
            ordered.plan, self.rule, estimator, config, num_reducers
        )
