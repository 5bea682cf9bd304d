"""Fig 10: the default decision trees for join selection in Hive & Spark.

Both engines ship a resource-oblivious rule -- broadcast when the small
relation is under 10 MB -- which renders as a single-split decision tree.
This driver also *learns* that tree with our CART classifier from samples
labelled by the default rule, verifying the classifier recovers the
threshold split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.cluster.containers import ResourceConfiguration
from repro.core.decision_tree import DecisionTreeClassifier
from repro.core.rules import DefaultThresholdRule
from repro.engine.joins import JoinAlgorithm
from repro.engine.profiles import EngineProfile, HIVE_PROFILE, SPARK_PROFILE
from repro.experiments.claims import EXACT, Claim, Figure, Table


@dataclass(frozen=True)
class DefaultTreeResult:
    """The rendered Fig 10 trees and the learned equivalents."""

    rendered: Dict[str, str]
    learned_thresholds_gb: Dict[str, float]


def learn_default_tree(
    profile: EngineProfile,
) -> DecisionTreeClassifier:
    """Fit CART on samples labelled by the engine's default rule."""
    rule = DefaultThresholdRule(profile.default_broadcast_threshold_gb)
    config = ResourceConfiguration(num_containers=10, container_gb=4.0)
    features = []
    labels = []
    for data_mb in (1, 2, 5, 8, 12, 20, 50, 200, 1000, 5000):
        data_gb = data_mb / 1024.0
        choice = rule.choose(data_gb, 77.0, config)
        features.append((data_gb,))
        labels.append(
            "BHJ" if choice is JoinAlgorithm.BROADCAST_HASH else "SMJ"
        )
    tree = DecisionTreeClassifier()
    tree.fit(features, labels)
    return tree


def run() -> DefaultTreeResult:
    """Render and re-learn the Fig 10 trees."""
    rendered = {}
    thresholds = {}
    for profile in (HIVE_PROFILE, SPARK_PROFILE):
        rule = DefaultThresholdRule(
            profile.default_broadcast_threshold_gb
        )
        rendered[profile.name] = rule.export_text()
        tree = learn_default_tree(profile)
        root = tree.root
        assert root is not None and root.threshold is not None
        thresholds[profile.name] = float(root.threshold)
    return DefaultTreeResult(
        rendered=rendered, learned_thresholds_gb=thresholds
    )


FIGURE = Figure(
    "fig10",
    run,
    tables=(
        Table(
            "Fig 10: default decision trees (engine rule: 10 MB)",
            ("engine", "rule", "learned threshold (MB)"),
            lambda r: [
                (
                    engine,
                    text.split(" |")[0],
                    r.learned_thresholds_gb[engine] * 1024,
                )
                for engine, text in r.rendered.items()
            ],
        ),
    ),
    claims=(
        Claim(
            "fig10.learned_threshold_gb",
            "CART threshold learned from the rule (GB; Hive, Spark)",
            "10 MB", lambda r: tuple(r.learned_thresholds_gb.values()),
            "[]", (0.007, 0.013), EXACT,
        ),
    ),
)
