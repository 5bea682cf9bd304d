"""Fig 11: the learned RAQO decision trees for Hive and Spark.

"We ran the decision tree classifier ... over the switch point results in
Figure 9, with two target classes namely SMJ and BHJ ... The RAQO trees
are a bit more complicated, i.e., they have more branching based on not
only the data sizes, but also the container sizes and the number of
containers ... maximum path length in the RAQO decision trees is 6 for
Hive and 7 for Spark."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.rules import RaqoDecisionTreeRule
from repro.core.switch_points import labeled_samples
from repro.engine.profiles import EngineProfile, HIVE_PROFILE, SPARK_PROFILE
from repro.experiments.claims import EXACT, Claim, Figure, Table

#: Training grids per engine: data sizes tuned to each engine's switch
#: range (GB for Hive, hundreds of MB for Spark).
HIVE_GRID = {
    "large_gb": 77.0,
    "data_sizes_gb": tuple(round(0.4 * i, 2) for i in range(1, 26)),
    "container_sizes_gb": (3.0, 5.0, 7.0, 9.0, 11.0),
    "container_counts": (5, 9, 10, 20, 40),
    "reducer_settings": (None, 200, 1000),
}
SPARK_GRID = {
    "large_gb": 10.0,
    "data_sizes_gb": tuple(round(0.05 * i, 2) for i in range(1, 31)),
    "container_sizes_gb": (3.0, 5.0, 7.0, 9.0, 11.0),
    "container_counts": (6, 10, 20, 40),
    "reducer_settings": (None, 200, 1000),
}


@dataclass(frozen=True)
class RaqoTreeResult:
    """One engine's learned RAQO tree plus its quality metrics."""

    engine: str
    rule: RaqoDecisionTreeRule
    num_samples: int
    training_accuracy: float
    max_path_length: int
    num_leaves: int


def run(
    profile: EngineProfile = HIVE_PROFILE,
    max_depth: Optional[int] = 7,
) -> RaqoTreeResult:
    """Train one engine's RAQO tree from its data-resource grid.

    ``max_depth`` bounds tree complexity the way the paper's pruning
    discussion anticipates (their path lengths were 6-7).
    """
    grid = SPARK_GRID if profile.name == "spark" else HIVE_GRID
    samples = labeled_samples(
        profile,
        grid["large_gb"],
        grid["data_sizes_gb"],
        grid["container_sizes_gb"],
        grid["container_counts"],
        grid["reducer_settings"],
    )
    rule = RaqoDecisionTreeRule.from_samples(
        samples, profile, max_depth=max_depth
    )
    accuracy = rule.tree.accuracy(
        [s.features for s in samples], [s.label for s in samples]
    )
    return RaqoTreeResult(
        engine=profile.name,
        rule=rule,
        num_samples=len(samples),
        training_accuracy=accuracy,
        max_path_length=rule.max_path_length,
        num_leaves=rule.tree.num_leaves,
    )


FIGURE = Figure(
    "fig11",
    lambda: (run(HIVE_PROFILE), run(SPARK_PROFILE)),
    tables=(
        Table(
            "Fig 11: RAQO decision trees (repro trees prints them)",
            ("engine", "samples", "accuracy", "max path length", "leaves"),
            lambda results: [
                (
                    r.engine,
                    r.num_samples,
                    r.training_accuracy,
                    r.max_path_length,
                    r.num_leaves,
                )
                for r in results
            ],
        ),
    ),
    claims=(
        Claim(
            "fig11.max_path_length", "max path length (Hive, Spark)",
            "6 (Hive), 7 (Spark)",
            lambda r: tuple(x.max_path_length for x in r), "<=", 7, EXACT,
        ),
        Claim(
            "fig11.accuracy", "training accuracy (Hive, Spark)", "n/a",
            lambda r: tuple(x.training_accuracy for x in r), ">=", 0.95,
            EXACT,
        ),
    ),
)
