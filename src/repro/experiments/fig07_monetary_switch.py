"""Fig 7: monetary switch points over varying data size in Hive.

The Fig 4 data sweeps priced in dollars: "the switch points for most cost
effective operator implementation vary both with the available resources
as well as the data. Thus ... query planning, without planning for
resources, could not only lead to poorer performance but also higher
monetary costs."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.cluster.containers import ResourceConfiguration
from repro.core.monetary import monetary_switch_point
from repro.core.switch_points import SwitchPoint
from repro.engine.joins import JoinAlgorithm
from repro.engine.profiles import EngineProfile, HIVE_PROFILE
from repro.experiments import workload
from repro.experiments.fig06_monetary import MonetaryComparison
from repro.core.monetary import compare_monetary
from repro.experiments.claims import EXACT, Claim, Figure, Table


@dataclass(frozen=True)
class MonetarySwitchSeries:
    """Dollar-cost curves over the data axis for one configuration."""

    config: ResourceConfiguration
    data_gb: Tuple[float, ...]
    comparisons: Tuple[MonetaryComparison, ...]
    switch: SwitchPoint


@dataclass(frozen=True)
class MonetarySwitchResult:
    """The Fig 7 series, keyed by a readable label."""

    series: Dict[str, MonetarySwitchSeries]


def run(
    profile: EngineProfile = HIVE_PROFILE,
) -> MonetarySwitchResult:
    """Sweep the data axis for each Fig 7 configuration."""
    configs = {
        "cs=3GB,nc=10": ResourceConfiguration(

            num_containers=10, container_gb=3.0

        ),
        "cs=9GB,nc=10": ResourceConfiguration(

            num_containers=10, container_gb=9.0

        ),
        "cs=3GB,nc=10cont": ResourceConfiguration(

            num_containers=10, container_gb=3.0

        ),
        "cs=3GB,nc=40": ResourceConfiguration(

            num_containers=40, container_gb=3.0

        ),
    }
    series = {}
    for label, config in configs.items():
        comparisons = tuple(
            compare_monetary(
                data_gb, workload.LINEITEM_GB, config, profile
            )
            for data_gb in workload.DATA_SWEEP_GB
        )
        series[label] = MonetarySwitchSeries(
            config=config,
            data_gb=workload.DATA_SWEEP_GB,
            comparisons=comparisons,
            switch=monetary_switch_point(
                profile,
                workload.LINEITEM_GB,
                config,
                resolution_gb=0.1,
            ),
        )
    return MonetarySwitchResult(series=series)


FIGURE = Figure(
    "fig07",
    run,
    tables=(
        Table(
            "Fig 7: monetary switch points over data size",
            (
                "configuration",
                "monetary switch (GB)",
                "OOM wall (GB)",
                "#points where BHJ cheaper",
            ),
            lambda r: [
                (
                    label,
                    entry.switch.switch_gb,
                    entry.switch.wall_gb,
                    sum(
                        1
                        for c in entry.comparisons
                        if c.cheaper is JoinAlgorithm.BROADCAST_HASH
                    ),
                )
                for label, entry in r.series.items()
            ],
        ),
    ),
    claims=(
        Claim(
            "fig07.distinct_switches",
            "distinct monetary switch points across configurations",
            "vary with resources",
            lambda r: len({e.switch.switch_gb for e in r.series.values()}),
            ">", 1, EXACT,
        ),
    ),
)
