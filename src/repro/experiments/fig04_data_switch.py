"""Fig 4: BHJ/SMJ switch points over varying data size in Hive.

(a) sweeping the smaller relation with 3 GB vs 9 GB containers at 10
concurrent containers: "the switch point between BHJ and SMJ with 3 GB
containers is at 3.4 GB of the orders's size (BHJ runs out of memory after
that), whereas the switch point shifts to 6.4 GB with 9 GB containers."

(b) sweeping the smaller relation with 10 vs 40 concurrent containers at
3 GB each. Note: the paper's prose for 4(b) (switch point *rising* with
more containers) contradicts its own Fig 3(b) and the Sec VI-A regression
signs (SMJ benefits more from parallelism); our simulator follows the
latter, so the 40-container switch point is *lower* -- see EXPERIMENTS.md.

"The switch points are not static and the optimizer has to be aware of
both the data statistics and the available resources."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.cluster.containers import ResourceConfiguration
from repro.core.switch_points import SwitchPoint, find_switch_point
from repro.engine.joins import bhj_execution, smj_execution
from repro.engine.profiles import EngineProfile, HIVE_PROFILE
from repro.experiments import workload
from repro.experiments.claims import EXACT, SHAPE, Claim, Figure, Table


@dataclass(frozen=True)
class DataSweepSeries:
    """SMJ/BHJ time curves over the data axis for one configuration."""

    config: ResourceConfiguration
    data_gb: Tuple[float, ...]
    smj_time_s: Tuple[float, ...]
    bhj_time_s: Tuple[float, ...]
    switch: SwitchPoint


@dataclass(frozen=True)
class DataSwitchResult:
    """The four Fig 4 series, keyed by a readable label."""

    series: Dict[str, DataSweepSeries]

    def switch_gb(self, label: str) -> float:
        """The switch point of one series."""
        return self.series[label].switch.switch_gb


def _sweep(
    config: ResourceConfiguration, profile: EngineProfile
) -> DataSweepSeries:
    smj_times = []
    bhj_times = []
    for data_gb in workload.DATA_SWEEP_GB:
        smj_times.append(
            smj_execution(
                data_gb, workload.LINEITEM_GB, config, profile
            ).time_s
        )
        bhj_times.append(
            bhj_execution(
                data_gb, workload.LINEITEM_GB, config, profile
            ).time_s
        )
    return DataSweepSeries(
        config=config,
        data_gb=workload.DATA_SWEEP_GB,
        smj_time_s=tuple(smj_times),
        bhj_time_s=tuple(bhj_times),
        switch=find_switch_point(
            profile, workload.LINEITEM_GB, config, resolution_gb=0.1
        ),
    )


def run(profile: EngineProfile = HIVE_PROFILE) -> DataSwitchResult:
    """Run all four Fig 4 sweeps."""
    configs = {
        "cs=3GB,nc=10": ResourceConfiguration(

            num_containers=10, container_gb=3.0

        ),
        "cs=9GB,nc=10": ResourceConfiguration(

            num_containers=10, container_gb=9.0

        ),
        "cs=3GB,nc=40": ResourceConfiguration(

            num_containers=40, container_gb=3.0

        ),
    }
    return DataSwitchResult(
        series={
            label: _sweep(config, profile)
            for label, config in configs.items()
        }
    )


def _series_table(label: str) -> Table:
    return Table(
        f"Fig 4 series {label}",
        ("smaller table (GB)", "SMJ (s)", "BHJ (s)"),
        lambda r: zip(
            r.series[label].data_gb,
            r.series[label].smj_time_s,
            r.series[label].bhj_time_s,
        ),
    )


FIGURE = Figure(
    "fig04",
    run,
    tables=tuple(
        _series_table(label)
        for label in ("cs=3GB,nc=10", "cs=9GB,nc=10", "cs=3GB,nc=40")
    )
    + (
        Table(
            "Fig 4: switch points",
            ("series", "switch (GB)", "OOM wall (GB)"),
            lambda r: [
                (label, s.switch.switch_gb, s.switch.wall_gb)
                for label, s in r.series.items()
            ],
        ),
    ),
    claims=(
        Claim(
            "fig04.switch_3gb", "(a) switch @ 3 GB containers (GB)",
            "3.4 GB (then OOM)", lambda r: r.switch_gb("cs=3GB,nc=10"),
            "[]", (3.3, 3.6), EXACT,
        ),
        Claim(
            "fig04.switch_9gb", "(a) switch @ 9 GB containers (GB)",
            "6.4 GB", lambda r: r.switch_gb("cs=9GB,nc=10"),
            "[]", (5.0, 7.0), EXACT,
        ),
        Claim(
            "fig04.switch_40_vs_10",
            "(b) switch @ 40 over @ 10 containers (3 GB each)",
            "2.1 -> 3.8 GB (rising)",
            lambda r: r.switch_gb("cs=3GB,nc=40")
            / r.switch_gb("cs=3GB,nc=10"),
            "<", 1.0, SHAPE,
        ),
    ),
)
