"""Fig 9: the space of BHJ/SMJ switch points in Hive and Spark.

"Figures 9(a) and 9(b) show the switch points in terms of size of the
smaller join relation between BHJ and SMJ in Hive and Spark over different
combinations of container size, number of containers, and number of
reducers ... for small relation sizes within the region below the
corresponding curve, we suggest choosing a BHJ, otherwise a SMJ."

Key observations reproduced: (i) optimizer choices change significantly
across the space, (ii) increasing the container size helps BHJ only up to
a point, and (iii) the default 10 MB rule is way off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.switch_points import SwitchPoint, switch_point_surface
from repro.engine.profiles import EngineProfile, HIVE_PROFILE, SPARK_PROFILE
from repro.experiments.claims import EXACT, SHAPE, Claim, Figure, Table

#: Container sizes swept for both engines (the paper's 3-11 GB x-axis).
CONTAINER_SIZES_GB = (3.0, 5.0, 7.0, 9.0, 11.0)

#: <#containers, #reducers> combinations, as in the paper's legends
#: (None = the engine's automatic reducer count, the "default").
HIVE_COMBOS: Tuple[Tuple[int, Optional[int]], ...] = (
    (5, 200),
    (5, 1000),
    (9, 200),
    (9, 1000),
    (10, None),
)
SPARK_COMBOS: Tuple[Tuple[int, Optional[int]], ...] = (
    (6, 200),
    (6, 1000),
    (10, 200),
    (10, 1000),
    (10, None),
)


@dataclass(frozen=True)
class SwitchSpaceResult:
    """Per-engine switch-point curves over container size."""

    engine: str
    large_gb: float
    #: (num_containers, num_reducers) -> ordered switch points.
    curves: Dict[Tuple[int, Optional[int]], Tuple[SwitchPoint, ...]]
    default_threshold_gb: float

    def default_rule_error(self) -> float:
        """How far (in GB) the 10 MB default rule is from the nearest
        real switch point -- the paper's observation (iii)."""
        gaps = [
            point.switch_gb - self.default_threshold_gb
            for curve in self.curves.values()
            for point in curve
        ]
        return min(gaps)


def run(
    profile: EngineProfile = HIVE_PROFILE,
    resolution_gb: float = 0.05,
) -> SwitchSpaceResult:
    """Compute the Fig 9 surface for one engine."""
    if profile.name == "spark":
        combos = SPARK_COMBOS
        large_gb = 10.0
    else:
        combos = HIVE_COMBOS
        large_gb = 77.0
    curves = {}
    for num_containers, num_reducers in combos:
        points = switch_point_surface(
            profile,
            large_gb,
            CONTAINER_SIZES_GB,
            [num_containers],
            [num_reducers],
            resolution_gb=resolution_gb,
        )
        curves[(num_containers, num_reducers)] = tuple(points)
    return SwitchSpaceResult(
        engine=profile.name,
        large_gb=large_gb,
        curves=curves,
        default_threshold_gb=profile.default_broadcast_threshold_gb,
    )


def _surface_table(index: int, engine: str, unit: str) -> Table:
    scale = 1.0 if unit == "GB" else 1024.0
    return Table(
        f"Fig 9 ({engine}): switch points over the data-resource space",
        ("<#containers,#reducers>",)
        + tuple(f"cs={int(cs)}GB ({unit})" for cs in CONTAINER_SIZES_GB),
        lambda results: [
            (f"<{nc},{nr if nr is not None else 'default'}>",)
            + tuple(round(p.switch_gb * scale, 2) for p in points)
            for (nc, nr), points in results[index].curves.items()
        ],
    )


def _switch_range_gb(result: SwitchSpaceResult) -> Tuple[float, float]:
    """The lowest and highest switch point anywhere on the surface."""
    switches = [p.switch_gb for c in result.curves.values() for p in c]
    return (min(switches), max(switches))


def _rises_with_container_size(result: SwitchSpaceResult) -> bool:
    return all(
        [p.switch_gb for p in curve] == sorted(p.switch_gb for p in curve)
        for curve in result.curves.values()
    )


FIGURE = Figure(
    "fig09",
    lambda: (run(HIVE_PROFILE), run(SPARK_PROFILE)),
    tables=(_surface_table(0, "hive", "GB"), _surface_table(1, "spark", "MB")),
    claims=(
        Claim(
            "fig09.hive_default_rule_gap",
            "10 MB default rule below every Hive switch point by (GB)",
            "way off", lambda r: r[0].default_rule_error(), ">", 1.0, EXACT,
        ),
        Claim(
            "fig09.spark_switch_range",
            "lowest and highest Spark switch point (GB)",
            "hundreds of MB", lambda r: _switch_range_gb(r[1]),
            "[]", (0.05, 1.5), EXACT,
        ),
        Claim(
            "fig09.hive_rises_with_container_size",
            "every Hive switch-point curve rises with container size", "yes",
            lambda r: _rises_with_container_size(r[0]), "==", True, SHAPE,
        ),
    ),
)
