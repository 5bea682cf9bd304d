"""Cluster conditions: the currently available resource envelope.

The RAQO optimizer "takes as input the declarative query and the current
cluster condition (through the RM)" (Sec IV). :class:`ClusterConditions`
captures what the resource planner needs: per-dimension minimum, maximum and
discrete step (Sec VII uses "a cluster of 100 containers each having a
maximum size of 10GB; minimum allocation is 1 container of size 1GB and
resources could be increased in discrete intervals of 1 on either axis").
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.cluster.containers import ResourceConfiguration, ResourceError


def _require_finite(fields: Tuple[Tuple[str, float], ...]) -> None:
    """Reject a NaN or infinite bound or step. NaN passes every ``<``
    and ``<=`` check, and either would make the grid's size fail to
    convert to an integer. ``abs`` keeps a huge int from overflowing a
    float conversion."""
    for name, value in fields:
        if value != value or abs(value) == math.inf:
            raise ResourceError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class ResourceDimension:
    """One hill-climbable resource axis with bounds and a discrete step."""

    name: str
    minimum: float
    maximum: float
    step: float

    def __post_init__(self) -> None:
        _require_finite(
            (
                (f"dimension {self.name!r} minimum", self.minimum),
                (f"dimension {self.name!r} maximum", self.maximum),
                (f"dimension {self.name!r} step", self.step),
            )
        )
        if self.step <= 0:
            raise ResourceError(
                f"dimension {self.name!r} step must be > 0, got {self.step}"
            )
        if self.minimum > self.maximum:
            raise ResourceError(
                f"dimension {self.name!r} has min {self.minimum} > max "
                f"{self.maximum}"
            )

    @functools.cached_property
    def num_values(self) -> int:
        """How many discrete values the dimension can take."""
        return int(np.floor((self.maximum - self.minimum) / self.step)) + 1

    def values(self) -> List[float]:
        """All discrete values from minimum to maximum inclusive."""
        return [
            self.minimum + i * self.step for i in range(self.num_values)
        ]

    @functools.cached_property
    def largest(self) -> float:
        """The last of :meth:`values`, by the same expression: the
        largest value on the grid, which is not :attr:`maximum` when
        that lies between two steps."""
        return self.minimum + (self.num_values - 1) * self.step

    def clamp(self, value: float) -> float:
        """Clip ``value`` into the dimension's bounds."""
        return min(max(value, self.minimum), self.maximum)

    def contains(self, value: float) -> bool:
        """True when ``value`` lies within the bounds (inclusive)."""
        return self.minimum <= value <= self.maximum

    def index_of(self, value: float) -> Optional[int]:
        """The position of ``value`` in :meth:`values`, or None when it
        is not exactly one of them."""
        index = int(round((value - self.minimum) / self.step))
        if 0 <= index < self.num_values and (
            self.minimum + index * self.step == value
        ):
            return index
        return None

    def is_step_exact(self) -> bool:
        """True when hill climbing's ``value +/- step`` moves, in the
        climb's own float arithmetic, walk :meth:`values` exactly.

        Every move from an entry must either land exactly on the
        neighbouring entry (and pass the bounds test) or, at either end,
        fail the bounds test. Undoing a probe is the opposite move, so
        it lands back on the entry too.
        """
        values = self.values()
        last = len(values) - 1
        for index, value in enumerate(values):
            for direction in (-1, 1):
                moved = value + self.step * float(direction)
                neighbour = index + direction
                if 0 <= neighbour <= last:
                    if moved != values[neighbour] or not self.contains(
                        moved
                    ):
                        return False
                elif self.contains(moved):
                    return False
        return True


@dataclass(frozen=True)
class ConfigurationGrid:
    """The full discrete configuration grid as parallel numpy arrays.

    Row ``i`` corresponds to the ``i``-th configuration yielded by
    :meth:`ClusterConditions.iter_configurations` -- the same enumeration
    order, so an argmin over batched costs breaks ties exactly like the
    scalar brute-force scan (first strictly-smaller cost wins).

    ``total_memory_gb`` is the per-configuration price basis: dollars for
    a duration are proportional to ``total_memory_gb * duration``.
    """

    counts: np.ndarray
    sizes: np.ndarray
    total_memory_gb: np.ndarray

    @property
    def num_configs(self) -> int:
        """Number of configurations (rows) in the grid."""
        return int(self.counts.shape[0])

    def config_at(self, index: int) -> ResourceConfiguration:
        """Materialise the configuration at one grid row."""
        return ResourceConfiguration(
            num_containers=int(round(float(self.counts[index]))),
            container_gb=float(self.sizes[index]),
        )

    def configurations(self) -> Iterator[ResourceConfiguration]:
        """Materialise every configuration in grid order."""
        for index in range(self.num_configs):
            yield self.config_at(index)


@functools.lru_cache(maxsize=256)
def _build_configuration_grid(
    cluster: "ClusterConditions",
) -> ConfigurationGrid:
    count_values = np.asarray(
        cluster.dimension("num_containers").values(), dtype=float
    )
    size_values = np.asarray(
        cluster.dimension("container_gb").values(), dtype=float
    )
    counts = np.repeat(count_values, size_values.shape[0])
    sizes = np.tile(size_values, count_values.shape[0])
    total = counts * sizes
    for array in (counts, sizes, total):
        array.setflags(write=False)
    return ConfigurationGrid(
        counts=counts, sizes=sizes, total_memory_gb=total
    )


@functools.lru_cache(maxsize=256)
def _grid_is_step_exact(cluster: "ClusterConditions") -> bool:
    return all(dim.is_step_exact() for dim in cluster.dimensions)


@dataclass(frozen=True, init=False)
class ClusterConditions:
    """The resource envelope the cluster currently offers a query.

    This is what the RM reports to RAQO: how many containers may be
    requested, how big each may be, and the granularity of both axes.

    All axes are keyword-only, like :class:`ResourceConfiguration`'s.
    """

    max_containers: int
    max_container_gb: float
    min_containers: int = 1
    min_container_gb: float = 1.0
    container_step: int = 1
    container_gb_step: float = 1.0

    def __init__(
        self,
        *,
        max_containers: int,
        max_container_gb: float,
        min_containers: int = 1,
        min_container_gb: float = 1.0,
        container_step: int = 1,
        container_gb_step: float = 1.0,
    ) -> None:
        object.__setattr__(self, "max_containers", max_containers)
        object.__setattr__(self, "max_container_gb", max_container_gb)
        object.__setattr__(self, "min_containers", min_containers)
        object.__setattr__(self, "min_container_gb", min_container_gb)
        object.__setattr__(self, "container_step", container_step)
        object.__setattr__(self, "container_gb_step", container_gb_step)
        self.__post_init__()

    def __post_init__(self) -> None:
        _require_finite(
            (
                ("max_containers", self.max_containers),
                ("max_container_gb", self.max_container_gb),
                ("min_containers", self.min_containers),
                ("min_container_gb", self.min_container_gb),
                ("container_step", self.container_step),
                ("container_gb_step", self.container_gb_step),
            )
        )
        if self.min_containers < 1:
            raise ResourceError(
                f"min_containers must be >= 1, got {self.min_containers}"
            )
        if self.max_containers < self.min_containers:
            raise ResourceError(
                "max_containers must be >= min_containers "
                f"({self.max_containers} < {self.min_containers})"
            )
        if self.min_container_gb <= 0:
            raise ResourceError(
                "min_container_gb must be > 0, got "
                f"{self.min_container_gb}"
            )
        if self.max_container_gb < self.min_container_gb:
            raise ResourceError(
                "max_container_gb must be >= min_container_gb "
                f"({self.max_container_gb} < {self.min_container_gb})"
            )
        if self.container_step < 1:
            raise ResourceError(
                f"container_step must be >= 1, got {self.container_step}"
            )
        if self.container_gb_step <= 0:
            raise ResourceError(
                "container_gb_step must be > 0, got "
                f"{self.container_gb_step}"
            )

    @functools.cached_property
    def dimensions(self) -> Tuple[ResourceDimension, ResourceDimension]:
        """The two resource axes in Algorithm 1 order.

        Built once per instance: axis lookups (``dimension``, ``clamp``)
        go through it. ``contains``, which every plan-cache hit calls,
        compares the fields the axes are built from instead (0.17 vs
        0.53 us a call).
        """
        return (
            ResourceDimension(
                name="num_containers",
                minimum=float(self.min_containers),
                maximum=float(self.max_containers),
                step=float(self.container_step),
            ),
            ResourceDimension(
                name="container_gb",
                minimum=self.min_container_gb,
                maximum=self.max_container_gb,
                step=self.container_gb_step,
            ),
        )

    def dimension(self, name: str) -> ResourceDimension:
        """Look one resource axis up by name.

        Callers that need a specific axis (e.g. the BHJ memory wall needs
        ``container_gb``) must use this instead of positional indexing so
        reordered or extended dimension lists cannot silently pick the
        wrong axis.
        """
        for dim in self.dimensions:
            if dim.name == name:
                return dim
        known = ", ".join(d.name for d in self.dimensions)
        raise ResourceError(
            f"unknown resource dimension {name!r} (known: {known})"
        )

    @property
    def step_sizes(self) -> Tuple[float, float]:
        """``GetDiscreteSteps(clusterCond)`` from Algorithm 1."""
        return (float(self.container_step), self.container_gb_step)

    @property
    def minimum_configuration(self) -> ResourceConfiguration:
        """Smallest allocatable configuration; hill climbing starts here."""
        return ResourceConfiguration(
            num_containers=self.min_containers,
            container_gb=self.min_container_gb,
        )

    @property
    def maximum_configuration(self) -> ResourceConfiguration:
        """Largest allocatable configuration."""
        return ResourceConfiguration(
            num_containers=self.max_containers,
            container_gb=self.max_container_gb,
        )

    @property
    def grid_size(self) -> int:
        """Total number of discrete resource configurations."""
        size = 1
        for dim in self.dimensions:
            size *= dim.num_values
        return size

    def contains(self, config: ResourceConfiguration) -> bool:
        """True when ``config`` lies within the envelope (the bounds of
        :attr:`dimensions`, read from the fields they are built from)."""
        return (
            self.min_containers <= config.num_containers <= self.max_containers
            and self.min_container_gb
            <= config.container_gb
            <= self.max_container_gb
        )

    def clamp(self, config: ResourceConfiguration) -> ResourceConfiguration:
        """Clip a configuration into the envelope."""
        return ResourceConfiguration(
            num_containers=int(
                self.dimension("num_containers").clamp(
                    float(config.num_containers)
                )
            ),
            container_gb=self.dimension("container_gb").clamp(
                config.container_gb
            ),
        )

    def iter_configurations(self) -> Iterator[ResourceConfiguration]:
        """Enumerate the full discrete grid (brute-force search space)."""
        for count, size in itertools.product(
            self.dimension("num_containers").values(),
            self.dimension("container_gb").values(),
        ):
            yield ResourceConfiguration(
                num_containers=int(count), container_gb=size
            )

    def config_grid(self) -> ConfigurationGrid:
        """The full discrete grid as cached numpy arrays.

        The grid is built once per distinct cluster condition (the class
        is a frozen value type, so equal conditions share one grid) and
        the arrays are read-only. This is the input of the vectorized
        resource-planning fast path: one batched cost-model call replaces
        ``grid_size`` scalar invocations.
        """
        return _build_configuration_grid(self)

    @property
    def step_exact(self) -> bool:
        """True when hill climbing from a grid point only ever visits
        grid points (:meth:`ResourceDimension.is_step_exact` on every
        axis), so a climb can be replayed over :meth:`config_grid`
        indices. Checked once per distinct cluster condition."""
        return _grid_is_step_exact(self)

    def scaled(
        self, max_containers: int, max_container_gb: float
    ) -> "ClusterConditions":
        """A copy with different maxima (for the Fig 15(b) scaling sweep)."""
        return ClusterConditions(
            max_containers=max_containers,
            max_container_gb=max_container_gb,
            min_containers=self.min_containers,
            min_container_gb=self.min_container_gb,
            container_step=self.container_step,
            container_gb_step=self.container_gb_step,
        )
