"""Learned operator cost models: ``f(data, resources) -> cost``.

Sec VI-A: "we perform a regression analysis to learn the query costs as a
function of the input data and resources ... we trained linear regression
models for SMJ and BHJ using smaller input size (ss), container size (cs),
and the number of containers (nc) as features. We further augmented the
feature set with the following non-linear functions: ss^2, cs^2, nc^2, and
(cs*nc)."

Two feature maps are provided:

- ``PAPER_FEATURES`` -- exactly the paper's seven-feature vector
  ``[ss, ss^2, cs, cs^2, nc, nc^2, cs*nc]``. Faithful, but blind to the
  larger input's size (the paper profiled a single query where the large
  side was fixed).
- ``EXTENDED_FEATURES`` -- adds the larger input size and the dominant
  reciprocal-parallelism interactions (``ls, ls/nc, ss/nc, ss*nc``),
  which a planner costing *different* joins of a query needs. This is
  the default for the planning experiments and is documented as a
  necessary generalisation in EXPERIMENTS.md.

Models are ordinary least squares (the paper used sklearn's
``LinearRegression``; numpy's ``lstsq`` is the same estimator).
:class:`SimulatorCostModel` provides an oracle with the same interface,
backed directly by the engine simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.cluster.cluster import ConfigurationGrid
from repro.cluster.containers import ResourceConfiguration
from repro.core.units import GB, Seconds
from repro.engine.joins import JoinAlgorithm, join_execution, join_time_grid
from repro.engine.profiler import ProfileSample
from repro.engine.profiles import EngineProfile

#: Predictions are clipped below this floor: a linear model extrapolating
#: far from its training grid can go negative, which would break planners.
MIN_PREDICTED_TIME_S = 1e-3

#: One input size, or an array of them (the grid methods' data axes).
Sizes = Union[GB, np.ndarray]


def _per_pair(
    small_gb: Sizes,
    large_gb: Sizes,
    num_configs: int,
    row: Callable[[GB, GB], Iterable[float]],
) -> np.ndarray:
    """``row(ss, ls)``, the times of one size pair at N configurations,
    for one pair or each pair of equal-shape arrays, stacked into their
    shape plus a trailing axis of N."""
    small = np.asarray(small_gb, dtype=float)
    large = np.asarray(large_gb, dtype=float)
    rows = [
        row(GB(ss), GB(ls))
        for ss, ls in zip(small.ravel().tolist(), large.ravel().tolist())
    ]
    return np.array(rows, dtype=float).reshape(small.shape + (num_configs,))


@dataclass(frozen=True)
class FeatureMap:
    """A named feature transform over (ss, ls, cs, nc)."""

    name: str
    feature_names: Tuple[str, ...]
    transform: Callable[[float, float, float, float], Tuple[float, ...]]

    def __call__(
        self, small_gb: GB, large_gb: GB, config: ResourceConfiguration
    ) -> np.ndarray:
        values = self.transform(
            small_gb,
            large_gb,
            config.container_gb,
            float(config.num_containers),
        )
        return np.asarray(values, dtype=float)

    def __len__(self) -> int:
        return len(self.feature_names)


def _paper_transform(
    ss: float, ls: float, cs: float, nc: float
) -> Tuple[float, ...]:
    return (ss, ss * ss, cs, cs * cs, nc, nc * nc, cs * nc)


def _extended_transform(
    ss: float, ls: float, cs: float, nc: float
) -> Tuple[float, ...]:
    return (
        ss,
        ss * ss,
        cs,
        cs * cs,
        nc,
        nc * nc,
        cs * nc,
        ls,
        ls / nc,
        ss / nc,
        ss * nc,
    )


#: The paper's exact feature vector (Sec VI-A).
PAPER_FEATURES = FeatureMap(
    name="paper7",
    feature_names=("ss", "ss^2", "cs", "cs^2", "nc", "nc^2", "cs*nc"),
    transform=_paper_transform,
)

#: Generalised features for planning arbitrary joins (see module doc).
EXTENDED_FEATURES = FeatureMap(
    name="extended",
    feature_names=(
        "ss",
        "ss^2",
        "cs",
        "cs^2",
        "nc",
        "nc^2",
        "cs*nc",
        "ls",
        "ls/nc",
        "ss/nc",
        "ss*nc",
    ),
    transform=_extended_transform,
)


@dataclass(frozen=True)
class OperatorCostModel:
    """A fitted linear model predicting one operator's execution time."""

    algorithm: JoinAlgorithm
    feature_map: FeatureMap
    coefficients: Tuple[float, ...]
    intercept: float

    def __post_init__(self) -> None:
        if len(self.coefficients) != len(self.feature_map):
            raise ValueError(
                f"{self.algorithm} model: expected "
                f"{len(self.feature_map)} coefficients, got "
                f"{len(self.coefficients)}"
            )

    def predict(
        self,
        small_gb: GB,
        large_gb: GB,
        config: ResourceConfiguration,
    ) -> Seconds:
        """Predicted execution time in seconds (clipped positive).

        Non-finite predictions (overflowing extrapolations, corrupted
        coefficients) surface as infinity, which planners already treat
        as "infeasible" -- they must never be silently compared as NaN.

        The dot product is accumulated feature by feature (not through
        BLAS): :meth:`predict_grid` accumulates its per-configuration
        lanes in exactly the same order, which is what makes the two
        paths bit-identical (BLAS dot vs matmul kernels can differ by
        ULPs, enough to flip argmin tie-breaks). The transform runs on
        the Python floats themselves: ``float`` of each feature is the
        value :class:`FeatureMap` would store in its array, without
        building one.
        """
        features = self.feature_map.transform(
            small_gb,
            large_gb,
            config.container_gb,
            float(config.num_containers),
        )
        acc = 0.0
        for coefficient, feature in zip(
            self.coefficients, map(float, features)
        ):
            acc = acc + coefficient * feature
        raw = self.intercept + acc
        if math.isnan(raw):
            return Seconds(math.inf)
        return Seconds(max(raw, MIN_PREDICTED_TIME_S))

    def predict_grid(
        self,
        small_gb: Sizes,
        large_gb: Sizes,
        counts: np.ndarray,
        sizes: np.ndarray,
    ) -> np.ndarray:
        """:meth:`predict` for size pairs x N configurations.

        ``small_gb``/``large_gb`` are one size pair or equal-shape arrays
        of them; the result has their shape plus a trailing axis of the N
        configurations. Arrays of pairs enter the transform with a unit
        axis appended and the resource axes as row vectors, so its
        elementwise arithmetic broadcasts to the whole plane without
        copying either axis. The feature values are accumulated
        un-broadcast, coefficient by coefficient in :meth:`predict`'s
        order: each lane runs the scalar call's IEEE operations and
        equals it bit for bit, NaN surfacing as ``inf`` and the same
        positive floor applied. Transforms that reject arrays (a
        ``TypeError`` or ``ValueError``, as ``math`` functions and
        ``if`` tests on arrays raise) fall back to looping
        :meth:`predict`.
        """
        cs = np.asarray(sizes, dtype=float)
        nc = np.asarray(counts, dtype=float)
        # One pair enters as given, so its data-only features skip
        # numpy's per-call overhead (the same IEEE values either way).
        ss, ls, shape = small_gb, large_gb, cs.shape
        if isinstance(small_gb, np.ndarray):
            ss = np.asarray(small_gb, dtype=float)[..., None]
            ls = np.asarray(large_gb, dtype=float)[..., None]
            shape = small_gb.shape + shape
        try:
            values = self.feature_map.transform(ss, ls, cs, nc)
        except (TypeError, ValueError):
            configs = [
                ResourceConfiguration(
                    num_containers=int(round(n)), container_gb=c
                )
                for n, c in zip(nc.tolist(), cs.tolist())
            ]
            return _per_pair(
                small_gb,
                large_gb,
                len(configs),
                lambda small, large: [
                    self.predict(small, large, c) for c in configs
                ],
            )
        acc = np.zeros(shape)
        for value, coefficient in zip(values, self.coefficients):
            acc += coefficient * np.asarray(value, dtype=float)
        raw = self.intercept + acc
        raw = np.where(np.isnan(raw), math.inf, raw)
        return np.maximum(raw, MIN_PREDICTED_TIME_S)

    @classmethod
    def fit(
        cls,
        algorithm: JoinAlgorithm,
        samples: Sequence[ProfileSample],
        feature_map: FeatureMap = EXTENDED_FEATURES,
    ) -> "OperatorCostModel":
        """Ordinary least squares over feasible profile runs."""
        usable = [
            s for s in samples if s.algorithm is algorithm and s.feasible
        ]
        if len(usable) < len(feature_map) + 1:
            raise ValueError(
                f"need at least {len(feature_map) + 1} samples to fit "
                f"the {algorithm} model, got {len(usable)}"
            )
        rows = []
        targets = []
        for sample in usable:
            config = ResourceConfiguration(
                num_containers=sample.num_containers,
                container_gb=sample.container_gb,
            )
            features = feature_map(
                GB(sample.small_gb), GB(sample.large_gb), config
            )
            rows.append(np.concatenate(([1.0], features)))
            targets.append(sample.time_s)
        design = np.vstack(rows)
        y = np.asarray(targets)
        solution, *_ = np.linalg.lstsq(design, y, rcond=None)
        return cls(
            algorithm=algorithm,
            feature_map=feature_map,
            coefficients=tuple(float(c) for c in solution[1:]),
            intercept=float(solution[0]),
        )

    def r_squared(self, samples: Sequence[ProfileSample]) -> float:
        """Coefficient of determination on a sample set."""
        usable = [
            s
            for s in samples
            if s.algorithm is self.algorithm and s.feasible
        ]
        if not usable:
            raise ValueError("no usable samples")
        predictions = []
        actuals = []
        for sample in usable:
            config = ResourceConfiguration(
                num_containers=sample.num_containers,
                container_gb=sample.container_gb,
            )
            predictions.append(
                self.predict(
                    GB(sample.small_gb), GB(sample.large_gb), config
                )
            )
            actuals.append(sample.time_s)
        predicted = np.asarray(predictions)
        actual = np.asarray(actuals)
        residual = float(np.sum((actual - predicted) ** 2))
        total = float(np.sum((actual - actual.mean()) ** 2))
        if total == 0:
            return 1.0 if residual == 0 else 0.0
        return 1.0 - residual / total


class JoinCostEstimator:
    """Interface shared by learned suites and the simulator oracle."""

    #: BHJ is infeasible when ss exceeds this fraction of the container.
    hash_memory_fraction: float

    def predict_time(
        self,
        algorithm: JoinAlgorithm,
        small_gb: GB,
        large_gb: GB,
        config: ResourceConfiguration,
    ) -> Seconds:
        """Predicted execution time; ``inf`` when infeasible."""
        raise NotImplementedError

    def predict_time_grid(
        self,
        algorithm: JoinAlgorithm,
        small_gb: Sizes,
        large_gb: Sizes,
        grid: ConfigurationGrid,
    ) -> np.ndarray:
        """Predicted times for one size pair, or equal-shape arrays of
        them, at every configuration of a grid: their shape plus a
        trailing axis of ``grid.num_configs``.

        Lane ``[..., k]`` equals :meth:`predict_time` at
        ``grid.config_at(k)`` bit for bit. The base implementation loops
        over :meth:`predict_time`, so any estimator supports the grid
        interface; subclasses override it with vectorized evaluations
        (one broadcast model evaluation for learned models, elementwise
        array math for the simulator oracle).
        """
        configs = list(grid.configurations())
        return _per_pair(
            small_gb,
            large_gb,
            grid.num_configs,
            lambda ss, ls: [
                self.predict_time(algorithm, ss, ls, c) for c in configs
            ],
        )

    def bhj_feasible(
        self, small_gb: GB, config: ResourceConfiguration
    ) -> bool:
        """The broadcast-fits-in-memory wall (Sec VIII: "a broadcast join
        requires one relation to fit in memory")."""
        return small_gb <= self.hash_memory_fraction * config.container_gb

    def model_key(self, algorithm: JoinAlgorithm) -> str:
        """Stable identifier for resource-plan-cache partitioning."""
        return f"{type(self).__name__}:{algorithm.value}"


class CostModelSuite(JoinCostEstimator):
    """One learned :class:`OperatorCostModel` per join implementation."""

    def __init__(
        self,
        models: Dict[JoinAlgorithm, OperatorCostModel],
        hash_memory_fraction: float,
    ) -> None:
        missing = [a for a in JoinAlgorithm if a not in models]
        if missing:
            raise ValueError(f"missing models for {missing}")
        if hash_memory_fraction <= 0:
            raise ValueError(
                "hash_memory_fraction must be > 0, got "
                f"{hash_memory_fraction}"
            )
        self.models = dict(models)
        self.hash_memory_fraction = hash_memory_fraction

    def predict_time(
        self,
        algorithm: JoinAlgorithm,
        small_gb: GB,
        large_gb: GB,
        config: ResourceConfiguration,
    ) -> Seconds:
        if algorithm is JoinAlgorithm.BROADCAST_HASH and not (
            self.bhj_feasible(small_gb, config)
        ):
            return math.inf
        return self.models[algorithm].predict(small_gb, large_gb, config)

    def predict_time_grid(
        self,
        algorithm: JoinAlgorithm,
        small_gb: Sizes,
        large_gb: Sizes,
        grid: ConfigurationGrid,
    ) -> np.ndarray:
        """One model evaluation over the sizes x the grid, then the BHJ
        memory wall as :meth:`bhj_feasible`'s comparison, per lane."""
        times = self.models[algorithm].predict_grid(
            small_gb, large_gb, grid.counts, grid.sizes
        )
        if algorithm is JoinAlgorithm.BROADCAST_HASH:
            small = small_gb
            if isinstance(small_gb, np.ndarray):
                small = small_gb[..., None]
            feasible = small <= self.hash_memory_fraction * grid.sizes
            times = np.where(feasible, times, math.inf)
        return times

    @classmethod
    def train(
        cls,
        samples: Iterable[ProfileSample],
        hash_memory_fraction: float,
        feature_map: FeatureMap = EXTENDED_FEATURES,
    ) -> "CostModelSuite":
        """Fit one model per implementation from profile runs."""
        sample_list = list(samples)
        models = {
            algorithm: OperatorCostModel.fit(
                algorithm, sample_list, feature_map
            )
            for algorithm in JoinAlgorithm
        }
        return cls(models, hash_memory_fraction)

    @classmethod
    def train_from_profile(
        cls,
        profile: EngineProfile,
        feature_map: FeatureMap = EXTENDED_FEATURES,
        large_gb: GB = GB(77.0),
    ) -> "CostModelSuite":
        """Profile the engine simulator and fit (the paper's workflow)."""
        from repro.engine.profiler import default_training_grid

        samples = default_training_grid(profile, large_gb=large_gb)
        return cls.train(
            samples, profile.hash_memory_fraction, feature_map
        )


class SimulatorCostModel(JoinCostEstimator):
    """An oracle estimator backed directly by the engine simulator.

    Useful to separate planner-quality questions from cost-model-quality
    questions (the paper's Sec VI-A notes model tuning is orthogonal).
    """

    def __init__(
        self,
        profile: EngineProfile,
        num_reducers: Optional[int] = None,
    ) -> None:
        self.profile = profile
        self.num_reducers = num_reducers
        self.hash_memory_fraction = profile.hash_memory_fraction

    def predict_time(
        self,
        algorithm: JoinAlgorithm,
        small_gb: GB,
        large_gb: GB,
        config: ResourceConfiguration,
    ) -> Seconds:
        execution = join_execution(
            algorithm,
            small_gb,
            large_gb,
            config,
            self.profile,
            num_reducers=self.num_reducers,
        )
        return Seconds(execution.time_s)

    def predict_time_grid(
        self,
        algorithm: JoinAlgorithm,
        small_gb: Sizes,
        large_gb: Sizes,
        grid: ConfigurationGrid,
    ) -> np.ndarray:
        """Vectorized analytic oracle over the whole grid, one size pair
        at a time."""
        return _per_pair(
            small_gb,
            large_gb,
            grid.num_configs,
            lambda ss, ls: join_time_grid(
                algorithm,
                ss,
                ls,
                grid.counts,
                grid.sizes,
                self.profile,
                num_reducers=self.num_reducers,
            ),
        )

    def model_key(self, algorithm: JoinAlgorithm) -> str:
        return f"simulator:{self.profile.name}:{algorithm.value}"
