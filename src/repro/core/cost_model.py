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
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

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

    def batch(
        self,
        small_gb: float,
        large_gb: float,
        container_gb: np.ndarray,
        num_containers: np.ndarray,
    ) -> np.ndarray:
        """The ``(N, F)`` feature matrix for N resource configurations.

        The transform runs once on whole arrays (the feature expressions
        are elementwise arithmetic, so numpy computes the same IEEE
        values as the scalar path). Transforms that are not
        numpy-compatible fall back to per-row evaluation.
        """
        cs = np.asarray(container_gb, dtype=float)
        nc = np.asarray(num_containers, dtype=float)
        try:
            values = self.transform(small_gb, large_gb, cs, nc)
            columns = [
                np.broadcast_to(np.asarray(v, dtype=float), cs.shape)
                for v in values
            ]
            return np.stack(columns, axis=1)
        except Exception:
            rows = [
                self.transform(small_gb, large_gb, float(c), float(n))
                for c, n in zip(cs, nc)
            ]
            return np.asarray(rows, dtype=float)

    def stacked(
        self,
        small_gbs: np.ndarray,
        large_gbs: np.ndarray,
        container_gb: np.ndarray,
        num_containers: np.ndarray,
    ) -> Tuple[np.ndarray, ...]:
        """Feature columns for M candidates x N configurations.

        Returns one ``(M, N)`` array per feature. The data axes enter as
        column vectors and the resource axes as row vectors, so the
        transform's elementwise arithmetic broadcasts to the full
        candidate-by-configuration plane without copying either axis --
        every candidate shares the same zero-copy grid arrays. Each lane
        runs the same IEEE operations as the scalar transform, so values
        are bit-identical to M separate :meth:`batch` calls.
        """
        ss = np.asarray(small_gbs, dtype=float)[:, None]
        ls = np.asarray(large_gbs, dtype=float)[:, None]
        cs = np.asarray(container_gb, dtype=float)[None, :]
        nc = np.asarray(num_containers, dtype=float)[None, :]
        shape = (ss.shape[0], cs.shape[1])
        values = self.transform(ss, ls, cs, nc)
        return tuple(
            np.broadcast_to(np.asarray(v, dtype=float), shape)
            for v in values
        )

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
        small_gb: GB,
        large_gb: GB,
        counts: np.ndarray,
        sizes: np.ndarray,
    ) -> np.ndarray:
        """Batched :meth:`predict` over a whole configuration grid.

        A handful of column-accumulated array operations replace N
        feature builds and dot products; each configuration's lane runs
        the same multiply-add sequence as :meth:`predict`, so the batch
        matches the scalar path value for value. NaN predictions surface
        as ``inf`` and the same positive floor is applied.

        Like :meth:`predict_grid_stacked`, it accumulates the feature
        values un-broadcast: data-only features stay scalars until the
        add, and no ``(N, F)`` feature matrix is built.
        """
        cs = np.asarray(sizes, dtype=float)
        nc = np.asarray(counts, dtype=float)
        try:
            values = self.feature_map.transform(small_gb, large_gb, cs, nc)
        except Exception:
            values = tuple(
                self.feature_map.batch(small_gb, large_gb, cs, nc).T
            )
        acc = np.zeros(cs.shape[0])
        for value, coefficient in zip(values, self.coefficients):
            acc += coefficient * np.asarray(value, dtype=float)
        raw = self.intercept + acc
        raw = np.where(np.isnan(raw), math.inf, raw)
        return np.maximum(raw, MIN_PREDICTED_TIME_S)

    def predict_grid_stacked(
        self,
        small_gbs: np.ndarray,
        large_gbs: np.ndarray,
        counts: np.ndarray,
        sizes: np.ndarray,
    ) -> np.ndarray:
        """:meth:`predict_grid` for M candidates at once: an ``(M, N)``
        matrix of predicted times.

        Row ``m`` accumulates the same coefficient-by-coefficient
        multiply-add sequence as ``predict_grid(small_gbs[m], ...)``, so
        each row is bit-identical to the per-candidate call. Transforms
        that reject 2-D inputs fall back to stacking per-candidate grid
        predictions.
        """
        small = np.asarray(small_gbs, dtype=float)
        large = np.asarray(large_gbs, dtype=float)
        if small.size == 0:
            return np.zeros((0, len(counts)))
        try:
            values = self.feature_map.transform(
                small[:, None],
                large[:, None],
                np.asarray(sizes, dtype=float)[None, :],
                np.asarray(counts, dtype=float)[None, :],
            )
        except Exception:
            return np.stack(
                [
                    self.predict_grid(
                        float(ss), float(ls), counts, sizes
                    )
                    for ss, ls in zip(small, large)
                ]
            )
        # Accumulate the un-broadcast feature values directly: the
        # scalar multiply runs on the small (M, 1) or (1, N) operand
        # and only the in-place add sweeps the full (M, N) plane. Each
        # lane still sees the exact `acc + coef * column` IEEE sequence
        # of the per-candidate path, at a fraction of the memory
        # traffic of materializing every broadcast column.
        acc = np.zeros((small.shape[0], len(counts)))
        for value, coefficient in zip(values, self.coefficients):
            acc += coefficient * np.asarray(value, dtype=float)
        raw = self.intercept + acc
        raw = np.where(np.isnan(raw), math.inf, raw)
        return np.maximum(raw, MIN_PREDICTED_TIME_S)

    def predict_rows(
        self,
        small_gbs: np.ndarray,
        large_gbs: np.ndarray,
        container_gb: np.ndarray,
        num_containers: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`predict` over N independent rows.

        Unlike :meth:`predict_grid_stacked` there is no cross product:
        row ``n`` pairs candidate ``n`` with *its own* configuration
        (the batched planner's per-winner recompute). The feature
        expressions are elementwise arithmetic and the accumulation
        runs coefficient by coefficient, so each lane performs exactly
        the IEEE operation sequence of the scalar call -- bit-identical
        results. Like :meth:`predict_grid_stacked`, the feature values
        are accumulated un-broadcast. Transforms that reject array
        inputs fall back to the per-row scalar path.
        """
        ss = np.asarray(small_gbs, dtype=float)
        ls = np.asarray(large_gbs, dtype=float)
        cs = np.asarray(container_gb, dtype=float)
        nc = np.asarray(num_containers, dtype=float)
        if ss.size == 0:
            return np.zeros(0)
        try:
            values = self.feature_map.transform(ss, ls, cs, nc)
        except Exception:
            return np.asarray(
                [
                    self.predict(
                        GB(float(s)),
                        GB(float(l)),
                        ResourceConfiguration(
                            num_containers=int(round(float(n))),
                            container_gb=float(c),
                        ),
                    )
                    for s, l, c, n in zip(ss, ls, cs, nc)
                ]
            )
        acc = np.zeros(ss.shape)
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
        small_gb: GB,
        large_gb: GB,
        grid: ConfigurationGrid,
    ) -> np.ndarray:
        """Predicted times for every configuration in a grid.

        The base implementation loops over :meth:`predict_time`, so any
        estimator supports the batched interface; subclasses override it
        with genuinely vectorized evaluations (one matmul for learned
        models, elementwise array math for the simulator oracle).
        """
        return np.fromiter(
            (
                self.predict_time(algorithm, small_gb, large_gb, config)
                for config in grid.configurations()
            ),
            dtype=float,
            count=grid.num_configs,
        )

    def predict_time_grid_batch(
        self,
        algorithm: JoinAlgorithm,
        small_gbs: np.ndarray,
        large_gbs: np.ndarray,
        grid: ConfigurationGrid,
    ) -> np.ndarray:
        """Predicted times for M candidates x every grid configuration.

        The base implementation stacks per-candidate
        :meth:`predict_time_grid` rows, so every estimator supports the
        batched planner path; :class:`CostModelSuite` overrides it with
        one stacked kernel evaluation for the whole ``(M, N)`` plane.
        Row ``m`` always equals ``predict_time_grid(algorithm,
        small_gbs[m], large_gbs[m], grid)`` bit for bit.
        """
        rows = [
            self.predict_time_grid(
                algorithm, float(ss), float(ls), grid
            )
            for ss, ls in zip(small_gbs, large_gbs)
        ]
        if not rows:
            return np.zeros((0, grid.num_configs))
        return np.stack(rows)

    def predict_time_rows(
        self,
        algorithm: JoinAlgorithm,
        small_gbs: np.ndarray,
        large_gbs: np.ndarray,
        container_gb: np.ndarray,
        num_containers: np.ndarray,
    ) -> np.ndarray:
        """Predicted times for N (candidate, configuration) pairs.

        Row ``n`` pairs ``small_gbs[n]``/``large_gbs[n]`` with its own
        configuration -- the batched kernel's per-winner recompute shape.
        The base implementation loops over :meth:`predict_time`;
        :class:`CostModelSuite` overrides it with one elementwise array
        evaluation. Row ``n`` always equals ``predict_time(algorithm,
        small_gbs[n], large_gbs[n], config_n)`` bit for bit.
        """
        return np.fromiter(
            (
                self.predict_time(
                    algorithm,
                    float(ss),
                    float(ls),
                    ResourceConfiguration(
                        num_containers=int(round(float(nc))),
                        container_gb=float(cs),
                    ),
                )
                for ss, ls, cs, nc in zip(
                    small_gbs, large_gbs, container_gb, num_containers
                )
            ),
            dtype=float,
            count=len(np.asarray(small_gbs)),
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
        small_gb: GB,
        large_gb: GB,
        grid: ConfigurationGrid,
    ) -> np.ndarray:
        """One batched model evaluation for the whole grid (plus the
        BHJ memory wall applied as a vector mask)."""
        times = self.models[algorithm].predict_grid(
            small_gb, large_gb, grid.counts, grid.sizes
        )
        if algorithm is JoinAlgorithm.BROADCAST_HASH:
            infeasible = small_gb > (
                self.hash_memory_fraction * grid.sizes
            )
            times = np.where(infeasible, math.inf, times)
        return times

    def predict_time_grid_batch(
        self,
        algorithm: JoinAlgorithm,
        small_gbs: np.ndarray,
        large_gbs: np.ndarray,
        grid: ConfigurationGrid,
    ) -> np.ndarray:
        """One stacked model evaluation for all M candidates x the grid.

        The BHJ memory wall broadcasts the same per-lane comparison as
        :meth:`predict_time_grid`, so rows stay bit-identical to the
        per-candidate calls.
        """
        small = np.asarray(small_gbs, dtype=float)
        large = np.asarray(large_gbs, dtype=float)
        times = self.models[algorithm].predict_grid_stacked(
            small, large, grid.counts, grid.sizes
        )
        if algorithm is JoinAlgorithm.BROADCAST_HASH and small.size:
            infeasible = small[:, None] > (
                self.hash_memory_fraction * grid.sizes
            )
            times = np.where(infeasible, math.inf, times)
        return times

    def predict_time_rows(
        self,
        algorithm: JoinAlgorithm,
        small_gbs: np.ndarray,
        large_gbs: np.ndarray,
        container_gb: np.ndarray,
        num_containers: np.ndarray,
    ) -> np.ndarray:
        """One elementwise model evaluation for all N winner rows.

        Applies the BHJ memory wall as the same per-lane comparison as
        :meth:`predict_time`, so rows stay bit-identical to per-winner
        scalar calls.
        """
        small = np.asarray(small_gbs, dtype=float)
        times = self.models[algorithm].predict_rows(
            small, large_gbs, container_gb, num_containers
        )
        if algorithm is JoinAlgorithm.BROADCAST_HASH and small.size:
            infeasible = small > (
                self.hash_memory_fraction
                * np.asarray(container_gb, dtype=float)
            )
            times = np.where(infeasible, math.inf, times)
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
        small_gb: GB,
        large_gb: GB,
        grid: ConfigurationGrid,
    ) -> np.ndarray:
        """Vectorized analytic oracle over the whole grid."""
        return join_time_grid(
            algorithm,
            small_gb,
            large_gb,
            grid.counts,
            grid.sizes,
            self.profile,
            num_reducers=self.num_reducers,
        )

    def model_key(self, algorithm: JoinAlgorithm) -> str:
        return f"simulator:{self.profile.name}:{algorithm.value}"
