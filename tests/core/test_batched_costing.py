"""The stacked (batch x grid) costing kernel vs per-candidate rows.

``predict_time_grid`` over arrays of size pairs powers the
lattice-level batched planner: one broadcasted numpy evaluation over
(candidates x resource configurations). Because the stacked call
accumulates features in the same order as a one-pair call, every row
must be *bit-identical* (every float equal, including non-finite
structure) to its per-candidate counterpart.
"""

import numpy as np
import pytest

from repro.catalog import tpch
from repro.cluster.cluster import ClusterConditions
from repro.core.cost_model import SimulatorCostModel
from repro.core.raqo import (
    RaqoPlanner,
    ResourcePlanningMethod,
    default_cost_model,
)
from repro.engine.joins import JoinAlgorithm
from repro.engine.profiles import HIVE_PROFILE
from repro.planner.plan import ALGORITHM_CODES, CandidateBatch


@pytest.fixture(scope="module")
def model():
    return default_cost_model()


@pytest.fixture(scope="module")
def grid():
    return ClusterConditions(
        max_containers=20, max_container_gb=8.0
    ).config_grid()


class TestStackedKernel:
    @pytest.mark.parametrize("algorithm", list(JoinAlgorithm))
    def test_rows_bitwise_equal_scalar_grid(self, model, grid, algorithm):
        rng = np.random.default_rng(17)
        small = rng.uniform(0.01, 40.0, size=32)
        large = small + rng.uniform(0.0, 60.0, size=32)
        batch = model.predict_time_grid(
            algorithm, small, large, grid
        )
        assert batch.shape == (32, grid.num_configs)
        for row, (ss, ls) in enumerate(zip(small, large)):
            scalar = model.predict_time_grid(
                algorithm, float(ss), float(ls), grid
            )
            np.testing.assert_array_equal(batch[row], scalar)

    @pytest.mark.parametrize("algorithm", list(JoinAlgorithm))
    def test_empty_batch(self, model, grid, algorithm):
        batch = model.predict_time_grid(
            algorithm, np.empty(0), np.empty(0), grid
        )
        assert batch.shape == (0, grid.num_configs)

    def test_bhj_infeasibility_mask_matches_scalar(self, model, grid):
        """Rows where the build side exceeds hash memory go to inf in
        exactly the configurations the scalar path marks."""
        small = np.array([0.01, 5.0, 200.0])
        large = np.array([10.0, 50.0, 400.0])
        batch = model.predict_time_grid(
            JoinAlgorithm.BROADCAST_HASH, small, large, grid
        )
        for row in range(3):
            scalar = model.predict_time_grid(
                JoinAlgorithm.BROADCAST_HASH,
                float(small[row]),
                float(large[row]),
                grid,
            )
            np.testing.assert_array_equal(
                np.isinf(batch[row]), np.isinf(scalar)
            )


class TestRowsKernel:
    """The stacked kernel's winner read: each candidate's time at its
    own configuration is its lane ``times[row, pick]``, which must
    equal the scalar ``predict_time`` there."""

    @pytest.mark.parametrize("algorithm", list(JoinAlgorithm))
    @pytest.mark.parametrize("estimator", ["learned", "simulator"])
    def test_lanes_bitwise_equal_scalar(
        self, model, grid, algorithm, estimator
    ):
        if estimator == "simulator":
            model = SimulatorCostModel(HIVE_PROFILE)
        rng = np.random.default_rng(23)
        small = rng.uniform(0.01, 40.0, size=48)
        large = small + rng.uniform(0.0, 60.0, size=48)
        picks = rng.integers(0, grid.num_configs, size=48)
        times = model.predict_time_grid(algorithm, small, large, grid)
        rows = times[np.arange(48), picks]
        scalar = [
            model.predict_time(
                algorithm, float(ss), float(ls), grid.config_at(int(k))
            )
            for ss, ls, k in zip(small, large, picks)
        ]
        assert [t.hex() for t in rows.tolist()] == [
            float(t).hex() for t in scalar
        ]
        if algorithm is JoinAlgorithm.BROADCAST_HASH:
            assert np.isinf(rows).any() and np.isfinite(rows).any()


class TestCandidateBatch:
    def test_build_derives_sizes_and_codes(self):
        catalog = tpch.tpch_catalog(100)
        planner = RaqoPlanner(
            catalog, resource_method=ResourcePlanningMethod.BRUTE_FORCE
        )
        context = planner.make_context()
        left = frozenset({"orders"})
        right = frozenset({"lineitem"})
        candidates = [
            (left, right, algorithm) for algorithm in JoinAlgorithm
        ]
        batch = CandidateBatch.build(candidates, context.join_io_gb)
        assert len(batch) == len(list(JoinAlgorithm))
        small, large = context.join_io_gb(left, right)
        np.testing.assert_array_equal(
            batch.small_gb, np.full(len(batch), small)
        )
        np.testing.assert_array_equal(
            batch.large_gb, np.full(len(batch), large)
        )
        assert list(batch.algorithm_codes) == [
            ALGORITHM_CODES[a] for a in JoinAlgorithm
        ]
        assert batch.algorithms == tuple(JoinAlgorithm)

    def test_algorithm_codes_are_read_only(self):
        with pytest.raises(TypeError):
            ALGORITHM_CODES[JoinAlgorithm.SORT_MERGE] = 99
