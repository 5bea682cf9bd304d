"""The left-deep and bushy DPs over table bit masks.

Both planners enumerate a query's subsets as int masks whose bit ``i``
is the ``i``-th table name in sorted order, so they meet candidates in
the order of the frozenset DPs they replaced
(``FrozensetSelingerPlanner`` / ``FrozensetBushyPlanner`` in
``tests/scalar_reference.py``). Champion ties are broken by that order,
so every ``cost_batch`` call must receive the same candidates, sizes
and all, as the frozenset DP's. The second half drives hostile queries
through :class:`~repro.api.RaqoSession`: each ends in a typed error or
a plan that passes ``validate_plan``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.plan_checks import validate_plan
from repro.api import RaqoSession
from repro.catalog.join_graph import JoinEdge, JoinGraph
from repro.catalog.queries import Query, QueryError
from repro.catalog.schema import Catalog, Schema, Table
from repro.core.raqo import RaqoPlanner, ResourcePlanningMethod
from repro.planner.bushy import BushyPlanner
from repro.planner.cost_interface import BatchCostResult, ZERO_COST
from repro.planner.plan import ScanNode, plan_signature
from repro.planner.selinger import PlanningError, SelingerPlanner
from scalar_reference import FrozensetBushyPlanner, FrozensetSelingerPlanner

NAME_LETTERS = "abcdefghij"


@st.composite
def shuffled_catalogs(draw):
    """A connected random schema of 1-10 tables whose join edges are
    added in shuffled order, so the join graph's bits (first
    appearance) follow neither the table list nor sorted names."""
    count = draw(st.integers(min_value=1, max_value=10))
    names = draw(
        st.lists(
            st.text(NAME_LETTERS, min_size=1, max_size=3),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    rows = draw(
        st.lists(
            st.integers(min_value=1_000, max_value=50_000_000),
            min_size=count,
            max_size=count,
        )
    )
    order = draw(st.permutations(range(count)))
    pairs = set()
    # A random spanning tree keeps every subset query connected.
    for index in range(1, count):
        other = draw(st.integers(min_value=0, max_value=index - 1))
        pairs.add(tuple(sorted((order[index], order[other]))))
    for left, right in draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=count - 1),
                st.integers(min_value=0, max_value=count - 1),
            ),
            max_size=3,
        )
    ):
        if left != right:
            pairs.add(tuple(sorted((left, right))))
    graph = JoinGraph()
    for left, right in draw(st.permutations(sorted(pairs))):
        graph.add_edge(
            JoinEdge(
                left=names[left],
                right=names[right],
                selectivity=1.0 / max(rows[left], rows[right]),
            )
        )
    schema = Schema(
        name=f"shuffled-{count}",
        tables=[
            Table(name=name, row_count=row_count, row_width_bytes=120)
            for name, row_count in zip(names, rows)
        ],
    )
    return Catalog(schema=schema, join_graph=graph)


class RecordingCoster:
    """Delegates to a real coster and records what each ``cost_batch``
    call receives."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def join_cost(self, left_tables, right_tables, algorithm, context):
        return self.inner.join_cost(
            left_tables, right_tables, algorithm, context
        )

    def cost_batch(self, batch, context):
        self.calls.append(
            [
                (left, right, algorithm, small.hex(), large.hex())
                for left, right, algorithm, small, large in zip(
                    batch.left_tables,
                    batch.right_tables,
                    batch.algorithms,
                    batch.small_gb.tolist(),
                    batch.large_gb.tolist(),
                )
            ]
        )
        return self.inner.cost_batch(batch, context)


def _record(planner_class, catalog, query, method):
    """Plan ``query`` on a fresh RAQO planner whose query planner is a
    ``planner_class`` behind a recording coster."""
    raqo = RaqoPlanner(catalog, resource_method=method)
    coster = RecordingCoster(raqo.coster)
    raqo.query_planner = planner_class(coster)
    result = raqo.optimize(query)
    return coster.calls, (
        plan_signature(result.plan),
        result.cost.time_s.hex(),
        result.cost.money.hex(),
    )


class TestCandidateOrder:
    @pytest.mark.parametrize(
        "method",
        [
            ResourcePlanningMethod.HILL_CLIMB,
            ResourcePlanningMethod.BRUTE_FORCE,
        ],
    )
    @pytest.mark.parametrize(
        "planner_class, reference_class",
        [
            (SelingerPlanner, FrozensetSelingerPlanner),
            (BushyPlanner, FrozensetBushyPlanner),
        ],
    )
    @given(catalog=shuffled_catalogs())
    @settings(max_examples=25, deadline=None)
    def test_property_batches_match_frozenset_dp(
        self, planner_class, reference_class, method, catalog
    ):
        query = Query("q", tuple(catalog.table_names))
        calls, outcome = _record(planner_class, catalog, query, method)
        reference_calls, reference_outcome = _record(
            reference_class, catalog, query, method
        )
        assert len(calls) == len(reference_calls)
        for call, reference_call in zip(calls, reference_calls):
            assert call == reference_call
        assert outcome == reference_outcome


class InfeasibleLevelCoster:
    """Prices every candidate joining ``tables`` relations in all as
    infeasible, and every other candidate at one second."""

    def __init__(self, tables):
        self.tables = tables

    def cost_batch(self, batch, context):
        context.counters.batched_calls += 1
        times = np.array(
            [
                math.inf if len(left) + len(right) == self.tables else 1.0
                for left, right in zip(batch.left_tables, batch.right_tables)
            ]
        )
        return BatchCostResult(
            time_s=times,
            money=times.copy(),
            feasible=np.isfinite(times),
            configs=(None,) * len(batch),
        )


def _island_catalog(tpch_catalog):
    """TPC-H plus a table with no join edge."""
    schema = Schema(
        name="tpch-island",
        tables=[tpch_catalog.table(name) for name in tpch_catalog.table_names]
        + [Table(name="island", row_count=1_000, row_width_bytes=100)],
    )
    return Catalog(schema=schema, join_graph=tpch_catalog.join_graph)


def _session(catalog, planner_class, coster=None):
    session = RaqoSession(catalog=catalog)
    session.planner.query_planner = planner_class(
        coster if coster is not None else session.planner.coster
    )
    return session


DP_PLANNERS = [SelingerPlanner, BushyPlanner]
QUERY = ("customer", "lineitem", "orders", "nation")


class TestHostileInput:
    @pytest.mark.parametrize("planner_class", DP_PLANNERS)
    @pytest.mark.parametrize("table", ["orders", "island"])
    def test_single_table_is_a_free_scan(
        self, tpch_catalog_sf1, planner_class, table
    ):
        session = _session(_island_catalog(tpch_catalog_sf1), planner_class)
        result = session.run(Query("one", (table,)))
        assert result.planning.plan == ScanNode(table)
        assert result.planning.cost == ZERO_COST
        assert result.planning.batch_sizes == ()
        validate_plan(result.planning.plan, session.cluster)

    @pytest.mark.parametrize("planner_class", DP_PLANNERS)
    @pytest.mark.parametrize("level", [2, len(QUERY)])
    def test_infeasible_level_raises(
        self, tpch_catalog_sf1, planner_class, level
    ):
        session = _session(
            tpch_catalog_sf1, planner_class, InfeasibleLevelCoster(level)
        )
        with pytest.raises(PlanningError, match="no connected"):
            session.run(Query("dead", QUERY))

    @pytest.mark.parametrize("planner_class", DP_PLANNERS)
    def test_feasible_levels_plan(self, tpch_catalog_sf1, planner_class):
        session = _session(
            tpch_catalog_sf1, planner_class, InfeasibleLevelCoster(0)
        )
        result = session.plan(Query("live", QUERY))
        assert result.cost.time_s == len(QUERY) - 1
        validate_plan(result.plan, session.cluster)

    @pytest.mark.parametrize("planner_class", DP_PLANNERS)
    def test_table_without_edges_in_a_join(
        self, tpch_catalog_sf1, planner_class
    ):
        session = _session(_island_catalog(tpch_catalog_sf1), planner_class)
        with pytest.raises(QueryError, match="not a connected join"):
            session.run(Query("split", ("island", "orders")))
