"""Tests for repro.planner.plan."""

import dataclasses
import pickle

import pytest

from repro.cluster.containers import ResourceConfiguration
from repro.engine.joins import JoinAlgorithm
from repro.planner.plan import (
    JoinNode,
    PlanError,
    ScanNode,
    join_order,
    left_deep_plan,
    plan_signature,
)


class TestScanNode:
    def test_tables(self):
        assert ScanNode("a").tables == frozenset(("a",))

    def test_empty_name_rejected(self):
        with pytest.raises(PlanError):
            ScanNode("")

    def test_explain(self):
        assert ScanNode("a").explain() == "Scan(a)"

    def test_no_joins(self):
        assert list(ScanNode("a").joins_postorder()) == []
        assert ScanNode("a").num_joins == 0


class TestJoinNode:
    def test_tables_union(self):
        join = JoinNode(left=ScanNode("a"), right=ScanNode("b"))
        assert join.tables == frozenset(("a", "b"))

    def test_tables_computed_once_outside_equality(self):
        inner = JoinNode(left=ScanNode("a"), right=ScanNode("b"))
        join = JoinNode(left=inner, right=ScanNode("c"))
        twin = JoinNode(
            left=JoinNode(left=ScanNode("a"), right=ScanNode("b")),
            right=ScanNode("c"),
        )
        assert join.tables is join.tables
        assert join.tables == frozenset(("a", "b", "c"))
        # The cached set is no part of equality, hashing or printing,
        # and replace and pickling keep it consistent with the children.
        assert join == twin and hash(join) == hash(twin)
        assert repr(join) == repr(twin) and "_tables" not in repr(join)
        swapped = dataclasses.replace(join, right=ScanNode("d"))
        assert swapped.tables == frozenset(("a", "b", "d"))
        assert pickle.loads(pickle.dumps(join)).tables == join.tables
        assert [f.name for f in dataclasses.fields(join) if f.compare] == [
            "left",
            "right",
            "algorithm",
            "resources",
        ]

    def test_overlapping_children_rejected(self):
        inner = JoinNode(left=ScanNode("a"), right=ScanNode("b"))
        with pytest.raises(PlanError):
            JoinNode(left=inner, right=ScanNode("a"))

    def test_default_algorithm_smj(self):
        join = JoinNode(left=ScanNode("a"), right=ScanNode("b"))
        assert join.algorithm is JoinAlgorithm.SORT_MERGE

    def test_with_algorithm(self):
        join = JoinNode(left=ScanNode("a"), right=ScanNode("b"))
        flipped = join.with_algorithm(JoinAlgorithm.BROADCAST_HASH)
        assert flipped.algorithm is JoinAlgorithm.BROADCAST_HASH
        assert join.algorithm is JoinAlgorithm.SORT_MERGE

    def test_with_resources(self):
        join = JoinNode(left=ScanNode("a"), right=ScanNode("b"))
        config = ResourceConfiguration(num_containers=5, container_gb=2.0)
        assert join.with_resources(config).resources == config
        assert join.resources is None

    def test_explain_includes_resources(self):
        join = JoinNode(
            left=ScanNode("a"),
            right=ScanNode("b"),
            resources=ResourceConfiguration(num_containers=5, container_gb=2.0),
        )
        assert "<5 x 2GB>" in join.explain()

    def test_postorder_children_first(self):
        plan = left_deep_plan(("a", "b", "c"))
        joins = list(plan.joins_postorder())
        assert joins[0].tables == frozenset(("a", "b"))
        assert joins[1].tables == frozenset(("a", "b", "c"))

    def test_scans_left_to_right(self):
        plan = left_deep_plan(("a", "b", "c"))
        assert [s.table for s in plan.scans()] == ["a", "b", "c"]


class TestMapJoins:
    def test_map_joins_transform(self):
        plan = left_deep_plan(("a", "b", "c"))
        flipped = plan.map_joins(
            lambda j: j.with_algorithm(JoinAlgorithm.BROADCAST_HASH)
        )
        assert all(
            j.algorithm is JoinAlgorithm.BROADCAST_HASH
            for j in flipped.joins_postorder()
        )
        # Original untouched.
        assert all(
            j.algorithm is JoinAlgorithm.SORT_MERGE
            for j in plan.joins_postorder()
        )

    def test_map_joins_on_scan_is_identity(self):
        scan = ScanNode("a")
        assert scan.map_joins(lambda j: j) is scan

    def test_map_joins_rejects_table_set_change(self):
        plan = left_deep_plan(("a", "b"))
        other = JoinNode(left=ScanNode("x"), right=ScanNode("y"))
        with pytest.raises(PlanError):
            plan.map_joins(lambda j: other)


class TestLeftDeepPlan:
    def test_structure(self):
        plan = left_deep_plan(("a", "b", "c", "d"))
        assert plan.num_joins == 3
        assert join_order(plan) == ["a", "b", "c", "d"]

    def test_single_table(self):
        plan = left_deep_plan(("a",))
        assert isinstance(plan, ScanNode)

    def test_empty_rejected(self):
        with pytest.raises(PlanError):
            left_deep_plan(())

    def test_algorithms_assignment(self):
        plan = left_deep_plan(
            ("a", "b", "c"),
            algorithms=(
                JoinAlgorithm.BROADCAST_HASH,
                JoinAlgorithm.SORT_MERGE,
            ),
        )
        joins = list(plan.joins_postorder())
        assert joins[0].algorithm is JoinAlgorithm.BROADCAST_HASH
        assert joins[1].algorithm is JoinAlgorithm.SORT_MERGE

    def test_wrong_algorithm_count_rejected(self):
        with pytest.raises(PlanError):
            left_deep_plan(
                ("a", "b", "c"),
                algorithms=(JoinAlgorithm.SORT_MERGE,),
            )


class TestSignature:
    def test_identical_plans_same_signature(self):
        assert plan_signature(
            left_deep_plan(("a", "b", "c"))
        ) == plan_signature(left_deep_plan(("a", "b", "c")))

    def test_different_order_different_signature(self):
        assert plan_signature(
            left_deep_plan(("a", "b", "c"))
        ) != plan_signature(left_deep_plan(("b", "a", "c")))

    def test_algorithm_affects_signature(self):
        base = left_deep_plan(("a", "b"))
        flipped = base.map_joins(
            lambda j: j.with_algorithm(JoinAlgorithm.BROADCAST_HASH)
        )
        assert plan_signature(base) != plan_signature(flipped)

    def test_resources_do_not_affect_signature(self):
        base = left_deep_plan(("a", "b"))
        annotated = base.map_joins(
            lambda j: j.with_resources(ResourceConfiguration(num_containers=5, container_gb=2.0))
        )
        assert plan_signature(base) == plan_signature(annotated)
