"""Tests for repro.cluster.containers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.containers import (
    ContainerRequest,
    ResourceConfiguration,
    ResourceError,
)


class TestResourceConfiguration:
    def test_total_memory(self):
        config = ResourceConfiguration(num_containers=10, container_gb=4.0)
        assert config.total_memory_gb == 40.0

    def test_gb_seconds(self):
        config = ResourceConfiguration(num_containers=10, container_gb=4.0)
        assert config.gb_seconds(10.0) == 400.0

    def test_gb_seconds_negative_duration_rejected(self):
        with pytest.raises(ResourceError):
            ResourceConfiguration(num_containers=1, container_gb=1.0).gb_seconds(-1.0)

    def test_zero_containers_rejected(self):
        with pytest.raises(ResourceError):
            ResourceConfiguration(num_containers=0, container_gb=1.0)

    def test_non_positive_size_rejected(self):
        with pytest.raises(ResourceError):
            ResourceConfiguration(num_containers=1, container_gb=0.0)
        with pytest.raises(ResourceError):
            ResourceConfiguration(num_containers=1, container_gb=-2.0)

    def test_vector_round_trip(self):
        config = ResourceConfiguration(num_containers=7, container_gb=3.5)
        assert (
            ResourceConfiguration.from_vector(config.as_vector())
            == config
        )

    def test_from_vector_rounds_count(self):
        config = ResourceConfiguration.from_vector((6.6, 2.0))
        assert config.num_containers == 7

    def test_ordering(self):
        a = ResourceConfiguration(num_containers=1, container_gb=1.0)
        b = ResourceConfiguration(num_containers=2, container_gb=1.0)
        assert a < b

    def test_str(self):
        assert str(ResourceConfiguration(num_containers=10, container_gb=4.0)) == "<10 x 4GB>"

    def test_hashable(self):
        assert ResourceConfiguration(num_containers=1, container_gb=1.0) in {
            ResourceConfiguration(num_containers=1, container_gb=1.0)
        }

    @given(
        st.integers(min_value=1, max_value=10_000),
        st.floats(min_value=0.5, max_value=128.0),
        st.floats(min_value=0.0, max_value=10_000.0),
    )
    @settings(max_examples=50)
    def test_property_gb_seconds_scales(self, count, size, duration):
        config = ResourceConfiguration(num_containers=count, container_gb=size)
        assert config.gb_seconds(duration) == pytest.approx(
            count * size * duration
        )


class TestContainerRequest:
    def test_memory_gb(self):
        request = ContainerRequest(
            config=ResourceConfiguration(num_containers=5, container_gb=2.0), duration_s=60.0
        )
        assert request.memory_gb == 10.0

    def test_non_positive_duration_rejected(self):
        with pytest.raises(ResourceError):
            ContainerRequest(
                config=ResourceConfiguration(num_containers=1, container_gb=1.0), duration_s=0.0
            )


class TestPositionalAxisShim:
    """The positional shim is retired: both axes are keyword-only."""

    def test_positional_axes_raise(self):
        with pytest.raises(TypeError, match="positional"):
            ResourceConfiguration(10, 4.0)

    def test_keyword_axes_do_not_warn(self, recwarn):
        ResourceConfiguration(num_containers=10, container_gb=4.0)
        deprecations = [
            w for w in recwarn if issubclass(w.category, DeprecationWarning)
        ]
        assert deprecations == []

    def test_mixed_positional_and_keyword(self):
        with pytest.raises(TypeError, match="positional"):
            ResourceConfiguration(10, container_gb=4.0)

    def test_conflicting_axes_rejected(self):
        with pytest.raises(TypeError):
            ResourceConfiguration(10, num_containers=5)

    def test_excess_positionals_rejected(self):
        with pytest.raises(TypeError):
            ResourceConfiguration(10, 4.0, 9.0)

    def test_missing_axis_rejected(self):
        with pytest.raises(TypeError, match="num_containers"):
            ResourceConfiguration(container_gb=4.0)

    def test_replace_round_trip(self):
        import dataclasses

        config = ResourceConfiguration(num_containers=10, container_gb=4.0)
        bigger = dataclasses.replace(config, container_gb=8.0)
        assert bigger == ResourceConfiguration(
            num_containers=10, container_gb=8.0
        )
