"""Tests for repro.experiments.export and fig08."""

import pytest

from repro.experiments import (
    fig01_queue_cdf,
    fig03_operator_switch,
    fig08_architecture,
)
from repro.experiments.claims import render
from repro.experiments.export import (
    ExportError,
    export_figure,
    read_csv,
    write_csv,
)


class TestWriteCsv:
    def test_round_trip(self, tmp_path):
        path = write_csv(
            tmp_path / "x.csv", ["a", "b"], [(1, 2), (3, 4)]
        )
        rows = read_csv(path)
        assert rows == [["a", "b"], ["1", "2"], ["3", "4"]]

    def test_creates_directories(self, tmp_path):
        path = write_csv(
            tmp_path / "deep" / "dir" / "x.csv", ["a"], [(1,)]
        )
        assert path.exists()

    def test_empty_headers_rejected(self, tmp_path):
        with pytest.raises(ExportError):
            write_csv(tmp_path / "x.csv", [], [])

    def test_row_arity_checked(self, tmp_path):
        with pytest.raises(ExportError):
            write_csv(tmp_path / "x.csv", ["a", "b"], [(1,)])


class TestFigureExports:
    def test_export_fig03(self, tmp_path):
        result = fig03_operator_switch.run()
        paths = export_figure(fig03_operator_switch.FIGURE, result, tmp_path)
        assert [p.name for p in paths] == ["fig03a.csv", "fig03b.csv"]
        size_rows = read_csv(paths[0])
        assert size_rows[0] == [
            "container size (GB)", "SMJ (s)", "BHJ (s)", "winner"
        ]
        assert len(size_rows) == len(result.container_size_sweep) + 1

    def test_export_queue_cdf(self, tmp_path):
        from repro.cluster.trace import TraceConfig

        result = fig01_queue_cdf.run(TraceConfig(num_jobs=300))
        (path,) = export_figure(fig01_queue_cdf.FIGURE, result, tmp_path)
        rows = read_csv(path)
        assert rows[0] == ["fraction of jobs", "queue/runtime ratio"]
        assert len(rows) == len(result.cdf) + 1


class TestFig08:
    def test_stacks_described(self):
        result = fig08_architecture.run()
        assert len(result.current) == 4
        assert len(result.raqo) == 5

    def test_raqo_has_single_optimization_layer(self):
        result = fig08_architecture.run()
        assert result.optimization_layers_raqo == 1
        assert result.optimization_layers_current == 2

    def test_package_mapping_points_at_core(self):
        mapping = fig08_architecture.run().package_mapping()
        raqo_layer = [
            layer for layer in mapping if "RAQO" in layer
        ]
        assert len(raqo_layer) == 1
        assert "repro.core" in mapping[raqo_layer[0]]

    def test_render_mentions_both_stacks(self):
        result = fig08_architecture.run()
        text = render(fig08_architecture.FIGURE, result)
        assert "Current practice" in text
        assert "RAQO vision" in text
        assert "repro.core" in text
