"""Tests for the parameter sweep utilities."""

import json

import pytest

from repro.experiments import SweepGrid, run_sweep


class TestSweepGrid:
    def test_points_cartesian(self):
        grid = SweepGrid(models=("conv", "rxlm"),
                         experiments=("A-2", "A-4"),
                         target_batch_sizes=(8192, 32768))
        points = list(grid.points())
        assert len(points) == len(grid) == 8
        assert ("conv", "A-2", 8192) in points
        assert ("rxlm", "A-4", 32768) in points

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            SweepGrid(models=(), experiments=("A-2",))


class TestRunSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        grid = SweepGrid(models=("conv", "rn18"),
                         experiments=("A-2", "A-4"))
        return run_sweep(grid, epochs=2, account_data_loading=False,
                         monitor_interval_s=None)

    def test_all_points_succeed(self, sweep):
        assert len(sweep.results) == 4
        assert not sweep.failures

    def test_rows_are_flat_and_complete(self, sweep):
        rows = sweep.rows()
        assert len(rows) == 4
        assert {"experiment", "model", "sps", "granularity"} <= set(rows[0])

    def test_csv_and_json_export(self, sweep, tmp_path):
        csv_path = sweep.to_csv(tmp_path / "sweep.csv")
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert "experiment" in header

        json_path = sweep.to_json(tmp_path / "sweep.json")
        payload = json.loads(json_path.read_text())
        assert len(payload["rows"]) == 4
        assert payload["failures"] == []

    def test_progress_callback(self):
        seen = []
        grid = SweepGrid(models=("conv",), experiments=("A-2",))
        run_sweep(grid, epochs=2, progress=seen.append,
                  account_data_loading=False, monitor_interval_s=None)
        assert len(seen) == 1

    def test_failures_recorded_not_raised(self):
        grid = SweepGrid(models=("conv",), experiments=("Z-99",))
        sweep = run_sweep(grid, epochs=2)
        assert not sweep.results
        assert len(sweep.failures) == 1
        # Failures still unpack like the historical (point, error) tuple.
        point, error = sweep.failures[0]
        assert point == ("conv", "Z-99", 32768)
        assert "unknown experiment" in error

    def test_failure_records_carry_type_and_traceback(self):
        grid = SweepGrid(models=("conv",), experiments=("Z-99",))
        failure = run_sweep(grid, epochs=2).failures[0]
        assert failure.error_type == "KeyError"
        assert "unknown experiment" in failure.traceback
        assert failure.traceback.startswith("Traceback")
        doc = failure.to_dict()
        assert doc["point"] == ["conv", "Z-99", 32768]
        assert doc["error_type"] == "KeyError"


def test_cli_sweep(tmp_path, capsys):
    from repro.cli import main

    target = tmp_path / "grid.csv"
    code = main(["sweep", "--models", "conv", "--experiments", "A-2",
                 "--epochs", "2", "--output", str(target),
                 "--cache-dir", str(tmp_path / "cache")])
    assert code == 0
    assert target.exists()
    captured = capsys.readouterr()
    assert "A-2" in captured.out
    assert "simulations executed: 1" in captured.err
