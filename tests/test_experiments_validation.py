"""Tests for the paper-fidelity scorecard."""

from collections import Counter

import pytest

from repro.experiments import (
    ANCHORS,
    Report,
    ValidationRow,
    render_scorecard,
    run_validation,
)
from repro.experiments.validation import Anchor, Cell


class TestAnchorCatalog:
    def test_anchor_count_is_substantial(self):
        assert len(ANCHORS) >= 30

    def test_anchors_reference_known_reports(self):
        from repro.experiments import report_keys

        known = set(report_keys())
        assert set().union(*(a.report_keys for a in ANCHORS)) <= known

    def test_every_claim_has_one_kind(self):
        for anchor in ANCHORS:
            has_bounds = bool(anchor.bounds())
            assert (anchor.rel_tolerance is None) == has_bounds, anchor

    def test_descriptions_unique_per_report(self):
        keys = Counter((a.report_key, a.description) for a in ANCHORS)
        assert [key for key, count in keys.items() if count > 1] == []

    def test_anchor_locate(self):
        anchor = Anchor("x", "d", (("setup", "a"),), "sps", 1.0, 0.1)
        report = Report("x", "t", rows=[{"setup": "a", "sps": 42.0},
                                        {"setup": "b", "sps": 7.0}])
        assert anchor.locate(report) == 42.0
        missing = Anchor("x", "d", (("setup", "zz"),), "sps", 1.0, 0.1)
        assert missing.locate(report) is None

    def test_ambiguous_selector_is_missing(self):
        report = Report("x", "t", rows=[{"part": "a", "setup": "s", "v": 1.0},
                                        {"part": "b", "setup": "s", "v": 9.0}])
        loose = Anchor("x", "d", (("setup", "s"),), "v", 1.0, 0.1)
        assert loose.locate(report) is None
        assert not ValidationRow(loose, loose.measure({"x": report})).ok
        exact = Anchor("x", "d", (("part", "b"), ("setup", "s")), "v", 9.0,
                       0.1)
        assert exact.locate(report) == 9.0


def _ratio(**bounds):
    return Anchor("num", "d", (("setup", "a"),), "sps",
                  over=Cell("den", (("setup", "b"),), "sps"), **bounds)


_REPORTS = {
    "num": Report("num", "t", rows=[{"setup": "a", "sps": 30.0}]),
    "den": Report("den", "t", rows=[{"setup": "b", "sps": 20.0},
                                    {"setup": "tie", "sps": 30.0}]),
}


class TestRatioClaims:
    def test_ratio_across_two_reports(self):
        anchor = _ratio(gt=1.4, lt=1.6)
        assert anchor.report_keys == {"num", "den"}
        row = ValidationRow(anchor, anchor.measure(_REPORTS))
        assert row.measured == 1.5
        assert row.deviation is None
        assert row.ok

    def test_open_bound(self):
        assert ValidationRow(_ratio(gt=1), 1.5).ok
        assert not ValidationRow(_ratio(lt=1), 1.5).ok

    def test_strict_and_inclusive_at_a_tie(self):
        anchor = Anchor("num", "d", (("setup", "a"),), "sps",
                        over=Cell("den", (("setup", "tie"),), "sps"), ge=1)
        measured = anchor.measure(_REPORTS)
        assert measured == 1.0
        assert ValidationRow(anchor, measured).ok
        strict = Anchor("num", "d", (("setup", "a"),), "sps",
                        over=Cell("den", (("setup", "tie"),), "sps"), gt=1)
        assert not ValidationRow(strict, measured).ok

    def test_missing_denominator_fails(self):
        anchor = Anchor("num", "d", (("setup", "a"),), "sps",
                        over=Cell("den", (("setup", "zz"),), "sps"), gt=0)
        assert anchor.measure(_REPORTS) is None
        assert not ValidationRow(anchor, None).ok


class TestValidationRow:
    def _row(self, paper, measured, tol=0.1):
        anchor = Anchor("x", "d", (), "c", paper, tol)
        return ValidationRow(anchor=anchor, measured=measured)

    def test_deviation_and_ok(self):
        row = self._row(100.0, 105.0)
        assert row.deviation == pytest.approx(0.05)
        assert row.ok

    def test_out_of_tolerance(self):
        row = self._row(100.0, 150.0)
        assert not row.ok

    def test_missing_measured_fails(self):
        row = self._row(100.0, None)
        assert row.deviation is None
        assert not row.ok


class TestScorecard:
    def test_fast_subset_passes(self, capsys):
        """Every registered claim holds at the default epochs."""
        from repro.cli import main

        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert out.rstrip().endswith(
            f"{len(ANCHORS)}/{len(ANCHORS)} anchors within tolerance"), out

    def test_each_job_simulates_once(self, monkeypatch, tmp_path):
        from repro.orchestrator import core, job_key

        runs = Counter()
        execute = core.execute_job

        def counting(job):
            runs[job_key(job)] += 1
            return execute(job)

        monkeypatch.setattr(core, "execute_job", counting)
        rows = run_validation(epochs=2)
        assert len(rows) == len(ANCHORS)
        assert all(row.ok for row in rows), render_scorecard(rows)
        assert runs and set(runs.values()) == {1}

        from repro.experiments import write_markdown_report

        runs.clear()
        write_markdown_report(tmp_path / "r.md", keys=["fig07", "fig08"],
                              epochs=2, include_scorecard=False)
        assert runs and set(runs.values()) == {1}

    def test_render_empty_scorecard(self):
        assert render_scorecard([]).splitlines() == [
            "== paper-fidelity scorecard ==",
            "0/0 anchors within tolerance",
        ]

    def test_render_scorecard(self):
        rows = run_validation(epochs=2, report_keys=["fig01"])
        text = render_scorecard(rows)
        assert "paper" in text
        assert "anchors within tolerance" in text
        assert "DGX-2" in text


def test_cli_formats(tmp_path, capsys):
    from repro.cli import main

    assert main(["run", "table1", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("item,GC,AWS,Azure")

    assert main(["run", "table1", "--format", "json"]) == 0
    import json

    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["key"] == "table1"
    assert len(payload["rows"]) == 9

    target = tmp_path / "out.csv"
    assert main(["run", "table1", "--format", "csv",
                 "--output", str(target)]) == 0
    assert target.exists()
    assert "T4 Spot" in target.read_text()


class TestMarkdownReport:
    def test_write_markdown_report(self, tmp_path):
        from repro.experiments import write_markdown_report

        path = write_markdown_report(tmp_path / "r.md",
                                     keys=["table1", "table2"],
                                     epochs=2, include_scorecard=False)
        text = path.read_text()
        assert "# Simulated evaluation report" in text
        assert "## table1" in text
        assert "| T4 Spot ($/h) | 0.18 |" in text
        assert "scorecard" not in text

    def test_unknown_report_key_rejected(self, tmp_path):
        from repro.experiments import write_markdown_report

        import pytest as _pytest

        with _pytest.raises(KeyError):
            write_markdown_report(tmp_path / "r.md", keys=["fig99"])

    def test_report_to_markdown_handles_none_cells(self):
        from repro.experiments import Report, report_to_markdown

        text = report_to_markdown(
            Report("x", "t", rows=[{"a": None, "b": 1.5}], notes=["n"])
        )
        assert "—" in text
        assert "> n" in text


def test_cli_report(tmp_path, capsys):
    from repro.cli import main

    target = tmp_path / "results.md"
    assert main(["report", "--output", str(target),
                 "--reports", "table1", "--no-scorecard"]) == 0
    assert target.exists()
