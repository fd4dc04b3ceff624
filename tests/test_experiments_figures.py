"""Tests for the figure/table regeneration layer and the CLI."""

import pytest

from repro.cli import main
from repro.experiments import Report, generate, render, report_keys


def test_every_paper_artifact_has_a_report():
    keys = set(report_keys())
    expected = {
        "table1", "table2", "table3", "table4", "table5", "table6",
        "fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07",
        "fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
        "fig15", "fig16", "fig17", "sec7-tcp", "sec7-spot",
    }
    assert expected <= keys


def test_generate_unknown_key():
    with pytest.raises(KeyError):
        generate("fig99")


def test_table1_static_content():
    report = generate("table1")
    assert report.rows[0]["GC"] == 0.180
    assert len(report.rows) == 9


def test_table2_lists_all_geo_experiments():
    report = generate("table2")
    assert len(report.rows) == 14
    assert report.rows[0]["experiment"] == "A-1"


def test_table3_matrix_rows():
    report = generate("table3")
    # 4 locations -> 16 directed pairs.
    assert len(report.rows) == 16
    local = next(r for r in report.rows
                 if r["from"] == "gc:us" and r["to"] == "gc:us")
    assert local["gbps"] == pytest.approx(6.91, rel=0.05)


def test_sec7_tcp_shape():
    report = generate("sec7-tcp")
    eu80 = next(r for r in report.rows
                if r["destination"] == "EU" and r["streams"] == 80)
    us80 = next(r for r in report.rows
                if r["destination"] == "US" and r["streams"] == 80)
    assert eu80["gbps"] == pytest.approx(6.0, rel=0.05)
    assert us80["gbps"] == pytest.approx(4.0, rel=0.05)


def test_render_produces_ascii_table():
    report = generate("table1")
    text = render(report)
    assert "table1" in text
    assert "GC" in text
    assert "0.18" in text


def test_render_empty_report():
    text = render(Report("x", "empty", rows=[], notes=["nothing"]))
    assert "empty" in text
    assert "note: nothing" in text


def test_fig02_penalty_report():
    report = generate("fig02", epochs=2)
    assert len(report.rows) == 8
    by_model = {row["model"]: row for row in report.rows}
    # CONV has the worst local penalty, RN152 the best (Figure 2).
    assert by_model["ConvNextLarge"]["local/baseline"] == pytest.approx(
        0.48, abs=0.03
    )
    assert by_model["ResNet152"]["local/baseline"] == pytest.approx(
        0.78, abs=0.03
    )
    for row in report.rows:
        assert 0.75 <= row["global/local"] <= 1.0


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig01" in out
        assert "sec7-spot" in out

    def test_run_report(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "T4 Spot" in out

    def test_advise(self, capsys):
        assert main(["advise", "conv", "gc:us=4"]) == 0
        out = capsys.readouterr().out
        assert "granularity" in out
        assert "predicted throughput" in out

    def test_advise_geo_nlp_warns(self, capsys):
        assert main([
            "advise", "rxlm", "gc:us=2", "gc:eu=2", "gc:asia=2", "gc:aus=2",
        ]) == 0
        out = capsys.readouterr().out
        assert "scalable             : no" in out


# Paper conclusions that are not a bound on one cell or on the ratio of
# two; the rest live in the validation registry (``repro validate``).

def _rows(key, *columns):
    report = generate(key, epochs=2)
    return {tuple(row[c] for c in columns): row for row in report.rows}


def test_fig03_small_models_lose_most_at_8k():
    rows = _rows("fig03", "model", "tbs")
    rn18_ratio = (rows[("rn18", 8192)]["hivemind_2gpu_sps"]
                  / rows[("rn18", 8192)]["baseline_sps"])
    conv_ratio = (rows[("conv", 8192)]["hivemind_2gpu_sps"]
                  / rows[("conv", 8192)]["baseline_sps"])
    assert rn18_ratio < conv_ratio


def test_fig07_nlp_per_gpu_speedup_drops_faster():
    rows = _rows("fig07", "task", "experiment")
    cv_drop = (rows[("CV", "A-2")]["speedup"] / 2
               - rows[("CV", "A-8")]["speedup"] / 8)
    nlp_drop = (rows[("NLP", "A-2")]["speedup"] / 2
                - rows[("NLP", "A-8")]["speedup"] / 8)
    assert nlp_drop > cv_drop


def test_fig08_transatlantic_penalty_paid_once():
    rows = _rows("fig08", "task", "experiment")
    reference = _rows("fig07", "task", "experiment")
    for task in ("CV", "NLP"):
        b_scale = rows[(task, "B-8")]["sps"] / rows[(task, "B-2")]["sps"]
        a_scale = (reference[(task, "A-8")]["sps"]
                   / reference[(task, "A-2")]["sps"])
        assert abs(b_scale - a_scale) / a_scale < 0.25, task


def test_fig11_aws_total_beats_gc_for_c8_nlp():
    rows = _rows("fig11", "part", "task", "provider")
    aws, gc = rows[("b", "NLP", "aws")], rows[("b", "NLP", "gc")]
    aws_total = aws["vm_usd_h"] + aws["external_egress_usd_h"]
    gc_total = gc["vm_usd_h"] + gc["external_egress_usd_h"]
    assert aws_total < gc_total


def test_fig15_ddp_node_out_of_memory():
    ddp = _rows("fig15", "setup")[("4xT4-DDP",)]
    assert ddp["sps"] is None
    assert "OOM" in ddp["kind"]


def test_table2_resources():
    by_key = {key: row
              for (key,), row in _rows("table2", "experiment").items()}
    for n in (1, 2, 3, 4, 6, 8):
        assert by_key[f"A-{n}"]["resources"] == f"{n}xgc:us"
    for n in (2, 4, 6, 8):
        assert f"{n // 2}xgc:us" in by_key[f"B-{n}"]["resources"]
        assert f"{n // 2}xgc:eu" in by_key[f"B-{n}"]["resources"]
    assert "gc:aus" in by_key["C-8"]["resources"]
    assert "gc:aus" not in by_key["C-6"]["resources"]


def test_table3_us_best_connected():
    report = generate("table3")

    def worst(region):
        return min(row["gbps"] for row in report.rows
                   if row["from"] == region and row["to"] != region)

    assert worst("gc:us") > worst("gc:eu")


def test_sec7_spot_uptime_falls_with_rate():
    report = generate("sec7-spot")
    by_rate = {row["monthly_rate"]: row for row in report.rows}
    uptimes = [by_rate[r]["uptime_fraction"] for r in sorted(by_rate)]
    assert all(b <= a + 1e-9 for a, b in zip(uptimes, uptimes[1:]))
