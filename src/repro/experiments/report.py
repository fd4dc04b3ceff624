"""Markdown report generation: the whole evaluation as one document.

``repro report --output results.md`` regenerates any subset of the
paper's tables/figures plus the fidelity scorecard and writes a
self-contained markdown document — the automated counterpart of the
hand-curated EXPERIMENTS.md.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from ..orchestrator import current_orchestrator, use_orchestrator
from .figures import REPORTS, Report
from .validation import render_scorecard, run_validation

__all__ = ["epoch_breakdown", "report_to_markdown", "write_markdown_report"]

#: Span categories that make up one hivemind epoch, in phase order.
_PHASES = ("calc", "matchmaking", "transfer")


def epoch_breakdown(telemetry) -> str:
    """Per-epoch time-breakdown table rendered from real spans.

    Accepts a :class:`repro.telemetry.Telemetry` sink (or a bare
    tracer) and aggregates the retrospective per-peer ``calc`` /
    ``matchmaking`` / ``transfer`` spans recorded by
    :func:`repro.hivemind.run_hivemind` into one markdown table:
    each row is an epoch, each phase column the union interval of that
    phase across peers, plus the number of peer tracks that took part.
    """
    tracer = getattr(telemetry, "tracer", telemetry)
    #: (run, epoch, category) -> [min start, max end] across peer tracks
    windows: dict[tuple[int, int, str], list[float]] = {}
    peers: dict[tuple[int, int], set[str]] = {}
    for span in tracer.spans:
        epoch = span.attrs.get("epoch")
        if epoch is None or span.category not in _PHASES or not span.closed:
            continue
        window = windows.setdefault(
            (span.run, epoch, span.category), [span.start_s, span.end_s]
        )
        window[0] = min(window[0], span.start_s)
        window[1] = max(window[1], span.end_s)
        peers.setdefault((span.run, epoch), set()).add(span.track)
    if not windows:
        return "*(no per-epoch spans recorded)*"
    cells = sorted({(run, epoch) for run, epoch, __ in windows})
    multi_run = len({run for run, __ in cells}) > 1
    rows = []
    for run, epoch in cells:
        row = {"run": run} if multi_run else {}
        row["epoch"] = epoch
        for phase in _PHASES:
            window = windows.get((run, epoch, phase))
            row[f"{phase}_s"] = (
                round(window[1] - window[0], 2) if window else None
            )
        row["peers"] = len(peers.get((run, epoch), ()))
        rows.append(row)
    return _table(Report(key="breakdown", title="Epoch breakdown",
                         rows=rows, notes=[]))


def _table(report: Report) -> str:
    if not report.rows:
        return "*(no rows)*"
    columns = list(report.rows[0].keys())
    header = "| " + " | ".join(str(c) for c in columns) + " |"
    separator = "|" + "|".join("---" for __ in columns) + "|"
    lines = [header, separator]
    for row in report.rows:
        cells = []
        for column in columns:
            value = row.get(column)
            if value is None:
                cells.append("—")
            elif isinstance(value, float):
                cells.append(f"{value:.4g}")
            else:
                cells.append(str(value))
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def report_to_markdown(report: Report) -> str:
    """One report as a markdown section."""
    parts = [f"## {report.key} — {report.title}", "", _table(report)]
    for note in report.notes:
        parts.append("")
        parts.append(f"> {note}")
    return "\n".join(parts)


def write_markdown_report(
    path: str | Path,
    keys: Optional[list[str]] = None,
    epochs: int = 3,
    include_scorecard: bool = True,
) -> Path:
    """Regenerate reports and write them as one markdown document."""
    keys = keys if keys is not None else list(REPORTS)
    unknown = [key for key in keys if key not in REPORTS]
    if unknown:
        raise KeyError(f"unknown reports: {unknown}")
    sections = [
        "# Simulated evaluation report",
        "",
        "Regenerated tables and figures of *How Can We Train Deep "
        "Learning Models Across Clouds and Continents?* (PVLDB 17(6)), "
        f"simulated with `epochs={epochs}`.",
    ]
    # One orchestrator for the reports and the scorecard: a run point
    # they share simulates once.
    with use_orchestrator(current_orchestrator()):
        for key in keys:
            sections.append("")
            sections.append(report_to_markdown(REPORTS[key](epochs=epochs)))
        if include_scorecard:
            sections.append("")
            sections.append("## Paper-fidelity scorecard")
            sections.append("")
            sections.append("```")
            sections.append(render_scorecard(run_validation(epochs=epochs)))
            sections.append("```")
    path = Path(path)
    path.write_text("\n".join(sections) + "\n")
    return path
