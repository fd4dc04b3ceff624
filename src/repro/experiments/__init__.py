"""Experiment specs, runner, and figure/table regeneration."""

from .adaptive import (
    DEFAULT_ADAPTIVE_SETUPS,
    adaptive_market,
    adaptive_report,
    standby_peers_for,
)
from .configs import EXPERIMENTS, ExperimentSpec, build_run_config, get_spec
from .figures import REPORTS, Report, generate, render, report_keys
from .resilience import chaos_schedule_for, resilience_report, run_chaos
from .report import (epoch_breakdown, report_to_markdown,
                     write_markdown_report)
from .runner import ExperimentResult, centralized_baseline, run_experiment
from .sweeps import SweepFailure, SweepGrid, SweepResult, run_sweep
from .validation import (
    ANCHORS,
    Anchor,
    ValidationRow,
    render_scorecard,
    run_validation,
)

__all__ = [
    "ANCHORS",
    "DEFAULT_ADAPTIVE_SETUPS",
    "adaptive_market",
    "adaptive_report",
    "standby_peers_for",
    "SweepFailure",
    "SweepGrid",
    "SweepResult",
    "run_sweep",
    "epoch_breakdown",
    "report_to_markdown",
    "write_markdown_report",
    "Anchor",
    "EXPERIMENTS",
    "ValidationRow",
    "render_scorecard",
    "run_validation",
    "ExperimentResult",
    "ExperimentSpec",
    "REPORTS",
    "Report",
    "build_run_config",
    "centralized_baseline",
    "chaos_schedule_for",
    "resilience_report",
    "run_chaos",
    "generate",
    "get_spec",
    "render",
    "report_keys",
    "run_experiment",
]
