"""Experiment specs, runner, and figure/table regeneration."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    adaptive=(
        "DEFAULT_ADAPTIVE_SETUPS",
        "adaptive_market",
        "adaptive_report",
        "standby_peers_for",
    ),
    configs=("EXPERIMENTS", "ExperimentSpec", "build_run_config", "get_spec"),
    figures=("REPORTS", "Report", "generate", "render", "report_keys"),
    resilience=("chaos_schedule_for", "resilience_report", "run_chaos"),
    report=("epoch_breakdown", "report_to_markdown", "write_markdown_report"),
    runner=("ExperimentResult", "centralized_baseline", "run_experiment"),
    sweeps=("SweepFailure", "SweepGrid", "SweepResult", "run_sweep"),
    validation=(
        "ANCHORS",
        "Anchor",
        "ValidationRow",
        "render_scorecard",
        "run_validation",
    ),
)
