"""The paper's analysis layer: granularity, prediction, costs, advice."""

from .._exports import lazy_exports

# ``granularity`` is both a submodule and a function. Bound here, the
# function stays the package attribute when other modules import the
# submodule, which imports nothing, so binding it early is free.
from .granularity import granularity as granularity

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    analytical=("Prediction", "predict"),
    costs=(
        "CallFractions",
        "CostReport",
        "VmCost",
        "call_fractions",
        "cost_per_million_samples",
        "cost_report",
    ),
    granularity=(
        "best_speedup_when_doubling",
        "granularity",
        "per_gpu_contribution",
        "speedup_from_scaling",
    ),
    planner=("Advice", "MIN_USEFUL_GRANULARITY", "evaluate_setup"),
)
