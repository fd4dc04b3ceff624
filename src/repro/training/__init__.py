"""Numerical training substrate: autograd, layers, losses, optimizers."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    autograd=("Tensor",),
    layers=("MLP", "Linear", "Module", "ReLU", "Sequential"),
    losses=("cross_entropy",),
    optimizers=("LAMB", "SGD", "Optimizer"),
    trainer=(
        "GradientAccumulator",
        "LocalTrainer",
        "TrainLog",
        "compute_gradient",
        "make_classification_data",
    ),
)
