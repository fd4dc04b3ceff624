"""Numerical training substrate: autograd, layers, losses, optimizers."""

from .autograd import Tensor, no_grad
from .layers import MLP, Linear, Module, ReLU, Sequential
from .losses import cross_entropy
from .optimizers import LAMB, SGD, Optimizer
from .trainer import (
    GradientAccumulator,
    LocalTrainer,
    TrainLog,
    compute_gradient,
    make_classification_data,
)

__all__ = [
    "GradientAccumulator",
    "LAMB",
    "Linear",
    "LocalTrainer",
    "MLP",
    "Module",
    "Optimizer",
    "ReLU",
    "SGD",
    "Sequential",
    "Tensor",
    "TrainLog",
    "compute_gradient",
    "cross_entropy",
    "make_classification_data",
    "no_grad",
]
