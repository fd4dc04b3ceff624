"""Local training loops and gradient accumulation.

The paper's single-GPU baseline reaches large target batch sizes
through gradient accumulation (Section 3); :class:`GradientAccumulator`
implements exactly that, and :class:`LocalTrainer` runs the resulting
optimizer loop. They back the Section 3 ablation that checks LAMB makes
the paper's batch sizes trainable; the simulated Hivemind runs model
time and bytes only and train no model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .autograd import Tensor
from .layers import Module
from .losses import cross_entropy
from .optimizers import Optimizer

__all__ = [
    "GradientAccumulator",
    "LocalTrainer",
    "TrainLog",
    "make_classification_data",
    "compute_gradient",
]


def make_classification_data(
    rng: np.random.Generator,
    num_samples: int = 512,
    num_features: int = 16,
    num_classes: int = 4,
    noise: float = 0.25,
) -> tuple[np.ndarray, np.ndarray]:
    """A separable-ish synthetic classification problem."""
    centers = rng.normal(0.0, 2.0, size=(num_classes, num_features))
    labels = rng.integers(0, num_classes, size=num_samples)
    features = centers[labels] + rng.normal(0.0, 1.0 + noise,
                                            size=(num_samples, num_features))
    return features, labels


def compute_gradient(
    model: Module,
    features: np.ndarray,
    labels: np.ndarray,
) -> tuple[np.ndarray, float]:
    """One forward/backward pass; returns (flat gradient, loss value)."""
    model.zero_grad()
    loss = cross_entropy(model(Tensor(features)), labels)
    loss.backward()
    return model.grad_vector(), loss.item()


class GradientAccumulator:
    """Accumulates per-microbatch gradients up to a target batch size.

    Gradients are weighted by microbatch size so the final average is
    identical to a single pass over the union batch — the invariant
    that makes Hivemind's target-batch-size semantics equivalent to
    large-batch SGD.
    """

    def __init__(self, parameter_count: int, target_batch_size: int):
        if target_batch_size < 1:
            raise ValueError("target_batch_size must be >= 1")
        self.target_batch_size = target_batch_size
        self._sum = np.zeros(parameter_count)
        self.accumulated_samples = 0

    def add(self, gradient: np.ndarray, batch_size: int) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if gradient.shape != self._sum.shape:
            raise ValueError("gradient size mismatch")
        self._sum += gradient * batch_size
        self.accumulated_samples += batch_size

    @property
    def ready(self) -> bool:
        return self.accumulated_samples >= self.target_batch_size

    def average(self) -> np.ndarray:
        if self.accumulated_samples == 0:
            raise RuntimeError("no gradients accumulated")
        return self._sum / self.accumulated_samples

    def reset(self) -> None:
        self._sum[:] = 0.0
        self.accumulated_samples = 0


@dataclass
class TrainLog:
    """Per-step training metrics."""

    losses: list[float] = field(default_factory=list)
    samples_seen: int = 0

    @property
    def final_loss(self) -> float:
        if not self.losses:
            raise RuntimeError("no steps logged")
        return self.losses[-1]


class LocalTrainer:
    """Single-worker training with gradient accumulation to a TBS."""

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        target_batch_size: int,
        microbatch_size: int,
    ):
        if microbatch_size < 1:
            raise ValueError("microbatch_size must be >= 1")
        self.model = model
        self.optimizer = optimizer
        self.microbatch_size = microbatch_size
        self.accumulator = GradientAccumulator(
            parameter_count=model.state_vector().size,
            target_batch_size=target_batch_size,
        )
        self.log = TrainLog()

    def train_steps(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        num_steps: int,
        rng: Optional[np.random.Generator] = None,
    ) -> TrainLog:
        """Run ``num_steps`` optimizer steps over random microbatches."""
        rng = rng or np.random.default_rng(0)
        for __ in range(num_steps):
            while not self.accumulator.ready:
                index = rng.integers(0, len(features),
                                     size=self.microbatch_size)
                gradient, loss = compute_gradient(
                    self.model, features[index], labels[index]
                )
                self.accumulator.add(gradient, self.microbatch_size)
                self.log.losses.append(loss)
                self.log.samples_seen += self.microbatch_size
            self.apply_accumulated()
        return self.log

    def apply_accumulated(self) -> None:
        """Apply the averaged accumulated gradient as one optimizer step."""
        self.model.load_grad_vector(self.accumulator.average())
        self.optimizer.step()
        self.accumulator.reset()
