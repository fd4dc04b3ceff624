"""Loss functions."""

from __future__ import annotations

import numpy as np

from .autograd import Tensor

__all__ = ["cross_entropy"]


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of integer labels under softmax logits."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.data.ndim != 2:
        raise ValueError("logits must be 2-D (batch, classes)")
    batch, num_classes = logits.shape
    if labels.shape != (batch,):
        raise ValueError(f"labels shape {labels.shape} != ({batch},)")
    log_probs = logits.log_softmax(axis=-1)
    one_hot = np.zeros((batch, num_classes))
    one_hot[np.arange(batch), labels] = 1.0
    picked = log_probs * Tensor(one_hot)
    return -picked.sum() * (1.0 / batch)
