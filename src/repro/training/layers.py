"""Neural network modules on top of the autograd engine."""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from .autograd import Tensor

__all__ = ["Module", "Linear", "ReLU", "Sequential", "MLP"]


class Module:
    """Base class: tracks parameters and child modules."""

    def parameters(self) -> list[Tensor]:
        found: list[Tensor] = []
        for value in self.__dict__.values():
            if isinstance(value, Tensor) and value.requires_grad:
                found.append(value)
            elif isinstance(value, Module):
                found.extend(value.parameters())
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        found.extend(item.parameters())
        return found

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    def state_vector(self) -> np.ndarray:
        """All parameters flattened into one vector."""
        if not self.parameters():
            return np.zeros(0)
        return np.concatenate([p.data.ravel() for p in self.parameters()])

    def grad_vector(self) -> np.ndarray:
        """All gradients flattened; zeros where a parameter has none."""
        chunks = []
        for parameter in self.parameters():
            if parameter.grad is None:
                chunks.append(np.zeros(parameter.size))
            else:
                chunks.append(parameter.grad.ravel())
        return np.concatenate(chunks) if chunks else np.zeros(0)

    def load_grad_vector(self, vector: np.ndarray) -> None:
        offset = 0
        for parameter in self.parameters():
            count = parameter.size
            parameter.grad = vector[offset:offset + count].reshape(
                parameter.shape
            ).copy()
            offset += count

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    def forward(self, x: Tensor) -> Tensor:  # pragma: no cover - interface
        raise NotImplementedError


class Linear(Module):
    """Fully connected layer with Kaiming-style initialization."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
        bias: bool = True,
    ):
        rng = rng or np.random.default_rng(0)
        scale = np.sqrt(2.0 / in_features)
        self.weight = Tensor(
            rng.normal(0.0, scale, size=(in_features, out_features)),
            requires_grad=True,
        )
        self.bias = (
            Tensor(np.zeros(out_features), requires_grad=True) if bias else None
        )

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sequential(Module):
    def __init__(self, *modules: Module):
        self.modules = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.modules:
            x = module(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self.modules)


class MLP(Sequential):
    """Multi-layer perceptron used across examples and tests."""

    def __init__(
        self,
        in_features: int,
        hidden: list[int],
        out_features: int,
        rng: Optional[np.random.Generator] = None,
    ):
        rng = rng or np.random.default_rng(0)
        layers: list[Module] = []
        previous = in_features
        for width in hidden:
            layers.append(Linear(previous, width, rng=rng))
            layers.append(ReLU())
            previous = width
        layers.append(Linear(previous, out_features, rng=rng))
        super().__init__(*layers)
