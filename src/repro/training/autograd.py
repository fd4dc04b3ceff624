"""A small reverse-mode automatic differentiation engine on numpy.

This is the numerical heart of the training substrate: enough autograd
to train MLPs and logistic regression so that the decentralized
averaging experiments operate on *real gradients* rather than
placeholder byte blobs. Supports broadcasting, matmul, elementwise
nonlinearities and reductions.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

__all__ = ["Tensor"]

ArrayLike = Union[np.ndarray, float, int, list]


def _as_array(value: ArrayLike) -> np.ndarray:
    array = np.asarray(value, dtype=np.float64)
    return array


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcasted gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """An array with an optional gradient and a backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")
    __array_priority__ = 100  # numpy defers binary ops to Tensor

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
    ):
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    # -- construction helpers ---------------------------------------------

    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    # -- basic protocol -----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # -- graph construction --------------------------------------------------

    def _make(
        self,
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = any(p.requires_grad for p in parents)
        return Tensor(data, requires_grad=requires, _parents=parents,
                      _backward=backward)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: ArrayLike | "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other: ArrayLike | "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other: ArrayLike | "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) + (-self)

    def __truediv__(self, other: ArrayLike | "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self * other ** -1.0

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            other = Tensor(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad @ other.data.swapaxes(-1, -2))
            if other.requires_grad:
                other._accumulate(self.data.swapaxes(-1, -2) @ grad)

        return self._make(out_data, (self, other), backward)

    # -- elementwise nonlinearities ---------------------------------------------

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data ** 2))

        return self._make(out_data, (self,), backward)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return self._make(out_data, (self,), backward)

    # -- reductions & shape ---------------------------------------------------

    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            expanded = grad
            if axis is not None and not keepdims:
                expanded = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(expanded, self.shape).copy())

        return self._make(out_data, (self,), backward)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        count = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int) -> "Tensor":
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(self.shape))

        return self._make(out_data, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        """Numerically stable log-softmax via the logsumexp trick."""
        shift = self.data.max(axis=axis, keepdims=True)  # constant shift
        shifted = self - Tensor(shift)
        return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()

    # -- backprop -----------------------------------------------------------

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64)
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor (scalar unless grad given)."""
        if not self.requires_grad:
            raise RuntimeError("tensor does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() on non-scalar needs a gradient")
            grad = np.ones_like(self.data)
        order: list[Tensor] = []
        seen: set[int] = set()

        def visit(node: "Tensor") -> None:
            if id(node) in seen or not node.requires_grad:
                return
            seen.add(id(node))
            for parent in node._parents:
                visit(parent)
            order.append(node)

        visit(self)
        self._accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
