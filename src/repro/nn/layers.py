"""Dense layers and activation functions with manual backpropagation."""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.utils.rng import RNGLike, ensure_rng


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _relu_grad(x: np.ndarray) -> np.ndarray:
    return (x > 0.0).astype(float)


def _tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def _tanh_grad(x: np.ndarray) -> np.ndarray:
    return 1.0 - np.tanh(x) ** 2


def _identity(x: np.ndarray) -> np.ndarray:
    return x


def _identity_grad(x: np.ndarray) -> np.ndarray:
    return np.ones_like(x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def _sigmoid_grad(x: np.ndarray) -> np.ndarray:
    s = _sigmoid(x)
    return s * (1.0 - s)


#: Registry of activation name -> (function, derivative w.r.t. pre-activation).
ACTIVATIONS: Dict[str, Tuple[Callable, Callable]] = {
    "relu": (_relu, _relu_grad),
    "tanh": (_tanh, _tanh_grad),
    "sigmoid": (_sigmoid, _sigmoid_grad),
    "identity": (_identity, _identity_grad),
    "linear": (_identity, _identity_grad),
}


class DenseLayer:
    """A fully-connected layer ``y = activation(x W + b)``."""

    def __init__(
        self,
        input_dim: int,
        output_dim: int,
        activation: str = "relu",
        seed: RNGLike = None,
    ):
        if input_dim <= 0 or output_dim <= 0:
            raise ValueError("Layer dimensions must be positive")
        if activation not in ACTIVATIONS:
            raise ValueError(
                f"Unknown activation {activation!r}; available: {sorted(ACTIVATIONS)}"
            )
        rng = ensure_rng(seed)
        # He initialisation (good default for ReLU-family activations).
        scale = np.sqrt(2.0 / input_dim)
        self.weights = rng.normal(0.0, scale, size=(input_dim, output_dim))
        self.bias = np.zeros(output_dim, dtype=np.float64)
        self.activation_name = activation
        self._activation, self._activation_grad = ACTIVATIONS[activation]
        # Forward-pass caches used by backward().
        self._last_input: Optional[np.ndarray] = None
        self._last_preactivation: Optional[np.ndarray] = None
        # Gradient buffers.
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_bias = np.zeros_like(self.bias)

    @property
    def input_dim(self) -> int:
        """Width of the layer's input (rows of ``weights``)."""
        return self.weights.shape[0]

    @property
    def output_dim(self) -> int:
        """Width of the layer's output (columns of ``weights``)."""
        return self.weights.shape[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward pass; caches intermediates for the backward pass."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        self._last_input = x
        self._last_preactivation = x @ self.weights + self.bias
        return self._activation(self._last_preactivation)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backward pass: accumulate parameter gradients, return input gradient."""
        if self._last_input is None or self._last_preactivation is None:
            raise RuntimeError("backward() called before forward()")
        grad_output = np.atleast_2d(grad_output)
        grad_pre = grad_output * self._activation_grad(self._last_preactivation)
        self.grad_weights = self._last_input.T @ grad_pre
        self.grad_bias = grad_pre.sum(axis=0)
        return grad_pre @ self.weights.T

    def parameters(self) -> Dict[str, np.ndarray]:
        """The live ``weights`` and ``bias`` arrays (optimisers update them in place)."""
        return {"weights": self.weights, "bias": self.bias}

    def gradients(self) -> Dict[str, np.ndarray]:
        """Gradients from the last :meth:`backward`, keyed like :meth:`parameters`."""
        return {"weights": self.grad_weights, "bias": self.grad_bias}

    def zero_grad(self) -> None:
        """Reset the gradient buffers to zeros."""
        self.grad_weights = np.zeros_like(self.weights)
        self.grad_bias = np.zeros_like(self.bias)
