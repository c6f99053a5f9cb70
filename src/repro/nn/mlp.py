"""A multi-layer perceptron regressor built from :class:`DenseLayer`."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.nn.layers import DenseLayer
from repro.utils.rng import RNGLike, ensure_rng, spawn_rngs


class MLP:
    """A feed-forward network with configurable hidden layers.

    The default architecture (two hidden layers of 64 ReLU units) matches the
    small dynamics models used in MBRL-for-HVAC work; the dynamics-model input
    here is only 8-dimensional so a compact network suffices.
    """

    def __init__(
        self,
        input_dim: int,
        output_dim: int,
        hidden_sizes: Sequence[int] = (64, 64),
        activation: str = "relu",
        output_activation: str = "identity",
        seed: RNGLike = None,
    ):
        if input_dim <= 0 or output_dim <= 0:
            raise ValueError("input_dim and output_dim must be positive")
        sizes = [input_dim, *hidden_sizes, output_dim]
        rngs = spawn_rngs(ensure_rng(seed), len(sizes) - 1)
        self.layers: List[DenseLayer] = []
        for i in range(len(sizes) - 1):
            is_output = i == len(sizes) - 2
            self.layers.append(
                DenseLayer(
                    input_dim=sizes[i],
                    output_dim=sizes[i + 1],
                    activation=output_activation if is_output else activation,
                    seed=rngs[i],
                )
            )
        self.input_dim = input_dim
        self.output_dim = output_dim

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward pass over a batch (or a single vector)."""
        out = np.atleast_2d(np.asarray(x, dtype=float))
        for layer in self.layers:
            out = layer.forward(out)
        return out

    # predict() is an alias used by code that treats the MLP as a plain regressor.
    predict = forward

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate a loss gradient through all layers."""
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def zero_grad(self) -> None:
        """Reset every layer's gradient buffers."""
        for layer in self.layers:
            layer.zero_grad()

    # -------------------------------------------------------------- serialise
    def get_parameters(self) -> List[Dict[str, np.ndarray]]:
        """Copies of all parameters (for checkpointing)."""
        return [
            {name: param.copy() for name, param in layer.parameters().items()}
            for layer in self.layers
        ]

    def set_parameters(self, parameters: List[Dict[str, np.ndarray]]) -> None:
        """Load parameters previously produced by :meth:`get_parameters`."""
        if len(parameters) != len(self.layers):
            raise ValueError("Parameter list length does not match the number of layers")
        for layer, params in zip(self.layers, parameters):
            for name, value in params.items():
                target = layer.parameters()[name]
                if target.shape != np.asarray(value).shape:
                    raise ValueError(f"Shape mismatch for parameter {name!r}")
                target[...] = value

    def num_parameters(self) -> int:
        """Total number of trainable scalars (weights and biases)."""
        return int(sum(p.size for layer in self.layers for p in layer.parameters().values()))
