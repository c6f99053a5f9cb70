"""Gradient-descent optimisers (SGD and Adam) with decoupled weight decay."""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.nn.layers import DenseLayer


class SGD:
    """Plain stochastic gradient descent with optional momentum."""

    def __init__(self, layers: List[DenseLayer], learning_rate: float = 1e-2,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0.0 <= momentum < 1.0):
            raise ValueError("momentum must be in [0, 1)")
        self.layers = layers
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [
            {name: np.zeros_like(param) for name, param in layer.parameters().items()}
            for layer in layers
        ]

    def step(self) -> None:
        """Apply one momentum update to every parameter, in place."""
        for layer, velocity in zip(self.layers, self._velocity):
            params = layer.parameters()
            grads = layer.gradients()
            for name in params:
                grad = grads[name]
                if self.weight_decay > 0 and name == "weights":
                    grad = grad + self.weight_decay * params[name]
                velocity[name] = self.momentum * velocity[name] - self.learning_rate * grad
                params[name] += velocity[name]

    def zero_grad(self) -> None:
        """Reset the gradient buffers of every optimised layer."""
        for layer in self.layers:
            layer.zero_grad()


class Adam:
    """Adam optimiser (Kingma & Ba) with decoupled weight decay.

    Matches the paper's training setup (Adam, lr=1e-3, weight_decay=1e-5).
    """

    def __init__(
        self,
        layers: List[DenseLayer],
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        self.layers = layers
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.weight_decay = weight_decay
        self._step_count = 0
        self._first_moment = [
            {name: np.zeros_like(param) for name, param in layer.parameters().items()}
            for layer in layers
        ]
        self._second_moment = [
            {name: np.zeros_like(param) for name, param in layer.parameters().items()}
            for layer in layers
        ]

    def step(self) -> None:
        """Apply one bias-corrected Adam update to every parameter, in place."""
        self._step_count += 1
        t = self._step_count
        for layer, m_buf, v_buf in zip(self.layers, self._first_moment, self._second_moment):
            params = layer.parameters()
            grads = layer.gradients()
            for name in params:
                grad = grads[name]
                if self.weight_decay > 0 and name == "weights":
                    grad = grad + self.weight_decay * params[name]
                m_buf[name] = self.beta1 * m_buf[name] + (1.0 - self.beta1) * grad
                v_buf[name] = self.beta2 * v_buf[name] + (1.0 - self.beta2) * grad**2
                m_hat = m_buf[name] / (1.0 - self.beta1**t)
                v_hat = v_buf[name] / (1.0 - self.beta2**t)
                params[name] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)

    def zero_grad(self) -> None:
        """Reset the gradient buffers of every optimised layer."""
        for layer in self.layers:
            layer.zero_grad()
