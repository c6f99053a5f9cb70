"""Data normalisation and the mini-batch regression training loop."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.nn.losses import mae_loss, mse_loss, mse_loss_gradient
from repro.nn.mlp import MLP
from repro.nn.optim import Adam
from repro.utils.rng import RNGLike, ensure_rng


class Normalizer:
    """Per-feature standardisation fitted on training data."""

    def __init__(self):
        self.mean: Optional[np.ndarray] = None
        self.std: Optional[np.ndarray] = None

    def fit(self, data: np.ndarray) -> "Normalizer":
        """Record per-column mean and std (a constant column keeps std 1); returns ``self``."""
        data = np.atleast_2d(np.asarray(data, dtype=float))
        self.mean = data.mean(axis=0)
        self.std = data.std(axis=0)
        # Constant features would otherwise divide by zero.
        self.std = np.where(self.std < 1e-8, 1.0, self.std)
        return self

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has run."""
        return self.mean is not None

    def transform(self, data: np.ndarray) -> np.ndarray:
        """Standardise: ``(data - mean) / std``, as a new float64 array."""
        if not self.is_fitted:
            raise RuntimeError("Normalizer must be fitted before transform()")
        return (np.atleast_2d(np.asarray(data, dtype=float)) - self.mean) / self.std

    def inverse_transform(self, data: np.ndarray) -> np.ndarray:
        """Undo :meth:`transform`: ``data * std + mean``, as a new float64 array."""
        if not self.is_fitted:
            raise RuntimeError("Normalizer must be fitted before inverse_transform()")
        return np.atleast_2d(np.asarray(data, dtype=float)) * self.std + self.mean

    def fit_transform(self, data: np.ndarray) -> np.ndarray:
        """:meth:`fit` on ``data``, then :meth:`transform` it."""
        return self.fit(data).transform(data)


@dataclass
class TrainingHistory:
    """Loss curves recorded during training."""

    train_losses: List[float] = field(default_factory=list)
    validation_losses: List[float] = field(default_factory=list)
    validation_maes: List[float] = field(default_factory=list)

    @property
    def final_train_loss(self) -> float:
        """Mean training loss of the last epoch (NaN before any epoch)."""
        return self.train_losses[-1] if self.train_losses else float("nan")

    @property
    def final_validation_loss(self) -> float:
        """Validation loss after the last epoch (NaN without a validation split)."""
        return self.validation_losses[-1] if self.validation_losses else float("nan")

    @property
    def epochs(self) -> int:
        """Number of epochs recorded."""
        return len(self.train_losses)


def train_regressor(
    model: MLP,
    inputs: np.ndarray,
    targets: np.ndarray,
    epochs: int = 150,
    learning_rate: float = 1e-3,
    weight_decay: float = 1e-5,
    batch_size: int = 64,
    validation_fraction: float = 0.1,
    seed: RNGLike = None,
    shuffle: bool = True,
) -> TrainingHistory:
    """Train ``model`` with Adam + MSE, mirroring the paper's hyper-parameters.

    ``inputs`` and ``targets`` are expected to be already normalised by the
    caller (see :class:`Normalizer`); this function only runs the optimisation
    loop and records train/validation losses.
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if len(inputs) != len(targets):
        raise ValueError("inputs and targets must have the same number of rows")
    if len(inputs) == 0:
        raise ValueError("Cannot train on an empty dataset")
    if epochs <= 0:
        raise ValueError("epochs must be positive")

    rng = ensure_rng(seed)
    n = len(inputs)
    n_val = int(round(validation_fraction * n)) if validation_fraction > 0 and n > 10 else 0
    permutation = rng.permutation(n)
    val_idx = permutation[:n_val]
    train_idx = permutation[n_val:]
    x_train, y_train = inputs[train_idx], targets[train_idx]
    x_val, y_val = inputs[val_idx], targets[val_idx]

    optimizer = Adam(model.layers, learning_rate=learning_rate, weight_decay=weight_decay)
    history = TrainingHistory()
    batch_size = max(1, min(batch_size, len(x_train)))

    for _epoch in range(epochs):
        order = rng.permutation(len(x_train)) if shuffle else np.arange(len(x_train))
        epoch_losses = []
        for start in range(0, len(x_train), batch_size):
            batch = order[start : start + batch_size]
            x_batch, y_batch = x_train[batch], y_train[batch]
            predictions = model.forward(x_batch)
            loss = mse_loss(predictions, y_batch)
            grad = mse_loss_gradient(predictions, y_batch)
            optimizer.zero_grad()
            model.backward(grad)
            optimizer.step()
            epoch_losses.append(loss)
        history.train_losses.append(float(np.mean(epoch_losses)))
        if n_val > 0:
            val_pred = model.forward(x_val)
            history.validation_losses.append(mse_loss(val_pred, y_val))
            history.validation_maes.append(mae_loss(val_pred, y_val))
    return history
