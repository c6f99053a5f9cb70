"""Bootstrap ensembles of MLP regressors.

The CLUE baseline of the paper estimates epistemic uncertainty from an ensemble
of dynamics models.  Each member is trained on a bootstrap resample of the
training data from a different initialisation; the disagreement (standard
deviation) between member predictions is the uncertainty signal.  Members
are trained here and predict through
:class:`~repro.nn.dynamics.EnsembleDynamicsModel`, which runs each one
forward-only.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.nn.mlp import MLP
from repro.nn.training import TrainingHistory, train_regressor
from repro.utils.rng import RNGLike, ensure_rng, spawn_rngs


class BootstrapEnsemble:
    """An ensemble of identically-shaped MLPs trained on bootstrap resamples."""

    def __init__(
        self,
        input_dim: int,
        output_dim: int,
        num_members: int = 5,
        hidden_sizes: Sequence[int] = (64, 64),
        seed: RNGLike = None,
    ):
        if num_members <= 0:
            raise ValueError("num_members must be positive")
        rngs = spawn_rngs(ensure_rng(seed), num_members)
        self.members: List[MLP] = [
            MLP(input_dim, output_dim, hidden_sizes=hidden_sizes, seed=rng) for rng in rngs
        ]
        self.input_dim = input_dim
        self.output_dim = output_dim

    @property
    def num_members(self) -> int:
        """Number of ensemble members."""
        return len(self.members)

    def fit(
        self,
        inputs: np.ndarray,
        targets: np.ndarray,
        epochs: int = 150,
        learning_rate: float = 1e-3,
        weight_decay: float = 1e-5,
        batch_size: int = 64,
        seed: RNGLike = None,
    ) -> List[TrainingHistory]:
        """Train every member on its own bootstrap resample of the data."""
        inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        rng = ensure_rng(seed)
        histories = []
        n = len(inputs)
        for member in self.members:
            resample = rng.integers(0, n, size=n)
            histories.append(
                train_regressor(
                    member,
                    inputs[resample],
                    targets[resample],
                    epochs=epochs,
                    learning_rate=learning_rate,
                    weight_decay=weight_decay,
                    batch_size=batch_size,
                    validation_fraction=0.0,
                    seed=rng,
                )
            )
        return histories
