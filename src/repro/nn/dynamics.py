"""Learned thermal-dynamics models.

The dynamics model is the regression model ``f_hat(s, d, a) -> s'`` at the
centre of the MBRL pipeline: it is trained on the historical transition dataset
and then queried by the stochastic optimiser (random shooting / MPPI), by the
decision-dataset generator and by the probabilistic verifier.

Two variants are provided:

* :class:`ThermalDynamicsModel` — a single MLP (the paper's setup),
* :class:`EnsembleDynamicsModel` — a bootstrap ensemble exposing epistemic
  uncertainty, used by the CLUE-style baseline.

Training runs the float64 :class:`~repro.nn.mlp.MLP`; every prediction, in
either dtype, runs through one forward-only
:class:`~repro.nn.inference.CompiledInferenceNetwork` per network.  In
float64 that network reads the live training weights and normalisers, so a
prediction is bit-identical to the training network's; in float32 it is a
folded snapshot rebuilt after every ``fit``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data import resolve_float_dtype
from repro.env.dataset import TransitionDataset
from repro.nn.ensemble import BootstrapEnsemble
from repro.nn.inference import CompiledInferenceNetwork
from repro.nn.mlp import MLP
from repro.nn.training import Normalizer, TrainingHistory, train_regressor
from repro.utils.rng import RNGLike, ensure_rng

#: Dynamics-model input layout: [s, d_1..d_5, heating setpoint, cooling setpoint].
DYNAMICS_INPUT_DIM = 8
DYNAMICS_OUTPUT_DIM = 1


def _stack_model_inputs(
    states: np.ndarray, disturbances: np.ndarray, actions: np.ndarray
) -> np.ndarray:
    """Assemble (s, d, a) rows from separate arrays (broadcast-friendly)."""
    states = np.atleast_1d(np.asarray(states, dtype=float)).reshape(-1, 1)
    disturbances = np.atleast_2d(np.asarray(disturbances, dtype=float))
    actions = np.atleast_2d(np.asarray(actions, dtype=float))
    n = max(len(states), len(disturbances), len(actions))
    if len(states) == 1 and n > 1:
        states = np.repeat(states, n, axis=0)
    if len(disturbances) == 1 and n > 1:
        disturbances = np.repeat(disturbances, n, axis=0)
    if len(actions) == 1 and n > 1:
        actions = np.repeat(actions, n, axis=0)
    if not (len(states) == len(disturbances) == len(actions)):
        raise ValueError("states, disturbances and actions must have compatible lengths")
    return np.hstack([states, disturbances, actions])


class ThermalDynamicsModel:
    """MLP dynamics model with input/output standardisation.

    The model predicts the *change* in zone temperature (a standard residual
    parameterisation that improves accuracy for slow thermal dynamics) and adds
    it back to the current state at prediction time.

    Inference dtype policy: training always runs in float64, and prediction
    always runs forward-only through a
    :class:`~repro.nn.inference.CompiledInferenceNetwork` in the dtype chosen
    by :meth:`set_inference_dtype`.  ``float64`` (the default) stays
    bit-exact with the training network; ``float32`` is the opt-in fast path
    for the BLAS-bound planning/distillation workloads
    (``PipelineConfig.dtype``).  Like the compiled network it holds, an
    instance is not thread-safe.
    """

    def __init__(
        self,
        hidden_sizes: Sequence[int] = (64, 64),
        seed: RNGLike = None,
        predict_delta: bool = True,
    ):
        self.network = MLP(DYNAMICS_INPUT_DIM, DYNAMICS_OUTPUT_DIM, hidden_sizes=hidden_sizes, seed=seed)
        self.input_normalizer = Normalizer()
        self.target_normalizer = Normalizer()
        self.predict_delta = predict_delta
        self.history: Optional[TrainingHistory] = None
        self._inference_dtype = np.dtype(np.float64)
        self._compiled_net: Optional[CompiledInferenceNetwork] = None

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has fitted both normalisers (and the network)."""
        return self.input_normalizer.is_fitted and self.target_normalizer.is_fitted

    # ------------------------------------------------------- inference dtype
    @property
    def inference_dtype(self) -> np.dtype:
        """The dtype :meth:`predict` computes in (``float64`` unless set)."""
        return self._inference_dtype

    def set_inference_dtype(self, dtype: Union[str, np.dtype]) -> "ThermalDynamicsModel":
        """Select the prediction dtype (``"float64"`` reference, ``"float32"`` fast).

        Returns ``self`` so callers can chain it after construction.  The
        compiled network is (re)built lazily on the next prediction, so the
        dtype can be set before or after :meth:`fit`.
        """
        self._inference_dtype = resolve_float_dtype(dtype)
        self._compiled_net = None
        return self

    def _inference_network(self) -> CompiledInferenceNetwork:
        if self._compiled_net is None:
            self._compiled_net = CompiledInferenceNetwork(
                self.network,
                dtype=self._inference_dtype,
                input_normalizer=self.input_normalizer,
                target_normalizer=self.target_normalizer,
            )
        return self._compiled_net

    # -------------------------------------------------------------------- fit
    def fit(
        self,
        dataset: TransitionDataset,
        epochs: int = 150,
        learning_rate: float = 1e-3,
        weight_decay: float = 1e-5,
        batch_size: int = 64,
        seed: RNGLike = None,
    ) -> TrainingHistory:
        """Train on a historical transition dataset (paper hyper-parameters)."""
        if len(dataset) == 0:
            raise ValueError("Cannot fit a dynamics model on an empty dataset")
        inputs = dataset.model_inputs()
        next_states = dataset.model_targets()
        targets = next_states - dataset.states().reshape(-1, 1) if self.predict_delta else next_states

        x = self.input_normalizer.fit_transform(inputs)
        y = self.target_normalizer.fit_transform(targets)
        self.history = train_regressor(
            self.network,
            x,
            y,
            epochs=epochs,
            learning_rate=learning_rate,
            weight_decay=weight_decay,
            batch_size=batch_size,
            seed=seed,
        )
        self._compiled_net = None  # a float32 snapshot is stale; rebuild on next predict
        return self.history

    # ---------------------------------------------------------------- predict
    def predict(
        self,
        states: Union[float, np.ndarray],
        disturbances: np.ndarray,
        actions: np.ndarray,
    ) -> np.ndarray:
        """Predict next zone temperatures for a batch of (s, d, a) inputs.

        Raw rows go through the compiled network, which normalises them and
        de-normalises its output itself; the result is always float64 (a
        float32 prediction is widened exactly).  Under the default float64
        policy it is bit-identical to the training network's forward pass.
        """
        if not self.is_fitted:
            raise RuntimeError("Dynamics model must be fitted before prediction")
        raw_inputs = _stack_model_inputs(states, disturbances, actions)
        predictions = self._inference_network().forward(raw_inputs)[:, 0].astype(
            np.float64, copy=False
        )
        if self.predict_delta:
            predictions = predictions + raw_inputs[:, 0]
        return predictions

    def predict_next_state(
        self, state: float, disturbance: np.ndarray, action: Sequence[float]
    ) -> float:
        """Predict the next zone temperature for a single transition."""
        return float(
            self.predict(
                np.array([state]),
                np.asarray(disturbance, dtype=float).reshape(1, -1),
                np.asarray(action, dtype=float).reshape(1, -1),
            )[0]
        )

    def evaluate(self, dataset: TransitionDataset) -> Tuple[float, float]:
        """Return (RMSE, MAE) of next-state predictions on a dataset."""
        if len(dataset) == 0:
            raise ValueError("Cannot evaluate on an empty dataset")
        inputs = dataset.policy_inputs()
        predictions = self.predict(
            dataset.states(), inputs[:, 1:], dataset.actions().astype(float)
        )
        targets = dataset.model_targets()[:, 0]
        errors = predictions - targets
        return float(np.sqrt(np.mean(errors**2))), float(np.mean(np.abs(errors)))


class EnsembleDynamicsModel:
    """Bootstrap-ensemble dynamics model with epistemic uncertainty estimates.

    Supports the same inference dtype policy as
    :class:`ThermalDynamicsModel`: every member predicts through its own
    :class:`~repro.nn.inference.CompiledInferenceNetwork`, bit-exact with
    the member's training network in float64 (the default) and a folded
    snapshot under the float32 fast path.  Not thread-safe.
    """

    def __init__(
        self,
        num_members: int = 5,
        hidden_sizes: Sequence[int] = (64, 64),
        seed: RNGLike = None,
        predict_delta: bool = True,
    ):
        self.ensemble = BootstrapEnsemble(
            DYNAMICS_INPUT_DIM,
            DYNAMICS_OUTPUT_DIM,
            num_members=num_members,
            hidden_sizes=hidden_sizes,
            seed=seed,
        )
        self.input_normalizer = Normalizer()
        self.target_normalizer = Normalizer()
        self.predict_delta = predict_delta
        self._fitted = False
        self._inference_dtype = np.dtype(np.float64)
        self._compiled_members: Optional[List[CompiledInferenceNetwork]] = None

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has run."""
        return self._fitted

    # ------------------------------------------------------- inference dtype
    @property
    def inference_dtype(self) -> np.dtype:
        """The dtype :meth:`predict` computes in (``float64`` unless set)."""
        return self._inference_dtype

    def set_inference_dtype(self, dtype: Union[str, np.dtype]) -> "EnsembleDynamicsModel":
        """Select the prediction dtype for every ensemble member."""
        self._inference_dtype = resolve_float_dtype(dtype)
        self._compiled_members = None
        return self

    def _inference_members(self) -> List[CompiledInferenceNetwork]:
        if self._compiled_members is None:
            # Members share one input/target normaliser, fitted at this level.
            self._compiled_members = [
                CompiledInferenceNetwork(
                    member,
                    dtype=self._inference_dtype,
                    input_normalizer=self.input_normalizer,
                    target_normalizer=self.target_normalizer,
                )
                for member in self.ensemble.members
            ]
        return self._compiled_members

    def fit(
        self,
        dataset: TransitionDataset,
        epochs: int = 150,
        learning_rate: float = 1e-3,
        weight_decay: float = 1e-5,
        batch_size: int = 64,
        seed: RNGLike = None,
    ) -> None:
        """Fit the shared normalisers, then every member on its own bootstrap resample."""
        if len(dataset) == 0:
            raise ValueError("Cannot fit a dynamics model on an empty dataset")
        inputs = dataset.model_inputs()
        next_states = dataset.model_targets()
        targets = next_states - dataset.states().reshape(-1, 1) if self.predict_delta else next_states
        x = self.input_normalizer.fit_transform(inputs)
        y = self.target_normalizer.fit_transform(targets)
        self.ensemble.fit(
            x,
            y,
            epochs=epochs,
            learning_rate=learning_rate,
            weight_decay=weight_decay,
            batch_size=batch_size,
            seed=seed,
        )
        self._fitted = True
        self._compiled_members = None  # float32 snapshots are stale; rebuild on next predict

    def predict(
        self,
        states: Union[float, np.ndarray],
        disturbances: np.ndarray,
        actions: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return (mean next state, epistemic std) for a batch of inputs."""
        if not self._fitted:
            raise RuntimeError("Dynamics model must be fitted before prediction")
        raw_inputs = _stack_model_inputs(states, disturbances, actions)
        member_outputs = np.stack(
            [member.forward(raw_inputs) for member in self._inference_members()]
        )
        mean = member_outputs.mean(axis=0)[:, 0].astype(np.float64, copy=False)
        std = member_outputs.std(axis=0)[:, 0].astype(np.float64, copy=False)
        if self.predict_delta:
            mean = mean + raw_inputs[:, 0]
        return mean, std

    def predict_next_state(
        self, state: float, disturbance: np.ndarray, action: Sequence[float]
    ) -> Tuple[float, float]:
        """(mean, std) of the next zone temperature for a single transition."""
        mean, std = self.predict(
            np.array([state]),
            np.asarray(disturbance, dtype=float).reshape(1, -1),
            np.asarray(action, dtype=float).reshape(1, -1),
        )
        return float(mean[0]), float(std[0])
