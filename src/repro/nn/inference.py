"""Forward-only inference networks: the one prediction path of the dynamics models.

The training :class:`~repro.nn.mlp.MLP` caches every layer's input and
pre-activation for a backward pass, which is right for fitting and pure
overhead for the millions of forward passes the random-shooting planner, the
Monte-Carlo distiller and the probabilistic verifier make.
:class:`CompiledInferenceNetwork` runs the same layers forward-only: each
hidden layer's matmul writes into a per-instance buffer that is reused across
calls (``np.matmul(..., out=)``), the bias add and the activation run in
place, and nothing is kept for backpropagation.

What a compiled network holds depends on its dtype (the policy itself lives
in :func:`repro.data.resolve_float_dtype`):

* ``float64``, the bit-exact reference, wraps the MLP's live layer arrays
  without copying them and applies the input/target
  :class:`~repro.nn.training.Normalizer` unfolded, with the same arithmetic
  as ``transform``/``inverse_transform``.  Every prediction is bit-identical
  to ``inverse_transform(mlp.forward(transform(x)))`` and follows the MLP
  through ``fit`` and ``set_parameters``.
* ``float32``, the opt-in fast path, snapshots the weights once with both
  normalisers folded into the first and last layer and casts them; the
  matmuls then move half the bytes.  The snapshot is frozen: its holders
  rebuild it after every ``fit``.

Folding stays float32-only.  In float64 it reorders the normalisation
arithmetic (on a 24-entry model it moved single predictions by up to
3.6e-15), and it would only save two elementwise passes over 8 input and 1
output columns, next to two 64-wide hidden layers.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.data import resolve_float_dtype
from repro.nn.mlp import MLP
from repro.nn.training import Normalizer


def _relu_(x: np.ndarray) -> None:
    np.maximum(x, 0.0, out=x)


def _tanh_(x: np.ndarray) -> None:
    np.tanh(x, out=x)


def _sigmoid_(x: np.ndarray) -> None:
    # The same operations, in the same order, as layers._sigmoid.
    np.clip(x, -60.0, 60.0, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)
    np.add(x, 1.0, out=x)
    np.divide(1.0, x, out=x)


def _identity_(x: np.ndarray) -> None:
    pass


#: In-place twins of :data:`repro.nn.layers.ACTIVATIONS`, bit-identical to them.
_ACTIVATIONS_IN_PLACE: Dict[str, Callable[[np.ndarray], None]] = {
    "relu": _relu_,
    "tanh": _tanh_,
    "sigmoid": _sigmoid_,
    "identity": _identity_,
    "linear": _identity_,
}


#: One dense layer: ``(weights, bias, activation name)``.
_Layer = Tuple[np.ndarray, np.ndarray, str]


class CompiledInferenceNetwork:
    """A fitted MLP run forward-only, optionally with its data normalisers.

    Contract:

    * **Exact in float64.**  The network holds the MLP's own weight and bias
      arrays, which training and ``MLP.set_parameters`` update in place, and
      reads the normalisers' current ``mean``/``std`` on every call, so its
      output is bit-identical to ``target_normalizer.inverse_transform(
      mlp.forward(input_normalizer.transform(x)))`` and never goes stale.
    * **Folded in float32.**  The weights are copied once, with the input
      normaliser folded into the first layer (``W' = W/σ``,
      ``b' = b - (μ/σ)·W``) and the target normaliser into a linear output
      layer (``W' = W·σ_t``, ``b' = b·σ_t + μ_t``), all in float64 before
      the cast.  Refitting the MLP does not update the copy.
    * **Reused buffers.**  The normalised input and every hidden activation
      live in per-instance buffers that grow to the largest batch seen;
      smaller batches use leading slices of them.  They are scratch state
      and are not pickled.
    * **No aliasing.**  :meth:`forward` returns a freshly allocated array,
      never a view of a buffer, so a later call cannot change it.
    * **Not thread-safe.**  Two concurrent calls on one instance share the
      buffers; give each thread its own instance.

    Every matmul operand is C-contiguous and shaped as in ``MLP.forward``, so
    numpy dispatches the same BLAS routine at every batch size.
    """

    def __init__(
        self,
        mlp: MLP,
        dtype: Union[str, np.dtype] = np.float32,
        input_normalizer: Optional[Normalizer] = None,
        target_normalizer: Optional[Normalizer] = None,
    ):
        self.dtype = resolve_float_dtype(dtype)
        self.input_dim = mlp.input_dim
        self.output_dim = mlp.output_dim
        self._layers: List[_Layer]  # the output layer last
        if self.dtype == np.float64:
            self._layers = [
                (layer.weights, layer.bias, layer.activation_name) for layer in mlp.layers
            ]
            self._input_normalizer = input_normalizer
            self._target_normalizer = target_normalizer
        else:
            self._layers = _fold(mlp, self.dtype, input_normalizer, target_normalizer)
            self._input_normalizer = None
            self._target_normalizer = None
        self._buffers: List[np.ndarray] = []
        self._capacity = 0

    @property
    def num_layers(self) -> int:
        """Number of dense layers, output layer included."""
        return len(self._layers)

    def _scratch(self, rows: int) -> List[np.ndarray]:
        """Leading ``rows`` of the input buffer and of each hidden-layer buffer."""
        if rows > self._capacity or not self._buffers:
            widths = [self.input_dim] + [weights.shape[1] for weights, _, _ in self._layers[:-1]]
            self._buffers = [np.empty((rows, width), dtype=self.dtype) for width in widths]
            self._capacity = rows
        return [buffer[:rows] for buffer in self._buffers]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward pass in the compiled dtype; returns a new ``(n, output_dim)`` array.

        The input is cast once (a no-op when the caller already holds the
        compiled dtype); a 1-D input is one row.
        """
        out = np.asarray(x, dtype=self.dtype)
        if out.ndim == 1:
            out = out.reshape(1, -1)
        rows = out.shape[0]
        scratch = self._scratch(rows)
        if self._input_normalizer is not None:
            np.subtract(out, self._input_normalizer.mean, out=scratch[0])
            out = np.divide(scratch[0], self._input_normalizer.std, out=scratch[0])
        *hidden, output = self._layers
        for layer, buffer in zip(hidden, scratch[1:]):
            out = _dense(out, layer, buffer)
        out = _dense(out, output, np.empty((rows, self.output_dim), dtype=self.dtype))
        if self._target_normalizer is not None:
            np.multiply(out, self._target_normalizer.std, out=out)
            np.add(out, self._target_normalizer.mean, out=out)
        return out

    __call__ = forward

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_buffers"] = []
        state["_capacity"] = 0
        return state


def _dense(x: np.ndarray, layer: _Layer, out: np.ndarray) -> np.ndarray:
    """``activation(x @ weights + bias)`` written into ``out``."""
    weights, bias, activation_name = layer
    np.matmul(x, weights, out=out)
    np.add(out, bias, out=out)
    _ACTIVATIONS_IN_PLACE[activation_name](out)
    return out


def _fold(
    mlp: MLP,
    dtype: np.dtype,
    input_normalizer: Optional[Normalizer],
    target_normalizer: Optional[Normalizer],
) -> List[_Layer]:
    """Copy ``mlp``'s layers with the normalisers folded in, cast to ``dtype``."""
    layers = [
        [layer.weights.astype(np.float64), layer.bias.astype(np.float64), layer.activation_name]
        for layer in mlp.layers
    ]
    if input_normalizer is not None:
        mean = np.asarray(input_normalizer.mean, dtype=np.float64)
        std = np.asarray(input_normalizer.std, dtype=np.float64)
        weights, bias, _act = layers[0]
        layers[0][1] = bias - (mean / std) @ weights
        layers[0][0] = weights / std[:, np.newaxis]
    if target_normalizer is not None:
        if layers[-1][2] not in ("identity", "linear"):
            raise ValueError("Target normalisation can only be folded into a linear output layer")
        mean = np.asarray(target_normalizer.mean, dtype=np.float64)
        std = np.asarray(target_normalizer.std, dtype=np.float64)
        layers[-1][0] = layers[-1][0] * std
        layers[-1][1] = layers[-1][1] * std + mean
    return [
        (
            np.ascontiguousarray(weights, dtype=dtype),
            np.ascontiguousarray(bias, dtype=dtype),
            activation_name,
        )
        for weights, bias, activation_name in layers
    ]
