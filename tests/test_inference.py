"""The forward-only inference path of the dynamics models.

Float64 predictions must stay bit-identical to the training network (with
the normalisers applied the way ``Normalizer`` applies them) whatever the
batch sizes seen before, must never alias the reused buffers, must follow
the live weights, and must survive pickling.  ``np.ndarray.tobytes``
comparisons make "bit-identical" literal.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.nn.dynamics import EnsembleDynamicsModel, ThermalDynamicsModel
from repro.nn.inference import CompiledInferenceNetwork
from repro.nn.mlp import MLP

ROW_COUNTS = (1, 7, 1920, 5000)


@pytest.fixture(scope="module")
def history():
    from repro.agents.rule_based import RuleBasedAgent
    from repro.env.dataset import collect_historical_data
    from repro.env.hvac_env import make_environment

    environment = make_environment(city="pittsburgh", days=1, seed=0)
    return collect_historical_data(
        environment, RuleBasedAgent.from_config(environment), seed=1
    )


@pytest.fixture(scope="module")
def fitted_model(history):
    model = ThermalDynamicsModel(hidden_sizes=(64, 64), seed=2)
    model.fit(history, epochs=4, seed=3)
    return model


def _raw_rows(rows, seed):
    rng = np.random.default_rng(seed)
    return np.hstack(
        [
            rng.uniform(15, 30, size=(rows, 1)),
            rng.uniform(0, 1, size=(rows, 5)),
            rng.uniform(15, 28, size=(rows, 2)),
        ]
    )


def _predict(model, raw):
    return model.predict(raw[:, 0], raw[:, 1:6], raw[:, 6:])


def _training_reference(model, raw):
    """The training network's forward pass, normalised as ``fit`` saw it."""
    x = model.input_normalizer.transform(raw)
    y = model.target_normalizer.inverse_transform(model.network.forward(x))
    return y[:, 0] + raw[:, 0]


@pytest.mark.parametrize(
    "order", [ROW_COUNTS, ROW_COUNTS[::-1]], ids=["small-first", "large-first"]
)
def test_float64_predict_is_the_training_network_bit_for_bit(fitted_model, order):
    model = copy.deepcopy(fitted_model)
    for rows in order:
        raw = _raw_rows(rows, seed=rows)
        predictions = _predict(model, raw)
        assert predictions.dtype == np.float64
        assert predictions.shape == (rows,)
        assert predictions.tobytes() == _training_reference(model, raw).tobytes(), rows


def test_ensemble_mean_and_std_are_the_members_bit_for_bit(history):
    model = EnsembleDynamicsModel(num_members=3, hidden_sizes=(64, 64), seed=4)
    model.fit(history, epochs=2, seed=5)
    for rows in (1920, 1, 7):
        raw = _raw_rows(rows, seed=rows)
        mean, std = _predict(model, raw)
        x = model.input_normalizer.transform(raw)
        members = np.stack(
            [
                model.target_normalizer.inverse_transform(member.forward(x))
                for member in model.ensemble.members
            ]
        )
        assert mean.tobytes() == (members.mean(axis=0)[:, 0] + raw[:, 0]).tobytes(), rows
        assert std.tobytes() == members.std(axis=0)[:, 0].tobytes(), rows


@pytest.mark.parametrize("predict_delta", [True, False])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_a_returned_prediction_is_not_changed_by_the_next_call(history, dtype, predict_delta):
    model = ThermalDynamicsModel(hidden_sizes=(64, 64), seed=2, predict_delta=predict_delta)
    model.fit(history, epochs=2, seed=3)
    model.set_inference_dtype(dtype)
    first = _predict(model, _raw_rows(64, seed=0))
    kept = first.copy()
    _predict(model, _raw_rows(64, seed=1))
    _predict(model, _raw_rows(16, seed=2))
    assert first.tobytes() == kept.tobytes()


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_forward_returns_a_fresh_array_of_the_compiled_dtype(dtype):
    mlp = MLP(8, 1, hidden_sizes=(32, 32), seed=0)
    network = CompiledInferenceNetwork(mlp, dtype=dtype)
    x = _raw_rows(50, seed=0)
    first = network.forward(x)
    kept = first.copy()
    second = network.forward(x[:10])
    assert first.dtype == second.dtype == np.dtype(dtype)
    assert first.shape == (50, 1) and second.shape == (10, 1)
    assert not np.shares_memory(first, second)
    assert first.tobytes() == kept.tobytes()


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_zero_rows_predict_an_empty_array(history, dtype):
    model = ThermalDynamicsModel(hidden_sizes=(64, 64), seed=2).set_inference_dtype(dtype)
    model.fit(history, epochs=1, seed=3)
    for rows in (0, 5, 0):  # before and after the buffers exist
        predictions = _predict(model, _raw_rows(rows, seed=rows))
        assert predictions.dtype == np.float64 and predictions.shape == (rows,)


def test_float64_predictions_follow_the_live_weights(fitted_model):
    model = copy.deepcopy(fitted_model)
    raw = _raw_rows(256, seed=8)
    before = _predict(model, raw)  # builds the compiled network
    parameters = model.network.get_parameters()
    for layer in parameters:
        layer["weights"] *= 1.5
        layer["bias"] += 0.25
    model.network.set_parameters(parameters)
    after = _predict(model, raw)
    assert not np.array_equal(before, after)
    assert after.tobytes() == _training_reference(model, raw).tobytes()


def test_a_pickled_model_predicts_identically_without_its_buffers(fitted_model):
    model = copy.deepcopy(fitted_model)
    raw = _raw_rows(5000, seed=9)
    expected = _predict(model, raw)  # grows the buffers to 5000 rows
    blob = pickle.dumps(model)
    # Two 5000x64 float64 hidden buffers alone would be 5 MB.
    assert len(blob) < 200_000
    restored = pickle.loads(blob)
    assert _predict(restored, raw).tobytes() == expected.tobytes()
    assert _predict(restored, raw[:3]).tobytes() == expected[:3].tobytes()

    # The restored compiled network still reads the restored network's weights.
    parameters = restored.network.get_parameters()
    parameters[0]["bias"] += 0.5
    restored.network.set_parameters(parameters)
    assert _predict(restored, raw).tobytes() == _training_reference(restored, raw).tobytes()


@pytest.mark.parametrize("activation", ["relu", "tanh", "sigmoid", "identity"])
def test_float64_network_equals_mlp_forward_for_every_activation(activation):
    mlp = MLP(8, 2, hidden_sizes=(64, 32), activation=activation, seed=11)
    network = CompiledInferenceNetwork(mlp, dtype="float64")
    rng = np.random.default_rng(12)
    for rows in (700, 1, 33):
        # Wide inputs push sigmoid into its clipped range too.
        x = rng.normal(0.0, 40.0, size=(rows, 8))
        assert network.forward(x).tobytes() == mlp.forward(x).tobytes(), rows
