"""Columnar data plane: schema types, columnar↔legacy equivalence, dtype policy.

Three layers of guarantees:

* the schema types themselves (validation, slicing, concat, numpy interop),
* every columnar layer boundary produces exactly what the legacy object path
  produced — env infos, agent action batches — and server responses match
  the recursive tree reference row for row,
* the float32 dynamics fast path tracks the float64 reference closely enough
  that distilled labels agree (the acceptance bar is >= 99.5%).
"""

import numpy as np
import pytest

from repro.data import (
    ActionBatch,
    InfoBatch,
    ObservationBatch,
    PolicyRequestBatch,
    PolicyResponseBatch,
    resolve_float_dtype,
)

N_FEATURES = 6
ACTION_PAIRS = [(15 + i, 22 + i) for i in range(8)]


def random_policy(seed: int, rows: int = 160):
    from repro.core.tree_policy import TreePolicy
    from repro.dtree.cart import DecisionTreeClassifier

    rng = np.random.default_rng(seed)
    features = rng.uniform(-5.0, 5.0, size=(rows, N_FEATURES))
    labels = rng.integers(0, len(ACTION_PAIRS), size=rows)
    tree = DecisionTreeClassifier(max_depth=int(rng.integers(2, 9)))
    tree.fit(features, labels)
    return TreePolicy(tree, action_pairs=ACTION_PAIRS)


# ---------------------------------------------------------------- schema
def test_resolve_float_dtype():
    assert resolve_float_dtype("float32") == np.float32
    assert resolve_float_dtype(np.float64) == np.float64
    with pytest.raises(ValueError, match="float"):
        resolve_float_dtype("int32")
    with pytest.raises(ValueError, match="float"):
        resolve_float_dtype("no-such-dtype")  # unparseable strings too


def test_observation_batch_coercion_and_views():
    rows = np.arange(12, dtype=np.int64).reshape(2, 6)
    batch = ObservationBatch(rows)  # ints coerce to the float64 reference
    assert batch.values.dtype == np.float64
    assert len(batch) == 2 and batch.num_features == 6
    # float32 is preserved, not silently upcast.
    batch32 = ObservationBatch(np.zeros((3, 6), dtype=np.float32))
    assert batch32.dtype == np.float32
    # Named columns are zero-copy views into the matrix.
    column = batch.column("outdoor_temperature")
    assert np.array_equal(column, batch.values[:, 1])
    assert column.base is batch.values
    with pytest.raises(KeyError, match="available"):
        batch.column("nope")
    # numpy interop: asarray and integer row indexing.
    assert np.asarray(batch) is batch.values
    assert np.array_equal(batch[1], rows[1].astype(float))


def test_observation_batch_validation():
    with pytest.raises(ValueError, match="dimension"):
        ObservationBatch(np.zeros(6))
    with pytest.raises(ValueError, match="feature name"):
        ObservationBatch(np.zeros((2, 4)))  # 4 columns vs 6 declared names
    named = ObservationBatch.from_rows(np.zeros((2, 4)))
    assert named.feature_names == ("f0", "f1", "f2", "f3")


def test_observation_batch_slice_take_concat_astype():
    values = np.random.default_rng(0).uniform(size=(10, 6))
    batch = ObservationBatch(values)
    window = batch.slice(2, 5)
    assert len(window) == 3
    assert window.values.base is not None  # zero-copy view
    picked = batch.take([0, 9, 3])
    assert np.array_equal(picked.values, values[[0, 9, 3]])
    merged = ObservationBatch.concat([window, picked])
    assert len(merged) == 6
    assert merged.feature_names == batch.feature_names
    as32 = batch.astype("float32")
    assert as32.dtype == np.float32
    assert batch.astype(np.float64) is batch  # no-op stays zero-copy


def test_batch_getitem_honours_slice_step():
    values = np.arange(60, dtype=float).reshape(10, 6)
    batch = ObservationBatch(values)
    assert np.array_equal(batch[::2].values, values[::2])
    assert np.array_equal(batch[::-1].values, values[::-1])
    assert np.array_equal(batch[1:8:3].values, values[1:8:3])
    actions = ActionBatch.from_indices(np.arange(10))
    assert actions[::2].tolist() == list(range(0, 10, 2))
    assert actions[::-1].tolist() == list(range(9, -1, -1))
    # Tuple (row, col) indexing is a legacy-ndarray habit; reject it loudly
    # instead of silently fancy-indexing rows.
    with pytest.raises(TypeError, match="rows only"):
        batch[0, 1]
    with pytest.raises(TypeError, match="rows only"):
        actions[0, 1]


def test_env_resolves_action_batch_through_index_column():
    # Setpoint columns on an ActionBatch are informational: the environment
    # must resolve through the validated index path, exactly like the serial
    # reference (out-of-range setpoint columns must not leak into the plant).
    from repro.env.vector_env import BatchedHVACEnvironment
    from repro.experiments.scenarios import get_scenario

    spec = get_scenario("pittsburgh/winter", days=1)
    make = lambda: BatchedHVACEnvironment([spec.build_environment(seed=1)])
    plain, decorated = make(), make()
    plain.reset(), decorated.reset()
    indices = np.array([2])
    bad_setpoints = ActionBatch(
        indices, heating_setpoints=[99.0], cooling_setpoints=[-99.0]
    )
    reference = plain.step(ActionBatch(indices))
    result = decorated.step(bad_setpoints)
    assert np.array_equal(
        reference.info.heating_setpoint, result.info.heating_setpoint
    )
    assert np.array_equal(np.asarray(reference.observations), np.asarray(result.observations))


def test_action_batch_roundtrip():
    batch = ActionBatch.from_indices([2, 0, 5])
    assert batch.tolist() == [2, 0, 5]
    assert not batch.has_setpoints
    resolved = batch.with_setpoints(np.asarray(ACTION_PAIRS, dtype=float))
    assert resolved.has_setpoints
    assert np.array_equal(resolved.heating_setpoints, [17.0, 15.0, 20.0])
    assert np.array_equal(resolved.cooling_setpoints, [24.0, 22.0, 27.0])
    assert np.asarray(batch).dtype == np.int64
    assert batch[1] == 0


def test_columnar_batch_rejects_row_count_mismatch():
    with pytest.raises(ValueError, match="rows"):
        ActionBatch(
            np.zeros(3, dtype=np.int64),
            heating_setpoints=np.zeros(4),
            cooling_setpoints=np.zeros(4),
        )
    with pytest.raises(ValueError, match="rows"):
        PolicyRequestBatch(policy_ids=np.array(["a", "b"]), observations=np.zeros((3, 6)))


def test_info_batch_mapping_protocol():
    info = InfoBatch(
        step=4,
        hour_of_day=np.array([8.0, 9.0]),
        occupied=np.array([1.0, 0.0]),
        zone_temperature=np.array([21.5, 19.0]),
    )
    assert info["step"] == 4
    assert "zone_temperature" in info
    assert "energy_proxy" not in info  # optional column left out
    assert set(info.keys()) >= {"step", "hour_of_day", "occupied"}
    with pytest.raises(KeyError):
        info["energy_proxy"]
    materialised = info.episode_info(1)
    assert materialised["step"] == 4
    assert materialised["zone_temperature"] == 19.0
    assert info.to_dict()["occupied"].dtype == np.float64
    with pytest.raises(ValueError, match="required"):
        InfoBatch(step=0, hour_of_day=None, occupied=np.zeros(2))


def test_policy_request_batch_grouping_cached():
    ids = np.array(["b", "a", "b", "c", "a"])
    batch = PolicyRequestBatch(policy_ids=ids, observations=np.zeros((5, 6)))
    codes, uniques = batch.grouping()
    assert uniques.tolist() == ["a", "b", "c"]
    assert codes.tolist() == [1, 0, 1, 2, 0]
    assert batch.grouping()[0] is codes  # cached, not recomputed
    assert batch.num_policies == 3
    single = PolicyRequestBatch.single_policy("only", np.zeros((4, 6)))
    assert single.num_policies == 1 and len(single) == 4


# ------------------------------------------------- env: columnar infos
def test_batched_env_info_columns_match_serial_dicts():
    from repro.env.vector_env import BatchedHVACEnvironment
    from repro.experiments.scenarios import get_scenario

    spec = get_scenario("pittsburgh/winter", days=1)
    seeds = [11, 12, 13]
    serial_envs = [spec.build_environment(seed=s) for s in seeds]
    batched = BatchedHVACEnvironment([spec.build_environment(seed=s) for s in seeds])

    rng = np.random.default_rng(0)
    observations, reset_info = batched.reset()
    assert isinstance(observations, ObservationBatch)
    assert isinstance(reset_info, InfoBatch)
    serial_obs = [env.reset()[0] for env in serial_envs]
    for i, obs in enumerate(serial_obs):
        assert np.array_equal(obs, observations[i])

    for step in range(24):
        actions = rng.integers(0, len(batched._pairs), size=len(seeds))
        result = batched.step(ActionBatch(actions))
        assert isinstance(result.info, InfoBatch)
        for i, env in enumerate(serial_envs):
            serial_result = env.step(int(actions[i]))
            assert np.array_equal(serial_result.observation, result.observations[i])
            episode = result.episode_info(i)
            for key, value in serial_result.info.items():
                assert episode[key] == value, f"{key} diverged at step {step}"


# ------------------------------------------- agents: columnar action batches
def test_select_actions_batch_accepts_observation_batch():
    from repro.agents import make_agent
    from repro.agents.base import BaseAgent
    from repro.agents.rule_based import RuleBasedAgent
    from repro.experiments.scenarios import get_scenario

    spec = get_scenario("tucson/summer", days=1)
    seeds = [3, 4]
    environments = [spec.build_environment(seed=s) for s in seeds]
    stacked = np.stack([env.reset()[0] for env in environments])
    batch_obs = ObservationBatch(stacked)

    rule_agents = [
        make_agent("rule_based", environment=e, seed=s)
        for e, s in zip(environments, seeds)
    ]
    for step in (0, 5, 40):
        from_batch = RuleBasedAgent.select_actions_batch(
            rule_agents, batch_obs, environments, step
        )
        from_array = RuleBasedAgent.select_actions_batch(
            rule_agents, stacked, environments, step
        )
        assert isinstance(from_batch, ActionBatch)
        assert from_batch.tolist() == from_array.tolist()
        reference = [
            agent.select_action(stacked[i], environments[i], step)
            for i, agent in enumerate(rule_agents)
        ]
        assert from_batch.tolist() == reference

    constant_agents = [
        make_agent("constant", environment=e, seed=s)
        for e, s in zip(environments, seeds)
    ]
    default_path = BaseAgent.select_actions_batch(
        constant_agents, batch_obs, environments, 0
    )
    assert isinstance(default_path, ActionBatch)
    assert default_path.tolist() == [
        agent.select_action(batch_obs[i], environments[i], 0)
        for i, agent in enumerate(constant_agents)
    ]


# --------------------------------------------- serving: columnar vs reference
def test_serve_columnar_keeps_request_order_and_actions(tmp_path):
    from repro.serving import PolicyServer

    server = PolicyServer(store=str(tmp_path))
    policies = {f"building-{seed}": random_policy(seed) for seed in range(3)}
    for policy_id, policy in policies.items():
        server.register(policy_id, policy)
    ids = list(policies)

    rng = np.random.default_rng(7)
    rows = 257  # deliberately not a multiple of the policy count
    observations = rng.uniform(-6.0, 6.0, size=(rows, N_FEATURES))
    # Shuffled interleaving: every row must come back in request order.
    assigned = np.array([ids[i] for i in rng.integers(0, len(ids), size=rows)])
    batch = PolicyRequestBatch(policy_ids=assigned, observations=observations)

    for _ in range(2):
        columnar = server.serve_columnar(batch)
        assert isinstance(columnar, PolicyResponseBatch)
        assert len(columnar) == rows
        for i in range(rows):
            policy = policies[assigned[i]]
            index = policy.predict_action_index(observations[i])
            assert str(columnar.policy_ids[i]) == assigned[i]
            assert int(columnar.action_indices[i]) == index
            assert (
                int(columnar.heating_setpoints[i]),
                int(columnar.cooling_setpoints[i]),
            ) == policy.decode_action(index)
    # Both batches are counted, row for row.
    assert server.stats.requests == 2 * rows
    assert server.stats.batches == 2
    counts = server.stats.per_policy_requests
    for policy_id in ids:
        assert counts[policy_id] == 2 * int(np.sum(assigned == policy_id))


def test_serve_columnar_single_policy_and_empty_and_unknown(tmp_path):
    from repro.serving import PolicyServer, UnknownPolicyError

    server = PolicyServer(store=str(tmp_path))
    server.register("lone", random_policy(5))
    observations = np.random.default_rng(1).uniform(-6, 6, size=(33, N_FEATURES))
    response = server.serve_columnar(
        PolicyRequestBatch.single_policy("lone", observations)
    )
    expected = random_policy(5).predict_action_indices(observations)
    assert np.array_equal(response.action_indices, expected)

    empty = server.serve_columnar(
        PolicyRequestBatch(
            policy_ids=np.empty(0, dtype=str), observations=np.empty((0, N_FEATURES))
        )
    )
    assert len(empty) == 0

    with pytest.raises(UnknownPolicyError):
        server.serve_columnar(
            PolicyRequestBatch.single_policy("missing", observations[:1])
        )


def test_serve_columnar_decodes_a_byte_string_id_column(tmp_path):
    from repro.serving import PolicyServer

    server = PolicyServer(store=str(tmp_path))
    ids = [f"building-{seed}" for seed in range(3)]
    for seed, policy_id in enumerate(ids):
        server.register(policy_id, random_policy(seed))
    rng = np.random.default_rng(11)
    assigned = np.array(ids)[rng.integers(0, len(ids), size=64)]
    observations = rng.uniform(-6.0, 6.0, size=(64, N_FEATURES))

    as_str = server.serve_columnar(
        PolicyRequestBatch(policy_ids=assigned, observations=observations)
    )
    as_bytes = server.serve_columnar(
        PolicyRequestBatch(
            policy_ids=np.char.encode(assigned, "utf-8"), observations=observations
        )
    )
    assert as_bytes.policy_ids.dtype.kind == "U"
    assert np.array_equal(as_bytes.policy_ids, assigned)
    assert np.array_equal(as_bytes.action_indices, as_str.action_indices)
    assert np.array_equal(as_bytes.heating_setpoints, as_str.heating_setpoints)
    assert np.array_equal(as_bytes.cooling_setpoints, as_str.cooling_setpoints)


# ----------------------------------------------------- float32 dtype policy
def _tiny_fitted_model(hidden=(32, 32)):
    from repro.agents.rule_based import RuleBasedAgent
    from repro.env.dataset import collect_historical_data
    from repro.env.hvac_env import make_environment
    from repro.nn.dynamics import ThermalDynamicsModel

    environment = make_environment(city="pittsburgh", days=1, seed=0)
    data = collect_historical_data(
        environment, RuleBasedAgent.from_config(environment), seed=1
    )
    model = ThermalDynamicsModel(hidden_sizes=hidden, seed=2)
    model.fit(data, epochs=8, seed=3)
    return environment, data, model


def test_float32_dynamics_predictions_track_float64():
    environment, _data, model = _tiny_fitted_model()
    rng = np.random.default_rng(4)
    states = rng.uniform(15, 30, size=500)
    disturbances = rng.uniform(0, 1, size=(500, 5))
    actions = rng.uniform(15, 28, size=(500, 2))
    reference = model.predict(states, disturbances, actions)
    assert model.inference_dtype == np.float64

    model.set_inference_dtype("float32")
    assert model.inference_dtype == np.float32
    fast = model.predict(states, disturbances, actions)
    assert fast.dtype == np.float64  # de-normalised back in the reference dtype
    assert np.allclose(fast, reference, atol=1e-3, rtol=1e-5)
    assert not np.array_equal(fast, reference)  # genuinely a different path

    # Switching back restores bit-exactness with the training network.
    model.set_inference_dtype("float64")
    assert np.array_equal(model.predict(states, disturbances, actions), reference)
    with pytest.raises(ValueError):
        model.set_inference_dtype("int8")


def test_float32_refit_invalidates_compiled_network():
    environment, data, model = _tiny_fitted_model(hidden=(16,))
    rng = np.random.default_rng(5)
    states = rng.uniform(15, 30, size=64)
    disturbances = rng.uniform(0, 1, size=(64, 5))
    actions = rng.uniform(15, 28, size=(64, 2))
    model.set_inference_dtype("float32")
    before = model.predict(states, disturbances, actions)
    model.fit(data, epochs=8, seed=99)  # different seed -> different weights
    after = model.predict(states, disturbances, actions)
    assert not np.array_equal(before, after)
    assert np.allclose(
        after,
        model.set_inference_dtype("float64").predict(states, disturbances, actions),
        atol=1e-3,
    )


def test_float32_ensemble_tracks_float64():
    from repro.env.dataset import collect_historical_data
    from repro.env.hvac_env import make_environment
    from repro.agents.rule_based import RuleBasedAgent
    from repro.nn.dynamics import EnsembleDynamicsModel

    environment = make_environment(city="pittsburgh", days=1, seed=0)
    data = collect_historical_data(
        environment, RuleBasedAgent.from_config(environment), seed=1
    )
    model = EnsembleDynamicsModel(num_members=2, hidden_sizes=(8,), seed=2)
    model.fit(data, epochs=4, seed=3)
    rng = np.random.default_rng(6)
    states = rng.uniform(15, 30, size=128)
    disturbances = rng.uniform(0, 1, size=(128, 5))
    actions = rng.uniform(15, 28, size=(128, 2))
    mean64, std64 = model.predict(states, disturbances, actions)
    model.set_inference_dtype("float32")
    mean32, std32 = model.predict(states, disturbances, actions)
    assert np.allclose(mean32, mean64, atol=1e-3)
    assert np.allclose(std32, std64, atol=1e-3)


def test_float32_distillation_label_agreement():
    from repro.agents.random_shooting import RandomShootingOptimizer
    from repro.core.decision_dataset import DecisionDatasetGenerator
    from repro.core.sampling import AugmentedHistoricalSampler

    environment, data, model = _tiny_fitted_model()
    optimizer = RandomShootingOptimizer(
        dynamics_model=model,
        action_space=environment.action_space,
        reward_config=environment.config.reward,
        action_config=environment.config.actions,
        num_samples=48,
        horizon=5,
        seed=7,
    )
    generator = DecisionDatasetGenerator(
        optimizer=optimizer,
        sampler=AugmentedHistoricalSampler.from_dataset(data),
        action_pairs=environment.action_space.pairs,
        monte_carlo_runs=3,
        planning_horizon=5,
    )
    reference = generator.generate(96, seed=11)
    model.set_inference_dtype("float32")
    fast = generator.generate(96, seed=11)
    agreement = float(np.mean(reference.action_labels == fast.action_labels))
    assert agreement >= 0.995, f"float32 labels diverged: agreement {agreement:.3f}"
    # The distillation inputs are drawn before any model call, so both runs
    # labelled identical observations.
    assert np.array_equal(reference.inputs, fast.inputs)


def test_distillation_accepts_observation_batch():
    from repro.agents.random_shooting import RandomShootingOptimizer
    from repro.core.decision_dataset import DecisionDatasetGenerator
    from repro.core.sampling import AugmentedHistoricalSampler

    environment, data, model = _tiny_fitted_model(hidden=(16,))
    optimizer = RandomShootingOptimizer(
        dynamics_model=model,
        action_space=environment.action_space,
        reward_config=environment.config.reward,
        action_config=environment.config.actions,
        num_samples=16,
        horizon=3,
        seed=8,
    )
    generator = DecisionDatasetGenerator(
        optimizer=optimizer,
        sampler=AugmentedHistoricalSampler.from_dataset(data),
        action_pairs=environment.action_space.pairs,
        monte_carlo_runs=2,
        planning_horizon=3,
    )
    rng = np.random.default_rng(12)
    inputs = generator.sampler.sample(24, rng)
    from_array = generator.distill_decisions(inputs, rng=np.random.default_rng(1))
    from_batch = generator.distill_decisions(
        ObservationBatch(inputs), rng=np.random.default_rng(1)
    )
    assert np.array_equal(from_array, from_batch)
    dataset = generator.generate(24, seed=13)
    assert isinstance(dataset.observation_batch(), ObservationBatch)
    actions = dataset.action_batch()
    assert isinstance(actions, ActionBatch)
    assert actions.has_setpoints
    assert np.array_equal(actions.indices, dataset.action_labels)


def test_pipeline_config_dtype_policy():
    from repro.core.pipeline import PipelineConfig

    assert PipelineConfig.tiny().dtype == "float64"
    assert PipelineConfig.tiny(dtype="float32").dtype == "float32"
    with pytest.raises(ValueError):
        PipelineConfig.tiny(dtype="float16")


def test_pipeline_runs_with_float32_dtype():
    from repro.core.pipeline import PipelineConfig, VerifiedPolicyPipeline

    config = PipelineConfig.tiny(
        seed=31, num_decision_data=32, training_epochs=5, dtype="float32"
    )
    result = VerifiedPolicyPipeline(config, store=None).run()
    assert result.dynamics_model.inference_dtype == np.float32
    assert result.policy.node_count >= 1
    # The persisted config round-trips the dtype (it is part of the store key).
    assert result.config.dtype == "float32"
