"""Compiled serving: compiled-vs-recursive equivalence, server batching, CLI."""

import json

import numpy as np
import pytest

from repro.core.tree_policy import TreePolicy
from repro.data import PolicyRequestBatch
from repro.dtree.cart import DecisionTreeClassifier
from repro.dtree.node import TreeNode
from repro.serving import (
    CompiledTreeForest,
    CompiledTreePolicy,
    PolicyServer,
    ServerStats,
    UnknownPolicyError,
)
from repro.store import PolicyKey, PolicyStore

N_FEATURES = 6
ACTION_PAIRS = [(15 + i, 22 + i) for i in range(8)]
FEATURE_NAMES = [f"f{i}" for i in range(N_FEATURES)]


def random_policy(seed: int, rows: int = 160) -> TreePolicy:
    """A tree fitted on random data — irregular shape, random thresholds."""
    rng = np.random.default_rng(seed)
    features = rng.uniform(-5.0, 5.0, size=(rows, N_FEATURES))
    labels = rng.integers(0, len(ACTION_PAIRS), size=rows)
    tree = DecisionTreeClassifier(max_depth=int(rng.integers(2, 9)))
    tree.fit(features, labels)
    return TreePolicy(tree, action_pairs=ACTION_PAIRS, feature_names=FEATURE_NAMES)


def probe_inputs(policy: TreePolicy, seed: int, rows: int = 400) -> np.ndarray:
    """Random probes plus every split threshold placed exactly on the boundary."""
    rng = np.random.default_rng(seed)
    inputs = rng.uniform(-6.0, 6.0, size=(rows, N_FEATURES))
    thresholds = [
        (node.feature_index, node.threshold)
        for node in policy.tree.root.iter_nodes()
        if not node.is_leaf
    ]
    for row, (feature, threshold) in enumerate(thresholds[: len(inputs)]):
        inputs[row, feature] = threshold  # the <= / > boundary case
    return inputs


# ------------------------------------------------------------- equivalence
@pytest.mark.parametrize("seed", range(8))
def test_compiled_matches_recursive_on_random_trees(seed):
    policy = random_policy(seed)
    compiled = CompiledTreePolicy.from_policy(policy)
    inputs = probe_inputs(policy, seed + 100)
    assert np.array_equal(
        compiled.predict_batch(inputs), policy.predict_action_indices(inputs)
    )


def test_compiled_matches_recursive_on_pipeline_policy():
    from repro.core.pipeline import PipelineConfig, VerifiedPolicyPipeline

    result = VerifiedPolicyPipeline(
        PipelineConfig.tiny(seed=21, num_decision_data=48, training_epochs=8)
    ).run()
    policy = result.policy
    compiled = policy.compiled()
    assert compiled.node_count == policy.node_count
    assert compiled.leaf_count == policy.leaf_count
    inputs = probe_inputs(policy, 22, rows=600)
    assert np.array_equal(
        compiled.predict_batch(inputs), policy.predict_action_indices(inputs)
    )
    # Setpoint decoding matches the recursive path too.
    setpoints = compiled.setpoints_batch(inputs[:32])
    expected = np.array([policy.setpoints_for(row) for row in inputs[:32]])
    assert np.array_equal(setpoints, expected)


def test_compiled_single_leaf_tree():
    tree = DecisionTreeClassifier()
    tree.fit(np.zeros((4, N_FEATURES)), np.full(4, 3))
    policy = TreePolicy(tree, action_pairs=ACTION_PAIRS)
    compiled = CompiledTreePolicy.from_policy(policy)
    assert compiled.predict_batch(np.zeros((5, N_FEATURES))).tolist() == [3] * 5


def test_compiled_rejects_bad_input_shape():
    compiled = CompiledTreePolicy.from_policy(random_policy(0))
    with pytest.raises(ValueError, match="shape"):
        compiled.predict_batch(np.zeros((3, N_FEATURES + 1)))


def test_forest_routes_each_row_through_its_own_tree():
    policies = [random_policy(seed) for seed in range(5)]
    forest = CompiledTreeForest.from_policies(policies)
    rng = np.random.default_rng(9)
    inputs = rng.uniform(-6.0, 6.0, size=(len(policies), N_FEATURES))
    expected = np.array(
        [policy.predict_action_index(inputs[i]) for i, policy in enumerate(policies)]
    )
    assert np.array_equal(forest.predict_rows(inputs), expected)


def test_forest_rejects_mixed_dimensions():
    small_tree = DecisionTreeClassifier()
    small_tree.fit(np.random.default_rng(0).uniform(size=(10, 2)), np.arange(10) % 2)
    small = TreePolicy(small_tree, action_pairs=ACTION_PAIRS, feature_names=["a", "b"])
    with pytest.raises(ValueError, match="dimension"):
        CompiledTreeForest.from_policies([random_policy(0), small])


# ------------------------------------------------------------------ server
def test_server_batches_across_policies(tmp_path):
    server = PolicyServer(store=str(tmp_path))
    policies = {f"building-{i}": random_policy(i + 40) for i in range(3)}
    for policy_id, policy in policies.items():
        server.register(policy_id, policy)

    rng = np.random.default_rng(7)
    ids = np.array([f"building-{i % 3}" for i in range(64)])
    observations = rng.uniform(-5.0, 5.0, size=(64, N_FEATURES))
    response = server.serve_columnar(
        PolicyRequestBatch(policy_ids=ids, observations=observations)
    )
    assert len(response) == len(ids)
    for row, policy_id in enumerate(ids):
        policy = policies[policy_id]
        index = policy.predict_action_index(observations[row])
        heating, cooling = policy.decode_action(index)
        assert response.policy_ids[row] == policy_id
        assert response.action_indices[row] == index
        assert (response.heating_setpoints[row], response.cooling_setpoints[row]) == (
            heating,
            cooling,
        )
    assert server.stats.requests == 64
    assert server.stats.batches == 1


def test_server_lru_eviction_and_store_resolution(tmp_path):
    from repro.core.pipeline import PipelineConfig, VerifiedPolicyPipeline
    from repro.store import PolicyStore

    store = PolicyStore(tmp_path)
    tiny = dict(num_decision_data=48, training_epochs=8, num_probabilistic_samples=64)
    for seed in (31, 32):
        VerifiedPolicyPipeline(PipelineConfig.tiny(seed=seed, **tiny), store=store).run()
    ids = [entry.key.name for entry in store.entries()]
    assert len(ids) == 2

    server = PolicyServer(store=store)
    observation = np.full((1, N_FEATURES), 20.0)
    for policy_id in (ids[0], ids[1], ids[0]):  # ids[0] is compiled once, served again
        server.serve_columnar(PolicyRequestBatch.single_policy(policy_id, observation))
    assert server.stats.compile_count == 2
    assert server.stats.cache_misses == 2
    assert server.stats.cache_hits == 1

    with pytest.raises(UnknownPolicyError):
        server.serve_columnar(PolicyRequestBatch.single_policy("no/such/policy", observation))


# ------------------------------------------------- handle-keyed forest serving
def deep_policy(seed: int, leaves: int, spine: int = 15):
    """A tree of ``leaves`` leaves and depth >= ``spine``, sized like an extraction.

    The recorded extractions grow 69 (``PipelineConfig.tiny()``) to 361
    (``PipelineConfig()``) leaves at depth 15-23.  The first ``spine`` splits
    each split a child of the previous one, which guarantees the depth; the
    rest split leaves drawn uniformly.  Every split falls inside its leaf's
    input box, so every leaf is reachable, and thresholds are float32
    values, so a float32 row can sit exactly on a split too.  Returns the
    policy and one row inside every leaf's box.
    """
    rng = np.random.default_rng(seed)
    lows, highs = np.full(N_FEATURES, -6.0), np.full(N_FEATURES, 6.0)
    root = TreeNode(prediction=int(rng.integers(len(ACTION_PAIRS))))
    boxes = {id(root): (root, lows, highs)}

    def split(node: TreeNode) -> TreeNode:
        _, low, high = boxes.pop(id(node))
        feature = int(rng.integers(N_FEATURES))
        threshold = float(np.float32(rng.uniform(low[feature], high[feature])))
        node.feature_index, node.threshold, node.prediction = feature, threshold, 0
        left_high, right_low = high.copy(), low.copy()
        left_high[feature] = right_low[feature] = threshold
        node.left, node.right = (
            TreeNode(prediction=int(rng.integers(len(ACTION_PAIRS))), depth=node.depth + 1)
            for _ in range(2)
        )
        boxes[id(node.left)] = (node.left, low, left_high)
        boxes[id(node.right)] = (node.right, right_low, high)
        return node.left if rng.random() < 0.5 else node.right

    node = root
    for _ in range(spine):
        node = split(node)
    while len(boxes) < leaves:
        keys = list(boxes)
        split(boxes[keys[int(rng.integers(len(keys)))]][0])
    tree = DecisionTreeClassifier()
    tree.n_features = N_FEATURES
    tree.root = root
    tree.classes_ = np.arange(len(ACTION_PAIRS))
    policy = TreePolicy(tree, action_pairs=ACTION_PAIRS, feature_names=FEATURE_NAMES)
    inside = np.array([rng.uniform(low, high) for _, low, high in boxes.values()])
    return policy, inside


def deep_probes(seed: int, leaves: int):
    """A :func:`deep_policy` and rows reaching every leaf and every split boundary."""
    policy, inside = deep_policy(seed, leaves)
    return policy, np.concatenate([inside, probe_inputs(policy, seed, rows=policy.node_count)])


def test_compiled_depth_does_not_trust_node_depth_fields():
    # A hand-built tree whose nodes all keep the default depth of 0.
    policy, inputs = deep_probes(3, leaves=40)
    for node in policy.tree.root.iter_nodes():
        node.depth = 0
    assert policy.depth == 0
    compiled = CompiledTreePolicy.from_policy(policy)
    assert compiled.depth >= 15
    assert np.array_equal(compiled.predict_batch(inputs), policy.predict_action_indices(inputs))


def test_forest_predict_gathers_each_trees_own_setpoints():
    policies = [random_policy(seed) for seed in range(4)]
    forest = CompiledTreeForest.from_policies(policies)
    rng = np.random.default_rng(3)
    trees = rng.integers(0, len(policies), size=300)
    inputs = rng.uniform(-6.0, 6.0, size=(300, N_FEATURES))
    actions, pairs = forest.predict(trees, inputs)
    for row, tree in enumerate(trees):
        expected = policies[tree].predict_action_index(inputs[row])
        assert actions[row] == expected
        assert tuple(pairs[row]) == policies[tree].decode_action(expected)
    with pytest.raises(ValueError, match=r"got \(300, 5\)"):
        forest.predict(trees, inputs[:, :5])


def _put(store: PolicyStore, seed: int, policy: TreePolicy) -> str:
    key = PolicyKey(
        city=f"city{seed}", season="summer", building="office", seed=seed,
        config_hash=f"{seed:012x}",
    )
    return store.put_policy(key, policy).key.name


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_mixed_batch_is_action_exact_at_extracted_tree_depth(tmp_path, dtype):
    store = PolicyStore(tmp_path)
    trees = [deep_probes(seed, n) for seed, n in enumerate((69, 361, 150, 240, 97, 300, 122))]
    assert all(policy.depth >= 15 for policy, _ in trees)
    arena_ids = [_put(store, seed, trees[seed][0]) for seed in range(3)]
    store.pack()
    json_ids = [_put(store, seed, trees[seed][0]) for seed in (3, 4)]  # JSON-only
    server = PolicyServer(store=store)
    assert server._arena_forest is not None
    # Trees 5 and 6 are registered, tree 6 under an arena id: it shadows tree 0.
    server.register("pinned/extra", trees[5][0])
    server.register(arena_ids[0], trees[6][0])
    served = dict(zip(arena_ids[1:] + json_ids + ["pinned/extra", arena_ids[0]], trees[1:]))
    policies = {policy_id: policy for policy_id, (policy, _) in served.items()}

    ids = np.concatenate([[policy_id] * len(rows) for policy_id, (_, rows) in served.items()])
    order = np.random.default_rng(8).permutation(len(ids))
    ids = ids[order]
    observations = np.concatenate([rows for _, rows in served.values()])[order].astype(dtype)

    response = server.serve_columnar(PolicyRequestBatch(policy_ids=ids, observations=observations))
    for policy_id, policy in policies.items():
        picked = ids == policy_id
        expected = policy.predict_action_indices(observations[picked])
        assert np.array_equal(response.action_indices[picked], expected), policy_id
        setpoints = np.asarray(policy.action_pairs)[expected]
        assert np.array_equal(response.heating_setpoints[picked], setpoints[:, 0])
        assert np.array_equal(response.cooling_setpoints[picked], setpoints[:, 1])
    stats = server.stats
    assert stats.arena_hits == len(arena_ids) - 1  # the shadowed id is not an arena hit
    assert stats.compile_count == stats.cache_misses == len(json_ids)
    assert stats.per_policy_requests == {
        policy_id: int(np.sum(ids == policy_id)) for policy_id in policies
    }
    server.close()


def test_more_json_only_ids_in_one_batch_than_the_cache_holds(tmp_path):
    store = PolicyStore(tmp_path)
    policies = {_put(store, seed, random_policy(seed + 60)): None for seed in range(6)}
    for policy_id in policies:
        policies[policy_id] = store.find(policy_id).policy
    server = PolicyServer(store=store, arena=False)
    rng = np.random.default_rng(4)
    ids = np.array(list(policies))[rng.integers(0, len(policies), size=500)]
    observations = rng.uniform(-6.0, 6.0, size=(500, N_FEATURES))
    batch = PolicyRequestBatch(policy_ids=ids, observations=observations)

    expected = np.empty(len(ids), dtype=np.int64)
    for policy_id, policy in policies.items():
        expected[ids == policy_id] = policy.predict_action_indices(observations[ids == policy_id])

    assert np.array_equal(server.serve_columnar(batch).action_indices, expected)
    # Each of the six policies is compiled once: six misses and compiles.
    stats = server.stats
    assert (stats.compile_count, stats.cache_misses, stats.cache_hits) == (6, 6, 0)
    # Again: all six are hits, and nothing is compiled twice.
    assert np.array_equal(server.serve_columnar(batch).action_indices, expected)
    assert (stats.cache_hits, stats.compile_count, stats.cache_misses) == (6, 6, 6)


def test_a_miss_after_lru_hits_keeps_every_row_on_its_own_tree(tmp_path):
    # [p, q] compiles p and q into the in-memory forest, [p] is served from
    # it, and [p, r] appends r after them.  Appending never moves a tree, so
    # each row must still reach its own policy's tree and be credited to its
    # own id.
    store = PolicyStore(tmp_path)
    p, q, r = (_put(store, seed, random_policy(seed + 80)) for seed in range(3))
    policies = {policy_id: store.find(policy_id).policy for policy_id in (p, q, r)}
    server = PolicyServer(store=store, arena=False)
    rng = np.random.default_rng(6)
    tally = {}
    for ids in ([p, q], [p], [p, r]):
        column = np.array(ids)[rng.integers(0, len(ids), size=300)]
        observations = rng.uniform(-6.0, 6.0, size=(300, N_FEATURES))
        batch = PolicyRequestBatch(policy_ids=column, observations=observations)
        actions = server.serve_columnar(batch).action_indices
        for policy_id in ids:
            picked = column == policy_id
            expected = policies[policy_id].predict_action_indices(observations[picked])
            assert np.array_equal(actions[picked], expected), (ids, policy_id)
            tally[policy_id] = tally.get(policy_id, 0) + int(picked.sum())
        assert server.stats.per_policy_requests == tally
    assert (server.stats.cache_hits, server.stats.cache_misses) == (2, 3)


def test_failed_batches_leave_stats_untouched(tmp_path):
    store = PolicyStore(tmp_path)
    arena_id = _put(store, 0, random_policy(70))
    store.pack()
    json_id = _put(store, 1, random_policy(71))  # JSON-only
    rng = np.random.default_rng(5)

    def batch(ids, width=N_FEATURES):
        observations = rng.uniform(-6.0, 6.0, size=(len(ids), width))
        return PolicyRequestBatch(policy_ids=np.array(ids), observations=observations)

    server = PolicyServer(store=store)
    server.register("a", random_policy(72))
    server.register("b", random_policy(73))
    with pytest.raises(UnknownPolicyError):
        server.serve_columnar(batch(["a", "b", "zzz", "a"]))
    assert server.stats.per_policy_requests == {}
    assert server.stats.requests == 0

    server.serve_columnar(batch(["a", "b", arena_id]))
    before = server.stats.to_dict()
    failing = [
        (batch(["a", "b", "zzz", "a"]), UnknownPolicyError, None),
        (batch([json_id, arena_id, "zzz"]), UnknownPolicyError, None),
        (batch(["a", "b"], width=7), ValueError, r"got \(2, 7\)"),
        (batch([arena_id, json_id, "a"], width=5), ValueError, r"got \(3, 5\)"),
    ]
    for request, error, match in failing:
        with pytest.raises(error, match=match):
            server.serve_columnar(request)
        assert server.stats.to_dict() == before
        stats = server.stats
        assert sum(stats.per_policy_requests.values()) == stats.requests
    # The failed batches never appended the JSON policy they compiled to the
    # in-memory forest, so this batch is its first and only compile.
    server.serve_columnar(batch([json_id]))
    assert server.stats.cache_misses == server.stats.compile_count == 1
    server.close()


def test_registering_a_served_id_serves_the_newest_tree(tmp_path):
    store = PolicyStore(tmp_path)
    arena_id = _put(store, 0, random_policy(90))
    store.pack()
    json_id = _put(store, 1, random_policy(91))  # JSON-only
    server = PolicyServer(store=store)
    rng = np.random.default_rng(10)
    tally = {}

    def serve_and_check(policies):
        ids = np.array(list(policies))[rng.integers(0, len(policies), size=200)]
        observations = rng.uniform(-6.0, 6.0, size=(200, N_FEATURES))
        response = server.serve_columnar(PolicyRequestBatch(policy_ids=ids, observations=observations))
        for policy_id, policy in policies.items():
            picked = ids == policy_id
            expected = policy.predict_action_indices(observations[picked])
            assert np.array_equal(response.action_indices[picked], expected), policy_id
            setpoints = np.asarray(policy.action_pairs)[expected]
            assert np.array_equal(response.heating_setpoints[picked], setpoints[:, 0])
            assert np.array_equal(response.cooling_setpoints[picked], setpoints[:, 1])
            tally[policy_id] = tally.get(policy_id, 0) + int(picked.sum())
        assert server.stats.per_policy_requests == tally

    serve_and_check({policy_id: store.find(policy_id).policy for policy_id in (arena_id, json_id)})
    # Register a tree under each served id, then register another over it.
    for seed in (92, 94):
        newest = {arena_id: random_policy(seed), json_id: random_policy(seed + 1)}
        for policy_id, policy in newest.items():
            server.register(policy_id, policy)
        serve_and_check(newest)
    assert server.stats.compile_count == 1
    server.close()


# --------------------------------------------------------------------- CLI
def test_cli_serve_and_policies_smoke(tmp_path, capsys):
    from repro.experiments.cli import main

    store_root = str(tmp_path / "store")
    assert (
        main(
            [
                "serve",
                "--store",
                store_root,
                "--requests",
                "300",
                "--batch-size",
                "64",
                "--decision-data",
                "48",
                "--output",
                str(tmp_path / "serve.json"),
                "--stats-json",
                str(tmp_path / "stats.json"),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "req/s" in out
    summary = json.loads((tmp_path / "serve.json").read_text())
    assert summary["requests"] == 300
    assert summary["requests_per_second"] > 0
    # The in-process server writes the sharded fleet's schema: the single
    # server's counters plus the per-shard and fleet blocks.
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert set(stats) == set(ServerStats().to_dict()) | {"shards", "fleet"}
    assert stats["compile_count"] == stats["cache_misses"] == stats["unique_policies"] == 1
    assert stats["cache_hits"] == stats["batches"] - 1 == 4

    assert main(["policies", "--store", store_root, "--verify"]) == 0
    out = capsys.readouterr().out
    assert "pittsburgh/winter" in out
    assert "1/1 artifacts OK" in out

    # The serve run persisted its auto-extracted policy: a second serve is a
    # pure store hit (no re-extraction message).
    assert main(["serve", "--store", store_root, "--requests", "64"]) == 0
    out = capsys.readouterr().out
    assert "extracting" not in out


def test_cli_policies_empty_store(tmp_path, capsys):
    from repro.experiments.cli import main

    assert main(["policies", "--store", str(tmp_path / "empty")]) == 0
    assert "No stored policies" in capsys.readouterr().out
