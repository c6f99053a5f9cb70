"""Packed policy arena: format round-trip, zero-copy views, integrity,
server fallback, shared-mapping sharded serving, and the CLI surface."""

import json
import struct

import numpy as np
import pytest

from repro.core.tree_policy import TreePolicy
from repro.data import PolicyRequestBatch
from repro.dtree.cart import DecisionTreeClassifier
from repro.serving import CompiledTreePolicy, PolicyServer, ShardedPolicyServer
from repro.store import (
    ARENA_MAGIC,
    ArenaIntegrityError,
    PolicyArena,
    PolicyKey,
    PolicyStore,
    resolve_arena,
    write_arena,
)

N_FEATURES = 6
ACTION_PAIRS = [(15 + i, 22 + i) for i in range(8)]
FEATURE_NAMES = [f"f{i}" for i in range(N_FEATURES)]


def random_policy(seed: int, rows: int = 120) -> TreePolicy:
    """A tree fitted on random data — irregular shape, random thresholds."""
    rng = np.random.default_rng(seed)
    features = rng.uniform(-5.0, 5.0, size=(rows, N_FEATURES))
    labels = rng.integers(0, len(ACTION_PAIRS), size=rows)
    tree = DecisionTreeClassifier(max_depth=int(rng.integers(2, 7)))
    tree.fit(features, labels)
    return TreePolicy(tree, action_pairs=ACTION_PAIRS, feature_names=FEATURE_NAMES)


@pytest.fixture()
def packed_store(tmp_path):
    """A store holding six random policies plus its packed arena."""
    store = PolicyStore(tmp_path / "store")
    names = []
    for seed in range(6):
        key = PolicyKey(
            city=f"city{seed}",
            season="summer",
            building="office",
            seed=seed,
            config_hash=f"{seed:012x}",
        )
        names.append(store.put_policy(key, random_policy(seed)).key.name)
    arena_path = store.pack()
    return store, arena_path, names


# ------------------------------------------------------------- round-trip
def test_arena_matches_json_for_every_policy(packed_store):
    store, arena_path, names = packed_store
    rng = np.random.default_rng(99)
    probes = rng.uniform(-6.0, 6.0, size=(300, N_FEATURES))
    with PolicyArena(arena_path, verify=True) as arena:
        assert sorted(arena.policy_ids()) == sorted(names)
        assert len(arena) == len(names)
        for name in names:
            handle = arena.get(name)
            stored = store.find(name)
            reference = CompiledTreePolicy.from_policy(stored.policy)
            assert np.array_equal(
                handle.predict_batch(probes), reference.predict_batch(probes)
            )
            assert np.array_equal(handle.action_pairs, reference.action_pairs)
            assert handle.feature_names == reference.feature_names


def test_arena_views_are_zero_copy_and_frozen(packed_store):
    _, arena_path, names = packed_store
    with PolicyArena(arena_path) as arena:
        handle = arena.get(names[0])
        for name in ("feature", "threshold", "left", "right",
                     "leaf_action", "action_pairs"):
            view = getattr(handle, name)
            assert not view.flags.writeable
            assert not view.flags.owndata  # a view into the mapping, not a copy
            with pytest.raises((ValueError, RuntimeError)):
                view[..., 0] = 1
        # Handles are cached: the second get hands back the same object.
        assert arena.get(names[0]) is handle
        assert arena.get("no/such/policy") is None


def test_server_arena_forest_is_zero_copy_and_frozen(packed_store):
    # Serving descends the arena's own pages: a forest copied into the heap
    # would lose the page sharing across shard workers (BENCH_store_cold.json).
    store, _, names = packed_store
    server = PolicyServer(store=store)
    forest = server._arena_forest  # what serve_columnar descends
    assert forest is not None and forest is server.arena.forest()
    mapping = np.frombuffer(server.arena._mm, dtype=np.uint8)
    for name in ("feature", "threshold", "left", "right", "leaf_action",
                 "action_pairs", "node_start", "action_start", "n_features"):
        array = getattr(forest, name)
        assert np.may_share_memory(array, mapping), name
        assert not array.flags.writeable, name
    assert forest.size == len(names)
    rows = np.random.default_rng(3).uniform(-6.0, 6.0, size=(40, N_FEATURES))
    trees = np.arange(40) % len(names)
    actions, _ = forest.predict(trees, rows)
    for row, tree in enumerate(trees):
        policy_id = server.arena.policy_ids()[tree]
        assert server.arena.row(policy_id) == tree
        assert actions[row] == server.arena.get(policy_id).predict_batch(rows[row])[0]
    server.close()


def test_write_arena_rejects_duplicates_and_empty(tmp_path):
    policy = CompiledTreePolicy.from_policy(random_policy(0))
    with pytest.raises(ValueError, match="duplicate"):
        write_arena(tmp_path / "a.arena", [("p", policy), ("p", policy)])
    with pytest.raises(ValueError, match="empty arena"):
        write_arena(tmp_path / "a.arena", [])
    store = PolicyStore(tmp_path / "empty")
    with pytest.raises(ValueError, match="no stored policies"):
        store.pack()


# ------------------------------------------------- compiled-policy plumbing
def test_compiled_init_skips_copy_for_declared_dtypes():
    reference = CompiledTreePolicy.from_policy(random_policy(3))
    arrays = {
        "feature": np.ascontiguousarray(reference.feature),
        "threshold": np.ascontiguousarray(reference.threshold),
        "left": np.ascontiguousarray(reference.left),
        "right": np.ascontiguousarray(reference.right),
        "leaf_action": np.ascontiguousarray(reference.leaf_action),
        "action_pairs": np.ascontiguousarray(reference.action_pairs),
    }
    rebuilt = CompiledTreePolicy(
        n_features=reference.n_features,
        depth=reference.depth,
        feature_names=reference.feature_names,
        **arrays,
    )
    for name, array in arrays.items():
        assert getattr(rebuilt, name) is array  # no silent np.asarray copy
    # Mismatched dtypes still convert (the compatibility path).
    converted = CompiledTreePolicy(
        n_features=reference.n_features,
        depth=reference.depth,
        feature_names=reference.feature_names,
        feature=arrays["feature"].astype(np.int64),
        threshold=arrays["threshold"],
        left=arrays["left"],
        right=arrays["right"],
        leaf_action=arrays["leaf_action"],
        action_pairs=arrays["action_pairs"],
    )
    assert converted.feature.dtype == np.int32


def test_from_views_rejects_wrong_dtype_and_freezes():
    reference = CompiledTreePolicy.from_policy(random_policy(4))
    kwargs = dict(
        feature=reference.feature,
        threshold=reference.threshold,
        left=reference.left,
        right=reference.right,
        leaf_action=reference.leaf_action,
        action_pairs=reference.action_pairs,
        n_features=reference.n_features,
        depth=reference.depth,
        feature_names=reference.feature_names,
    )
    frozen = CompiledTreePolicy.from_views(**kwargs)
    assert not frozen.feature.flags.writeable
    bad = dict(kwargs)
    bad["threshold"] = reference.threshold.astype(np.float32)
    with pytest.raises(ValueError, match="from_views requires"):
        CompiledTreePolicy.from_views(**bad)
    bad = dict(kwargs)
    bad["feature"] = reference.feature.tolist()
    with pytest.raises(ValueError, match="from_views requires"):
        CompiledTreePolicy.from_views(**bad)


# --------------------------------------------------------------- integrity
def test_truncated_arena_fails_verification(packed_store):
    _, arena_path, _ = packed_store
    data = arena_path.read_bytes()
    arena_path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ArenaIntegrityError):
        PolicyArena(arena_path)


def test_bad_magic_and_version_fail(packed_store):
    _, arena_path, _ = packed_store
    data = bytearray(arena_path.read_bytes())
    bad_magic = bytearray(data)
    bad_magic[:8] = b"NOTMYFMT"
    arena_path.write_bytes(bytes(bad_magic))
    with pytest.raises(ArenaIntegrityError, match="magic"):
        PolicyArena(arena_path)
    bad_version = bytearray(data)
    bad_version[8:12] = struct.pack("<I", 999)
    arena_path.write_bytes(bytes(bad_version))
    with pytest.raises(ArenaIntegrityError, match="version"):
        PolicyArena(arena_path)


def test_flipped_payload_byte_fails_crc(packed_store):
    _, arena_path, _ = packed_store
    data = bytearray(arena_path.read_bytes())
    data[len(data) // 3] ^= 0xFF  # somewhere inside a section payload
    arena_path.write_bytes(bytes(data))
    assert PolicyArena(arena_path).policy_count  # parse alone does not read payloads
    with pytest.raises(ArenaIntegrityError, match="CRC"):
        PolicyArena(arena_path, verify=True)


def test_store_verify_reports_arena(packed_store):
    store, arena_path, _ = packed_store
    report = store.verify()
    assert report[f"arena:{arena_path.name}"] is True
    data = arena_path.read_bytes()
    arena_path.write_bytes(data[:80])
    report = store.verify()
    assert report[f"arena:{arena_path.name}"] is False
    # JSON artifacts are unaffected by arena corruption.
    assert all(ok for name, ok in report.items() if not name.startswith("arena:"))


def test_server_falls_back_to_json_on_corrupt_arena(packed_store):
    store, arena_path, names = packed_store
    data = arena_path.read_bytes()
    arena_path.write_bytes(data[: len(data) - 40])
    server = PolicyServer(store=store)
    assert server.arena is None
    assert server.arena_error  # the reason is recorded, serving continues
    response = server.serve_columnar(
        PolicyRequestBatch(
            policy_ids=np.array([names[0]]),
            observations=np.zeros((1, N_FEATURES)),
        )
    )
    assert response.action_indices.shape == (1,)
    assert server.stats.compile_count == 1
    assert server.stats.arena_hits == 0


def test_resolve_arena_semantics(packed_store, tmp_path):
    store, arena_path, _ = packed_store
    arena, error = resolve_arena(False, store)
    assert arena is None and error is None
    arena, error = resolve_arena(None, store)
    assert arena is not None and error is None
    arena.close()
    arena, error = resolve_arena(str(arena_path), store)
    assert arena is not None
    arena.close()
    empty = PolicyStore(tmp_path / "none")
    arena, error = resolve_arena(None, empty)
    assert arena is None and error is None  # auto-detect: absence is not an error
    with pytest.raises(FileNotFoundError):
        resolve_arena(True, empty)  # explicit request: absence is
    with pytest.raises(FileNotFoundError):
        resolve_arena(str(tmp_path / "missing.arena"), store)


# ----------------------------------------------------------------- serving
def test_arena_first_resolution_and_eviction_noop(packed_store):
    store, _, names = packed_store
    server = PolicyServer(store=store)
    rng = np.random.default_rng(5)
    observations = rng.uniform(-6.0, 6.0, size=(len(names) * 4, N_FEATURES))
    assigned = np.array([names[i % len(names)] for i in range(len(observations))])
    for _ in range(2):
        server.serve_columnar(
            PolicyRequestBatch(policy_ids=assigned, observations=observations)
        )
    # Arena policies are never compiled and never enter the in-memory forest.
    assert server.stats.arena_hits == 2 * len(names)
    assert server.stats.compile_count == server.stats.cache_hits == 0
    assert server.stats.arena_policies == len(names)
    assert server.stats.arena_bytes_mapped > 0
    server.close()


def test_mixed_registered_and_arena_serving(packed_store):
    store, _, names = packed_store
    server = PolicyServer(store=store)
    fresh = random_policy(77)
    server.register("pinned/summer/extra", fresh)
    ids = np.array(["pinned/summer/extra", names[0], names[1]])
    observations = np.random.default_rng(6).uniform(-6, 6, size=(3, N_FEATURES))
    response = server.serve_columnar(
        PolicyRequestBatch(policy_ids=ids, observations=observations)
    )
    assert response.action_indices[0] == fresh.predict_action_index(observations[0])
    assert server.stats.arena_hits == 2
    assert set(server.policy_ids()) == {"pinned/summer/extra", *names}
    server.close()


def test_sharded_arena_matches_single_and_survives_kill(packed_store):
    store, _, names = packed_store
    rng = np.random.default_rng(7)
    rows = 64
    observations = rng.uniform(-6.0, 6.0, size=(rows, N_FEATURES))
    assigned = np.array([names[i % len(names)] for i in range(rows)])
    batch = PolicyRequestBatch(policy_ids=assigned, observations=observations)

    single = PolicyServer(store=store, arena=True)
    expected = single.serve_columnar(batch).action_indices
    single.close()

    with ShardedPolicyServer(store=store, num_shards=2, arena=True) as fleet:
        first = fleet.serve_columnar(batch).action_indices
        assert np.array_equal(first, expected)
        # Kill one worker mid-run: the supervisor respawns it and the fresh
        # worker warms up by reopening the mapping — no recompilation, no
        # lost requests, identical actions.
        fleet.supervisor.state(0).process.kill()
        second = fleet.serve_columnar(batch).action_indices
        assert np.array_equal(second, expected)
        stats = fleet.stats()
        assert stats["compile_count"] == 0
        assert stats["arena_hits"] > 0
        assert stats["fleet"]["lost_requests"] == 0
        assert stats["supervisor"]["restarts"] == 1


def test_sharded_single_shard_uses_arena_in_process(packed_store):
    store, _, names = packed_store
    batch = PolicyRequestBatch(
        policy_ids=np.array([names[0]]),
        observations=np.zeros((1, N_FEATURES)),
    )
    with ShardedPolicyServer(store=store, num_shards=1, arena=True) as fleet:
        fleet.serve_columnar(batch)
        stats = fleet.stats()
        assert stats["arena_hits"] == 1
        assert stats["arena_policies"] == len(names)


# --------------------------------------------------------------------- CLI
def test_cli_pack_verify_and_serve_arena(packed_store, tmp_path, capsys):
    from repro.experiments.cli import main

    store, arena_path, _ = packed_store
    assert main(["policies", "--store", str(store.root), "--pack", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "Packed arena" in out
    assert "CORRUPT" not in out

    stats_path = tmp_path / "stats.json"
    assert main([
        "serve", "--store", str(store.root), "--arena",
        "--requests", "64", "--batch-size", "16",
        "--stats-json", str(stats_path),
    ]) == 0
    stats = json.loads(stats_path.read_text())
    assert stats["arena_policies"] == 6
    assert stats["arena_hits"] > 0
    assert stats["compile_count"] == 0


def test_cli_bench_store_cold_smoke(tmp_path, capsys):
    from repro.experiments.cli import main

    output = tmp_path / "bench.json"
    assert main([
        "bench", "--target", "store-cold",
        "--policies", "48", "--shards", "2", "--output", str(output),
    ]) == 0
    payload = json.loads(output.read_text())
    assert payload["benchmark"] == "store-cold"
    assert payload["policies"] == 48
    assert payload["actions_identical"] is True
    assert payload["arena_compile_count"] == 0
    assert payload["restart"]["compile_count"] == 0
    assert payload["restart"]["lost_requests"] == 0
    assert payload["restart"]["arena_hits"] > 0
