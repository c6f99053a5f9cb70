"""Sharded serving: shm transport round-trips, routing, exactness, lifecycle."""

import os
import pickle
import signal
import time

import numpy as np
import pytest

from repro.core.tree_policy import TreePolicy
from repro.data import (
    ActionBatch,
    InfoBatch,
    ObservationBatch,
    PolicyRequestBatch,
    PolicyResponseBatch,
    SharedMemoryColumnarBuffer,
    ShmBatchHeader,
    ShmTransportError,
)
from repro.data.shm import ColumnSegment
from repro.dtree.cart import DecisionTreeClassifier
from repro.serving import sharded as sharded_module
from repro.serving import (
    PolicyServer,
    ShardedPolicyServer,
    ShardedServingError,
    ShardRouter,
    shard_for_policy,
    shard_rows,
)

N_FEATURES = 6
ACTION_PAIRS = [(15 + i, 22 + i) for i in range(8)]


def random_policy(seed: int, rows: int = 160) -> TreePolicy:
    """A tree fitted on random data — irregular shape, random thresholds."""
    rng = np.random.default_rng(seed)
    features = rng.uniform(-5.0, 5.0, size=(rows, N_FEATURES))
    labels = rng.integers(0, len(ACTION_PAIRS), size=rows)
    tree = DecisionTreeClassifier(max_depth=int(rng.integers(2, 9)))
    tree.fit(features, labels)
    return TreePolicy(tree, action_pairs=ACTION_PAIRS)


def mixed_batch(seed: int, rows: int, policy_ids) -> PolicyRequestBatch:
    rng = np.random.default_rng(seed)
    return PolicyRequestBatch(
        policy_ids=np.array([policy_ids[i % len(policy_ids)] for i in range(rows)]),
        observations=rng.uniform(-6.0, 6.0, size=(rows, N_FEATURES)),
    )


@pytest.fixture
def ring():
    buffer = SharedMemoryColumnarBuffer.create(4 * 1024 * 1024)
    yield buffer
    buffer.close()
    buffer.unlink()


# ------------------------------------------------------------ shm round-trips
def _example_batches():
    rng = np.random.default_rng(3)
    return [
        ObservationBatch(rng.uniform(size=(5, N_FEATURES))),
        ObservationBatch(rng.uniform(size=(4, N_FEATURES)).astype(np.float32)),
        ActionBatch.from_indices([1, 4, 2]).with_setpoints(np.asarray(ACTION_PAIRS)),
        InfoBatch(
            step=11,
            hour_of_day=np.arange(3.0),
            occupied=np.array([0.0, 1.0, 1.0]),
            zone_temperature=np.array([20.5, 21.0, 19.9]),
        ),
        PolicyRequestBatch(
            policy_ids=np.array(["a", "b", "a", "c"]),
            observations=rng.uniform(size=(4, N_FEATURES)),
        ),
        PolicyResponseBatch(
            policy_ids=np.array(["a", "b"]),
            action_indices=np.array([0, 5]),
            heating_setpoints=np.array([15, 20]),
            cooling_setpoints=np.array([22, 27]),
        ),
    ]


@pytest.mark.parametrize("batch", _example_batches(), ids=lambda b: type(b).__name__)
def test_shm_round_trip_every_batch_type(ring, batch):
    header = batch.to_shm(ring)
    restored = type(batch).from_shm(ring, header, copy=True)
    assert type(restored) is type(batch)
    assert len(restored) == len(batch)
    for name, column in batch.columns().items():
        out = getattr(restored, name)
        assert out.dtype == column.dtype, name
        assert np.array_equal(out, column), name
    # Batch-level metadata survives too.
    assert restored._metadata() == batch._metadata()


def test_shm_read_is_zero_copy(ring):
    batch = _example_batches()[0]
    header = batch.to_shm(ring)
    view = ObservationBatch.from_shm(ring, header)
    # Mutate the segment through an independent mapping; the view must see it.
    peer = SharedMemoryColumnarBuffer.attach(ring.name)
    raw = np.ndarray(
        view.values.shape, view.values.dtype, buffer=peer._shm.buf,
        offset=header.columns[0].offset,
    )
    raw[0, 0] = 123.5
    assert view.values[0, 0] == 123.5
    del raw, view
    peer.close()


def test_shm_header_is_queue_sized_not_row_sized(ring):
    small = PolicyRequestBatch.single_policy("p", np.zeros((8, N_FEATURES)))
    big = PolicyRequestBatch.single_policy("p", np.zeros((8192, N_FEATURES)))
    small_header = small.to_shm(ring)
    big_header = big.to_shm(ring)
    # A 1000x bigger payload may only cost a few bytes of integer encoding in
    # the header — never a function of the row count.
    assert abs(len(pickle.dumps(big_header)) - len(pickle.dumps(small_header))) <= 16
    assert len(pickle.dumps(big_header)) < 1024


def test_shm_no_pickle_guard_rejects_array_metadata():
    header = ShmBatchHeader(
        batch_type="ObservationBatch",
        segment="x",
        columns=(ColumnSegment("values", "<f8", (2, 2), 0),),
        metadata={"smuggled": np.zeros(4)},
    )
    with pytest.raises(ShmTransportError, match="pickle"):
        header.assert_zero_copy()


def test_shm_wrong_type_and_oversize_are_loud(ring):
    batch = _example_batches()[0]
    header = batch.to_shm(ring)
    with pytest.raises(ShmTransportError, match="expected"):
        ActionBatch.from_shm(ring, header)
    huge = ObservationBatch(np.zeros((200000, N_FEATURES)))
    with pytest.raises(ShmTransportError, match="ring"):
        huge.to_shm(ring)  # 9.6 MB payload into a 4 MB ring


def test_shm_ring_wraps_and_reuses_capacity(ring):
    batch = ObservationBatch(np.random.default_rng(0).uniform(size=(4096, N_FEATURES)))
    # ~200 KB per write through a 4 MB ring: must wrap many times over.
    for _ in range(100):
        header = batch.to_shm(ring)
        restored = ObservationBatch.from_shm(ring, header)
        assert np.array_equal(restored.values, batch.values)


# ----------------------------------------------------------------- routing
def test_shard_routing_is_deterministic_and_stable():
    ids = [f"building-{i}" for i in range(64)]
    first = [shard_for_policy(policy_id, 4) for policy_id in ids]
    second = [shard_for_policy(policy_id, 4) for policy_id in ids]
    assert first == second
    # CRC-based, not hash()-based: pin a few values so an accidental switch
    # to interpreter-salted hashing fails loudly.
    assert shard_for_policy("building-0", 4) == 2
    assert shard_for_policy("building-1", 4) == 0
    # 64 ids across 4 shards must touch every shard.
    assert set(first) == {0, 1, 2, 3}


def test_shard_rows_matches_per_row_hash():
    batch = mixed_batch(0, 40, [f"b{i}" for i in range(5)])
    expected = np.array(
        [shard_for_policy(str(pid), 3) for pid in batch.policy_ids]
    )
    assert np.array_equal(shard_rows(batch, 3), expected)


def test_shard_router_remembers_ids_and_starts_over_past_its_limit(monkeypatch):
    monkeypatch.setattr(sharded_module, "SHARD_ROUTER_LIMIT", 6)
    router = ShardRouter(3)
    for seed, ids in enumerate(
        ([f"b{i}" for i in range(5)], ["b3", "b1"], ["b0", "b9", "b5"], ["b9", "a-longer-id"])
    ):
        batch = mixed_batch(seed, 40, ids)
        expected = np.array([shard_for_policy(str(pid), 3) for pid in batch.policy_ids])
        assert np.array_equal(router(batch.policy_ids), expected)
    # Five ids, then two more: past the limit of six the table starts over
    # with that batch's three, and the last batch adds one.
    assert sorted(router._ids.tolist()) == ["a-longer-id", "b0", "b5", "b9"]


# ------------------------------------------------------------- exactness
@pytest.fixture(scope="module")
def policies():
    return {f"building-{i}": random_policy(i + 70) for i in range(6)}


def test_sharded_matches_single_process_on_mixed_batches(tmp_path, policies):
    single = PolicyServer(store=str(tmp_path))
    for policy_id, policy in policies.items():
        single.register(policy_id, policy)
    with ShardedPolicyServer(store=str(tmp_path), num_shards=3) as fleet:
        owners = {
            policy_id: fleet.register(policy_id, policy)
            for policy_id, policy in policies.items()
        }
        assert len(set(owners.values())) > 1  # genuinely spread across shards
        for seed, rows in ((1, 257), (2, 1024), (3, 33)):
            batch = mixed_batch(seed, rows, list(policies))
            expected = single.serve_columnar(batch)
            got = fleet.serve_columnar(
                PolicyRequestBatch(
                    policy_ids=batch.policy_ids, observations=batch.observations
                )
            )
            assert np.array_equal(got.action_indices, expected.action_indices)
            assert np.array_equal(got.heating_setpoints, expected.heating_setpoints)
            assert np.array_equal(got.cooling_setpoints, expected.cooling_setpoints)
            assert np.array_equal(got.policy_ids, batch.policy_ids)
        stats = fleet.stats()
        assert stats["requests"] == 257 + 1024 + 33
        assert stats["unique_policies"] == len(policies)


def test_sharded_single_policy_and_single_row_batches(tmp_path, policies):
    with ShardedPolicyServer(store=str(tmp_path), num_shards=2) as fleet:
        for policy_id, policy in policies.items():
            fleet.register(policy_id, policy)
        observations = np.random.default_rng(5).uniform(-5, 5, size=(17, N_FEATURES))
        # All rows for one policy: the no-permutation fast path.
        response = fleet.serve_columnar(
            PolicyRequestBatch.single_policy("building-0", observations)
        )
        expected = policies["building-0"].predict_action_indices(observations)
        assert np.array_equal(response.action_indices, expected)
        # A batch of one row.
        reply = fleet.serve_columnar(
            PolicyRequestBatch.single_policy("building-1", observations[:1])
        )
        assert reply.action_indices[0] == policies["building-1"].predict_action_index(
            observations[0]
        )


def test_sharded_store_resolution_matches_single_process(tmp_path):
    from repro.core.pipeline import PipelineConfig, VerifiedPolicyPipeline
    from repro.store import PolicyStore

    store = PolicyStore(tmp_path)
    tiny = dict(num_decision_data=48, training_epochs=8, num_probabilistic_samples=64)
    for seed in (61, 62):
        VerifiedPolicyPipeline(PipelineConfig.tiny(seed=seed, **tiny), store=store).run()
    ids = [entry.key.name for entry in store.entries()]
    single = PolicyServer(store=store)
    batch = mixed_batch(9, 300, ids)
    expected = single.serve_columnar(batch)
    with ShardedPolicyServer(store=store, num_shards=2) as fleet:
        got = fleet.serve_columnar(
            PolicyRequestBatch(
                policy_ids=batch.policy_ids, observations=batch.observations
            )
        )
    assert np.array_equal(got.action_indices, expected.action_indices)


def test_in_process_fallback_spawns_no_workers(tmp_path, policies):
    fallback = ShardedPolicyServer(store=str(tmp_path), num_shards=1)
    for policy_id, policy in policies.items():
        fallback.register(policy_id, policy)
    batch = mixed_batch(4, 64, list(policies))
    response = fallback.serve_columnar(batch)
    assert not fallback.started
    assert fallback.ping()[0]["in_process"] is True
    single = PolicyServer(store=str(tmp_path))
    for policy_id, policy in policies.items():
        single.register(policy_id, policy)
    assert np.array_equal(
        response.action_indices, single.serve_columnar(batch).action_indices
    )
    fallback.close()


def test_sharded_unknown_policy_raises(tmp_path, policies):
    with ShardedPolicyServer(store=str(tmp_path / "empty"), num_shards=2) as fleet:
        with pytest.raises(ShardedServingError, match="UnknownPolicyError"):
            fleet.serve_columnar(
                PolicyRequestBatch.single_policy("no/such/policy", np.zeros((2, N_FEATURES)))
            )
        # The fleet survives the error and keeps serving.
        fleet.register("building-0", policies["building-0"])
        response = fleet.serve_columnar(
            PolicyRequestBatch.single_policy("building-0", np.zeros((2, N_FEATURES)))
        )
        assert len(response) == 2


def test_empty_batch_short_circuits(tmp_path):
    fleet = ShardedPolicyServer(store=str(tmp_path), num_shards=2)
    empty = fleet.serve_columnar(
        PolicyRequestBatch(
            policy_ids=np.empty(0, dtype=str), observations=np.empty((0, N_FEATURES))
        )
    )
    assert len(empty) == 0
    assert not fleet.started  # empty batches never spawn the fleet
    fleet.close()


# --------------------------------------------------------------------- CLI
def test_cli_serve_sharded_smoke(tmp_path, capsys):
    from repro.experiments.cli import main

    store_root = str(tmp_path / "store")
    assert (
        main(
            [
                "serve",
                "--store",
                store_root,
                "--requests",
                "400",
                "--batch-size",
                "128",
                "--decision-data",
                "48",
                "--shards",
                "2",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "req/s" in out
    assert "| 2" in out  # the shards column


# -------------------------------------------------------------- lifecycle
def test_sigterm_shuts_workers_down_without_leaking_shm(tmp_path, policies):
    fleet = ShardedPolicyServer(
        store=str(tmp_path), num_shards=2, heartbeat_interval=None
    ).start()
    for policy_id, policy in policies.items():
        fleet.register(policy_id, policy)
    fleet.serve_columnar(mixed_batch(6, 128, list(policies)))
    states = fleet.supervisor.states()
    ring_names = [
        ring.name
        for state in states
        for ring in (state.request_ring, state.response_ring)
    ]
    workers = [state.process for state in states]
    for worker in workers:
        os.kill(worker.pid, signal.SIGTERM)
    for worker in workers:
        worker.join(timeout=10.0)
    assert all(worker.exitcode == 0 for worker in workers)  # clean exits
    fleet.close()
    for name in ring_names:
        with pytest.raises(FileNotFoundError):
            SharedMemoryColumnarBuffer.attach(name)


def test_close_is_idempotent_and_sigkill_between_batches_heals(tmp_path, policies):
    fleet = ShardedPolicyServer(
        store=str(tmp_path), num_shards=2, timeout=5.0, heartbeat_interval=None
    ).start()
    fleet.register("building-0", policies["building-0"])
    shard = shard_for_policy("building-0", 2)
    victim = fleet.supervisor.state(shard).process
    os.kill(victim.pid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while victim.is_alive() and time.monotonic() < deadline:
        time.sleep(0.05)
    # The supervisor restarts the dead worker on contact and replays the
    # registration journal: the caller sees a served batch, not an error.
    single = PolicyServer(store=False)
    single.register("building-0", policies["building-0"])
    observations = np.zeros((2, N_FEATURES))
    request = PolicyRequestBatch.single_policy("building-0", observations)
    response = fleet.serve_columnar(request)
    expected = single.serve_columnar(request)
    assert np.array_equal(response.action_indices, expected.action_indices)
    assert fleet.supervisor.restarts_total >= 1
    assert fleet.supervisor.state(shard).generation >= 1
    fleet.close()
    fleet.close()  # idempotent
