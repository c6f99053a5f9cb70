"""Chaos suite: the shard fleet must heal from injected and real faults.

Every test here drives the *production* recovery paths — faults are honored
inside the worker serve loop (:mod:`repro.serving.faults`), not
monkeypatched — and asserts the contract the supervision layer promises:
callers see latency, never exceptions; recovered responses are bit-identical
to the single-process server; and no shared memory outlives ``close``,
however the workers died.

Heartbeat monitoring is disabled (``heartbeat_interval=None``) except in the
test that exercises it, so restarts happen exactly where each test expects
them.  Wall time stays bounded even for "hang" faults because restarting a
hung worker SIGTERMs it out of its sleep.
"""

import os
import signal
import time

import numpy as np
import pytest

from repro.core.tree_policy import TreePolicy
from repro.data import PolicyRequestBatch, SharedMemoryColumnarBuffer, ShmTransportError
from repro.dtree.cart import DecisionTreeClassifier
from repro.serving import (
    Fault,
    FaultPlan,
    FaultState,
    PolicyServer,
    ShardedPolicyServer,
    ShardedServingError,
)
from repro.serving.faults import KILL_EXIT_CODE

N_FEATURES = 6
ACTION_PAIRS = [(15 + i, 22 + i) for i in range(8)]


def random_policy(seed: int, rows: int = 160) -> TreePolicy:
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


@pytest.fixture(scope="module")
def policies():
    return {f"building-{i}": random_policy(i) for i in range(6)}


@pytest.fixture(scope="module")
def reference(policies):
    """A single-process server registered with the same policies."""
    server = PolicyServer(store=False)
    for policy_id, policy in policies.items():
        server.register(policy_id, policy)
    return server


def healing_fleet(policies, **kwargs):
    """A registered store-less fleet: exactness after restart *proves* the
    registration journal replays (there is no store to re-resolve from)."""
    options = dict(
        store=False, num_shards=2, timeout=5.0, heartbeat_interval=None
    )
    options.update(kwargs)
    fleet = ShardedPolicyServer(**options).start()
    for policy_id, policy in policies.items():
        fleet.register(policy_id, policy)
    return fleet


# ------------------------------------------------------------- fault model
def test_fault_plan_is_seed_deterministic():
    first = FaultPlan.seeded(seed=11, num_shards=4, horizon=9)
    second = FaultPlan.seeded(seed=11, num_shards=4, horizon=9)
    assert first == second
    assert FaultPlan.seeded(seed=12, num_shards=4, horizon=9) != first
    assert all(fault.shard < 4 for fault in first.faults)
    assert all(fault.after_batches < 9 for fault in first.faults)


def test_fault_validation():
    with pytest.raises(ValueError, match="Unknown fault kind"):
        Fault(kind="meteor", shard=0)
    with pytest.raises(ValueError, match="non-negative"):
        Fault(kind="kill", shard=-1)
    with pytest.raises(ValueError, match="kinds"):
        FaultPlan.seeded(seed=0, num_shards=2, horizon=4, kinds=())
    wire = Fault(kind="hang", shard=1, after_batches=2, seconds=0.5).to_wire()
    assert Fault.from_wire(wire) == Fault(
        kind="hang", shard=1, after_batches=2, seconds=0.5
    )


def test_fault_state_fires_at_most_one_per_serve():
    state = FaultState()
    state.arm(Fault(kind="late", shard=0, after_batches=0))
    state.arm(Fault(kind="kill", shard=0, after_batches=0))
    first = state.on_serve()
    assert first is not None and first.kind == "late"
    assert state.pending == 1
    second = state.on_serve()
    assert second is not None and second.kind == "kill"
    assert state.on_serve() is None


# ------------------------------------------------------- generation fencing
def test_generation_fence_rejects_stale_header():
    writer = SharedMemoryColumnarBuffer.create(1 << 20, generation=0)
    try:
        batch = PolicyRequestBatch(
            policy_ids=np.array(["a", "b"]),
            observations=np.zeros((2, N_FEATURES)),
        )
        header = batch.to_shm(writer)
        assert header.generation == 0
        stale_reader = SharedMemoryColumnarBuffer.attach(writer.name, generation=1)
        try:
            with pytest.raises(ShmTransportError, match="generation"):
                PolicyRequestBatch.from_shm(stale_reader, header)
        finally:
            stale_reader.close()
        # The matching generation still reads fine.
        reader = SharedMemoryColumnarBuffer.attach(writer.name, generation=0)
        try:
            roundtrip = PolicyRequestBatch.from_shm(reader, header)
            assert np.array_equal(roundtrip.observations, batch.observations)
            del roundtrip
        finally:
            reader.close()
    finally:
        writer.close()
        writer.unlink()


# ----------------------------------------------------------- injected faults
def test_kill_fault_mid_batch_recovers_action_exact(policies, reference):
    fleet = healing_fleet(policies, num_shards=4)
    try:
        batch = mixed_batch(21, 257, list(policies))
        expected = reference.serve_columnar(batch)
        fleet.inject_fault(Fault(kind="kill", shard=0))
        response = fleet.serve_columnar(batch)
        assert np.array_equal(response.action_indices, expected.action_indices)
        assert np.array_equal(
            response.heating_setpoints, expected.heating_setpoints
        )
        assert fleet.supervisor.restarts_total >= 1
        assert fleet.fleet_stats.retries >= 1
        assert fleet.fleet_stats.lost_requests == 0
    finally:
        fleet.close()


def test_hung_worker_hits_deadline_then_restarts(policies, reference):
    fleet = healing_fleet(policies, timeout=0.5, retries=2)
    try:
        old_pid = fleet.supervisor.state(0).process.pid
        fleet.inject_fault(Fault(kind="hang", shard=0, seconds=60.0))
        batch = mixed_batch(22, 128, list(policies))
        started = time.monotonic()
        response = fleet.serve_columnar(batch)
        elapsed = time.monotonic() - started
        expected = reference.serve_columnar(batch)
        assert np.array_equal(response.action_indices, expected.action_indices)
        assert elapsed < 30.0  # deadline fired, not the 60 s sleep
        state = fleet.supervisor.state(0)
        assert state.process.pid != old_pid
        assert state.generation >= 1
        assert state.restarts >= 1
    finally:
        fleet.close()


def test_stale_header_is_fenced_and_retried(policies, reference):
    fleet = healing_fleet(policies)
    try:
        fleet.inject_fault(Fault(kind="stale_header", shard=1))
        batch = mixed_batch(23, 200, list(policies))
        response = fleet.serve_columnar(batch)
        expected = reference.serve_columnar(batch)
        assert np.array_equal(response.action_indices, expected.action_indices)
        assert fleet.supervisor.restarts_total >= 1
        assert fleet.fleet_stats.lost_requests == 0
    finally:
        fleet.close()


def test_late_reply_is_just_latency(policies, reference):
    fleet = healing_fleet(policies)
    try:
        fleet.inject_fault(Fault(kind="late", shard=0, seconds=0.05))
        batch = mixed_batch(24, 96, list(policies))
        response = fleet.serve_columnar(batch)
        expected = reference.serve_columnar(batch)
        assert np.array_equal(response.action_indices, expected.action_indices)
        assert fleet.supervisor.restarts_total == 0  # no restart for lateness
    finally:
        fleet.close()


def test_seeded_fault_stream_loses_nothing(policies, reference):
    """The chaos proof: a seeded kill/stale plan over a 4-shard batch stream
    yields zero caller-visible errors, zero lost requests and bit-identical
    actions to the single-process server."""
    fleet = healing_fleet(policies, num_shards=4, timeout=2.0)
    try:
        horizon = 5
        plan = FaultPlan.seeded(
            seed=7, num_shards=4, horizon=horizon, kinds=("kill", "stale_header")
        )
        for fault in plan.faults:
            fleet.inject_fault(fault)
        total_rows = 0
        for step in range(horizon):
            batch = mixed_batch(30 + step, 129 + step, list(policies))
            response = fleet.serve_columnar(batch)  # must never raise
            expected = reference.serve_columnar(batch)
            assert np.array_equal(
                response.action_indices, expected.action_indices
            )
            total_rows += len(batch)
        assert fleet.fleet_stats.requests == total_rows
        assert fleet.fleet_stats.lost_requests == 0
    finally:
        fleet.close()


# ----------------------------------------------------------- degraded modes
def test_fallback_serves_when_retries_exhausted(policies, reference):
    fleet = healing_fleet(
        policies, timeout=0.4, retries=0, degraded="fallback"
    )
    try:
        # Hang both shards: every slice must fall back in-process.
        fleet.inject_fault(Fault(kind="hang", shard=0, seconds=60.0))
        fleet.inject_fault(Fault(kind="hang", shard=1, seconds=60.0))
        batch = mixed_batch(25, 150, list(policies))
        response = fleet.serve_columnar(batch)
        expected = reference.serve_columnar(batch)
        assert np.array_equal(response.action_indices, expected.action_indices)
        assert fleet.fleet_stats.fallback_rows > 0
        assert fleet.fleet_stats.degraded_batches == 1
        assert fleet.fleet_stats.lost_requests == 0
    finally:
        fleet.close()


def test_fail_mode_raises_and_counts_lost_requests(policies):
    fleet = healing_fleet(policies, timeout=0.4, retries=0, degraded="fail")
    try:
        fleet.inject_fault(Fault(kind="hang", shard=0, seconds=60.0))
        fleet.inject_fault(Fault(kind="hang", shard=1, seconds=60.0))
        batch = mixed_batch(26, 80, list(policies))
        with pytest.raises(ShardedServingError, match="Retry budget exhausted"):
            fleet.serve_columnar(batch)
        assert fleet.fleet_stats.lost_requests == len(batch)
        # The fleet healed itself on the way out: the next call succeeds.
        response = fleet.serve_columnar(batch)
        assert len(response.action_indices) == len(batch)
    finally:
        fleet.close()


def test_degraded_mode_is_validated():
    with pytest.raises(ValueError, match="degraded"):
        ShardedPolicyServer(store=False, num_shards=2, degraded="panic")
    with pytest.raises(ValueError, match="retries"):
        ShardedPolicyServer(store=False, num_shards=2, retries=-1)
    for timeout in (0, -1):
        with pytest.raises(ValueError, match="timeout"):
            ShardedPolicyServer(store=False, num_shards=2, timeout=timeout)


# ----------------------------------------------------- registration replay
def test_registration_replay_after_sigkill(policies, reference):
    fleet = healing_fleet(policies)
    try:
        batch = mixed_batch(27, 120, list(policies))
        fleet.serve_columnar(batch)  # warm both shards
        for state in fleet.supervisor.states():
            os.kill(state.process.pid, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while (
            any(s.process.is_alive() for s in fleet.supervisor.states())
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        # No store exists: only the journal can restore these policies.
        response = fleet.serve_columnar(batch)
        expected = reference.serve_columnar(batch)
        assert np.array_equal(response.action_indices, expected.action_indices)
        assert fleet.supervisor.restarts_total >= 2
    finally:
        fleet.close()


# -------------------------------------------------------------- heartbeats
def test_heartbeat_monitor_restarts_dead_worker_without_traffic(policies):
    fleet = healing_fleet(policies, heartbeat_interval=0.2)
    try:
        victim = fleet.supervisor.state(0).process
        os.kill(victim.pid, signal.SIGKILL)
        deadline = time.monotonic() + 15.0
        while (
            fleet.supervisor.restarts_total == 0
            and time.monotonic() < deadline
        ):
            time.sleep(0.05)
        assert fleet.supervisor.restarts_total >= 1
        with fleet.supervisor.lock:
            replacement = fleet.supervisor.state(0)
            assert replacement.process.is_alive()
            assert replacement.process.pid != victim.pid
            assert replacement.generation >= 1
    finally:
        fleet.close()


def test_supervisor_state_in_stats(policies):
    fleet = healing_fleet(policies)
    try:
        fleet.serve_columnar(mixed_batch(28, 64, list(policies)))
        stats = fleet.stats()
        supervisor = stats["supervisor"]
        assert supervisor["restarts"] == 0
        assert set(supervisor["shards"]) == {0, 1}
        for shard in supervisor["shards"].values():
            assert shard["alive"] is True
            assert shard["generation"] == 0
            assert shard["last_heartbeat_age_seconds"] >= 0.0
        assert stats["fleet"]["lost_requests"] == 0
        assert stats["fleet"]["batches"] == 1
    finally:
        fleet.close()


# ------------------------------------------------------------ single shard
def test_single_shard_path_is_unaffected(policies):
    fleet = ShardedPolicyServer(store=False, num_shards=1)
    for policy_id, policy in policies.items():
        fleet.register(policy_id, policy)
    assert fleet.supervisor is None
    assert fleet.ping()[0]["in_process"] is True
    batch = mixed_batch(29, 50, list(policies))
    response = fleet.serve_columnar(batch)
    assert len(response.action_indices) == 50
    with pytest.raises(ShardedServingError, match="multi-shard"):
        fleet.inject_fault(Fault(kind="kill", shard=0))
    stats = fleet.stats()
    assert "supervisor" not in stats
    fleet.close()


# ---------------------------------------------------------------- lifecycle
def test_close_after_crash_reclaims_everything(policies):
    fleet = healing_fleet(policies)
    states = fleet.supervisor.states()
    ring_names = [
        ring.name
        for state in states
        for ring in (state.request_ring, state.response_ring)
    ]
    for state in states:
        os.kill(state.process.pid, signal.SIGKILL)
    fleet.close()
    fleet.close()  # idempotent
    for state in states:
        assert state.process.exitcode in (-signal.SIGKILL, KILL_EXIT_CODE)
    for name in ring_names:
        with pytest.raises(FileNotFoundError):
            SharedMemoryColumnarBuffer.attach(name)


def test_kill_fault_exit_code_is_distinctive(policies):
    fleet = healing_fleet(policies)
    try:
        victim = fleet.supervisor.state(0).process
        fleet.inject_fault(Fault(kind="kill", shard=0))
        fleet.serve_columnar(mixed_batch(31, 90, list(policies)))
        victim.join(timeout=10.0)
        assert victim.exitcode == KILL_EXIT_CODE
    finally:
        fleet.close()


def test_failed_start_unlinks_partial_fleet(monkeypatch):
    fleet = ShardedPolicyServer(
        store=False, num_shards=3, heartbeat_interval=None
    )
    created = []
    original_create = SharedMemoryColumnarBuffer.create.__func__

    def tracking_create(cls, *args, **kwargs):
        buffer = original_create(cls, *args, **kwargs)
        created.append(buffer.name)
        return buffer

    monkeypatch.setattr(
        SharedMemoryColumnarBuffer, "create", classmethod(tracking_create)
    )
    real_factory = fleet.supervisor._process_factory
    calls = {"count": 0}

    def flaky_factory(*args, **kwargs):
        calls["count"] += 1
        if calls["count"] == 2:
            raise RuntimeError("injected spawn failure")
        return real_factory(*args, **kwargs)

    fleet.supervisor._process_factory = flaky_factory
    with pytest.raises(ShardedServingError, match="injected spawn failure"):
        fleet.start()
    assert len(created) >= 3  # shard 0's pair plus shard 1's first ring
    for name in created:
        with pytest.raises(FileNotFoundError):
            SharedMemoryColumnarBuffer.attach(name)
    fleet.close()  # clean no-op after the failed start


def test_spawn_start_method_round_trip(policies, reference):
    fleet = ShardedPolicyServer(
        store=False,
        num_shards=2,
        start_method="spawn",
        heartbeat_interval=None,
    ).start()
    try:
        for policy_id, policy in policies.items():
            fleet.register(policy_id, policy)
        batch = mixed_batch(32, 70, list(policies))
        response = fleet.serve_columnar(batch)
        expected = reference.serve_columnar(batch)
        assert np.array_equal(response.action_indices, expected.action_indices)
    finally:
        fleet.close()
