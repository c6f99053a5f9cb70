"""Compiled policy serving: flattened trees, the batched server, and shards.

The deployment half of the policy store.  ``CompiledTreePolicy`` turns a
verified :class:`~repro.core.tree_policy.TreePolicy` into contiguous numpy
arrays with a vectorised ``predict_batch``; ``PolicyServer`` fronts a
:class:`~repro.store.PolicyStore` with an LRU of compiled policies and
batches concurrent requests across buildings.  The native request API is
columnar (:meth:`PolicyServer.serve_columnar` over
:class:`~repro.data.PolicyRequestBatch`); the per-request object API is a
thin adapter over it.  ``ShardedPolicyServer`` scales the same front door
across N worker processes over the zero-copy shared-memory transport
(:mod:`repro.data.shm`), with a self-healing ``ShardSupervisor``
(:mod:`repro.serving.supervision`) restarting dead or hung workers behind
retry/deadline/degraded-fallback semantics, exercised by the deterministic
fault-injection harness in :mod:`repro.serving.faults`.  Resolution is
arena-first when the store carries a packed arena
(:mod:`repro.store.arena`): policies are answered by zero-copy mmap views
shared across every shard, with restart warm-up reduced to reopening the
mapping.  Driven by ``repro serve`` (``--shards N`` for the sharded fleet,
``--arena`` to require the packed path).
"""

from repro.data import PolicyRequestBatch, PolicyResponseBatch
from repro.serving.compiled import CompiledTreeForest, CompiledTreePolicy
from repro.serving.server import (
    PolicyRequest,
    PolicyResponse,
    PolicyServer,
    ServerStats,
    UnknownPolicyError,
)
from repro.serving.faults import FAULT_KINDS, Fault, FaultPlan, FaultState
from repro.serving.sharded import (
    FleetStats,
    ShardRouter,
    ShardedPolicyServer,
    ShardedServingError,
    shard_for_policy,
    shard_rows,
)
from repro.serving.supervision import ShardState, ShardSupervisor

__all__ = [
    "CompiledTreeForest",
    "CompiledTreePolicy",
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "FaultState",
    "FleetStats",
    "PolicyRequest",
    "PolicyRequestBatch",
    "PolicyResponse",
    "PolicyResponseBatch",
    "PolicyServer",
    "ServerStats",
    "ShardRouter",
    "ShardState",
    "ShardSupervisor",
    "ShardedPolicyServer",
    "ShardedServingError",
    "UnknownPolicyError",
    "shard_for_policy",
    "shard_rows",
]
