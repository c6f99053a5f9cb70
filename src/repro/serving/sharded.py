"""Multi-process sharded policy serving over the shared-memory transport.

One :class:`~repro.serving.server.PolicyServer` saturates one core: the id
lookup and the forest descent run on a single Python thread.
:class:`ShardedPolicyServer` is the multi-core scale-out layer — it spawns N
worker processes, each owning a full ``PolicyServer`` shard, and routes
request rows to shards by a **stable hash of the policy id** so every
JSON-only policy is compiled in exactly one worker (no duplicated
compilation across shards).

The process boundary is crossed with zero copies of array payloads:
requests and responses travel as
:class:`~repro.data.shm.SharedMemoryColumnarBuffer` writes (one ring per
shard per direction), and only tiny
:class:`~repro.data.shm.ShmBatchHeader` structs — validated by the
transport's no-pickle guard on every send — pass through the per-shard
control pipes.  Workers map numpy views straight onto the request ring,
serve, and park the response in their response ring for the parent to map
back out.

The fleet is **self-healing**: a :class:`~repro.serving.supervision.
ShardSupervisor` owns the worker processes, restarts any that die or stop
responding (fresh rings under a bumped generation, registered policies
replayed from a journal), and a heartbeat monitor sweeps the fleet between
requests.  ``serve_columnar`` retries a failed shard's slice with
exponential backoff under a per-request deadline, keeping surviving shards'
results; under ``degraded="fallback"`` an exhausted slice is served by a
parent-side in-process ``PolicyServer`` instead of raising — callers see
latency, not exceptions.  See :mod:`repro.serving.supervision` for the
mechanism and :mod:`repro.serving.faults` for the deterministic chaos
harness that exercises it.

``num_shards=1`` takes an in-process fallback path (a plain ``PolicyServer``
behind the same API), so tests, notebooks and small deployments pay no
process, queue or ring tax until they ask for one.

Lifecycle: :meth:`ShardedPolicyServer.start` spawns the workers (implicit on
first use), :meth:`~ShardedPolicyServer.ping` health-checks them,
:meth:`~ShardedPolicyServer.close` shuts them down — escalating
``join`` → ``terminate`` → ``kill`` for stragglers — and unlinks every
ring.  Rings are owned (created + unlinked) solely by the parent, so a
killed worker can never leak or tear down shared memory, and ``close`` is
idempotent even after a failed partial ``start``.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

import numpy as np
from numpy.typing import NDArray

from repro.data import PolicyRequestBatch, PolicyResponseBatch
from repro.data.shm import (
    DEFAULT_CAPACITY,
    ShmBatchHeader,
    ShmTransportError,
)
from repro.serving.faults import Fault
from repro.serving.server import PolicyServer
from repro.serving.supervision import (
    DEFAULT_HEARTBEAT_INTERVAL,
    ShardedServingError,
    ShardSupervisor,
)
from repro.store import ArenaLike, PolicyArena, PolicyStore, resolve_arena, resolve_store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.tree_policy import TreePolicy

#: Per-direction, per-shard ring size (bytes) — the transport's default; see
#: :data:`repro.data.shm.DEFAULT_CAPACITY` for the sizing rationale.
DEFAULT_RING_CAPACITY = DEFAULT_CAPACITY

#: Seconds the parent waits on a worker response (per attempt) before
#: declaring it unresponsive.
DEFAULT_TIMEOUT = 60.0

#: How many times a failed shard slice is re-dispatched (after restarting
#: the shard) before the request degrades or fails.
DEFAULT_RETRIES = 2

#: Base of the exponential backoff between retry attempts, in seconds.
DEFAULT_BACKOFF = 0.05

#: Most policy ids a :class:`ShardRouter` remembers before it starts over.
SHARD_ROUTER_LIMIT = 1 << 16

__all__ = [
    "DEFAULT_BACKOFF",
    "DEFAULT_RETRIES",
    "DEFAULT_RING_CAPACITY",
    "DEFAULT_TIMEOUT",
    "FleetStats",
    "ShardRouter",
    "ShardedPolicyServer",
    "ShardedServingError",
    "shard_for_policy",
    "shard_rows",
]


def shard_for_policy(policy_id: str, num_shards: int) -> int:
    """The shard that owns ``policy_id`` — stable across processes and runs.

    Uses CRC-32 rather than :func:`hash` (which is salted per interpreter),
    so the same policy always resolves to the same shard: a JSON-only
    policy is compiled in exactly one worker and re-routing is deterministic.
    """
    return zlib.crc32(str(policy_id).encode("utf-8")) % int(num_shards)


class ShardRouter:
    """Per-row shard assignment that remembers every policy id it has routed.

    The ids seen so far are kept sorted, each with its shard, so routing a
    batch is one vectorised binary search of its id column against that
    table: no sort of the column and no Python object per row.  A batch that
    brings an id the table lacks is sorted once to learn it.  Past
    :data:`SHARD_ROUTER_LIMIT` ids the table starts over, so a stream of
    ever-new (or unknown) ids cannot grow it without bound.
    """

    def __init__(self, num_shards: int):
        self.num_shards = int(num_shards)
        self._ids: NDArray[Any] = np.empty(0, dtype=np.str_)
        self._shards: NDArray[Any] = np.empty(0, dtype=np.int64)

    def __call__(self, policy_ids: NDArray[Any]) -> NDArray[Any]:
        """The shard of each row's policy id, shape ``(B,)``."""
        if len(policy_ids) == 0:
            return np.empty(0, dtype=np.int64)
        slots = self._find(policy_ids)
        if slots is None:
            self._learn(policy_ids)
            slots = self._find(policy_ids)
            assert slots is not None
        return self._shards[slots]

    def _find(self, policy_ids: NDArray[Any]) -> Optional[NDArray[Any]]:
        """Each row's slot in the table, or ``None`` if any id is missing."""
        table = self._ids
        if len(table) == 0 or table.dtype.kind != policy_ids.dtype.kind:
            return None
        slots = np.searchsorted(table, policy_ids)
        np.minimum(slots, len(table) - 1, out=slots)
        return slots if np.array_equal(table[slots], policy_ids) else None

    def _learn(self, policy_ids: NDArray[Any]) -> None:
        """Merge the batch's distinct ids into the table, hashing the new ones."""
        batch_ids = np.unique(policy_ids)
        table = self._ids
        if (
            table.dtype.kind != batch_ids.dtype.kind
            or len(table) + len(batch_ids) > SHARD_ROUTER_LIMIT
        ):
            table = batch_ids[:0]
        fresh = np.setdiff1d(batch_ids, table, assume_unique=True)
        shards = np.fromiter(
            (shard_for_policy(str(policy_id), self.num_shards) for policy_id in fresh),
            dtype=np.int64,
            count=len(fresh),
        )
        merged = np.concatenate([table, fresh])
        order = np.argsort(merged, kind="stable")
        self._ids = merged[order]
        self._shards = np.concatenate([self._shards[: len(table)], shards])[order]


def shard_rows(batch: PolicyRequestBatch, num_shards: int) -> NDArray[Any]:
    """Per-row shard assignment for one request batch, shape ``(B,)``.

    Hashes each distinct policy id once.  :class:`ShardedPolicyServer`
    keeps one :class:`ShardRouter` across batches instead, so an id is
    hashed once in all.
    """
    return ShardRouter(num_shards)(batch.policy_ids)


@dataclass
class FleetStats:
    """Parent-side counters for the fleet's fault-handling behavior.

    Distinct from the per-worker serving counters: these count what the
    *supervision* layer did — retries burned, rows served by the degraded
    fallback, and rows lost to exhausted retry budgets (the chaos suite
    asserts this stays zero).
    """

    requests: int = 0
    batches: int = 0
    retries: int = 0
    fallback_rows: int = 0
    degraded_batches: int = 0
    lost_requests: int = 0

    def to_dict(self) -> Dict[str, int]:
        """The counters as a plain dict for ``stats()`` and the CLI."""
        return {
            "requests": self.requests,
            "batches": self.batches,
            "retries": self.retries,
            "fallback_rows": self.fallback_rows,
            "degraded_batches": self.degraded_batches,
            "lost_requests": self.lost_requests,
        }


@dataclass
class _PendingSlice:
    """One shard's contiguous slice of the sorted batch, awaiting a reply."""

    lo: int
    hi: int

    @property
    def rows(self) -> int:
        return self.hi - self.lo


@dataclass
class _SortedBatch:
    """A request batch pre-sorted into contiguous per-shard slices."""

    ids: NDArray[Any]
    observations: NDArray[Any]
    order: Optional[NDArray[Any]]
    actions: NDArray[Any]
    heating: NDArray[Any]
    cooling: NDArray[Any]
    pending: Dict[int, _PendingSlice] = field(default_factory=dict)

    def slice_request(self, entry: _PendingSlice) -> PolicyRequestBatch:
        """The sub-batch for one shard slice (views into the sorted arrays)."""
        return PolicyRequestBatch(
            policy_ids=self.ids[entry.lo : entry.hi],
            observations=self.observations[entry.lo : entry.hi],
        )

    def fill(self, entry: _PendingSlice, response: PolicyResponseBatch) -> None:
        """Copy one slice's served columns into the sorted output arrays."""
        self.actions[entry.lo : entry.hi] = response.action_indices
        self.heating[entry.lo : entry.hi] = response.heating_setpoints
        self.cooling[entry.lo : entry.hi] = response.cooling_setpoints


class ShardedPolicyServer:
    """N ``PolicyServer`` shards in N processes behind one columnar front door.

    Same request/response contract as
    :meth:`~repro.serving.server.PolicyServer.serve_columnar` — and
    action-exact against it, because every shard *is* a ``PolicyServer`` and
    rows reach their policy's shard unreordered relative to that policy.
    Worker death or unresponsiveness is handled inside ``serve_columnar``
    (restart + bounded retry, optionally a degraded in-process fallback)
    rather than surfaced to the caller.

    Parameters
    ----------
    store:
        Anything :func:`repro.store.resolve_store` accepts.  Workers open
        their own :class:`~repro.store.PolicyStore` at the resolved root
        (stores are plain directories; concurrent readers are safe).
    num_shards:
        Worker process count.  ``1`` serves in-process (no workers, no
        rings) behind the identical API.
    ring_capacity:
        Bytes per shared-memory ring (one request + one response ring per
        shard).  Must hold the largest single batch routed to one shard.
    start_method:
        ``multiprocessing`` start method; default ``fork`` where available
        (fast), else ``spawn``.
    timeout:
        Seconds (positive) to wait on a worker reply **per attempt** before
        treating the shard as unresponsive (and restarting it).
    retries:
        How many re-dispatch attempts a failed slice gets after the first;
        each retry restarts the failed shard and backs off exponentially.
    backoff:
        Base seconds of the exponential backoff between retries (capped at
        one second per sleep).
    request_deadline:
        Optional wall-clock budget in seconds for one ``serve_columnar``
        call across all attempts; ``None`` means attempts are bounded only
        by ``retries`` × ``timeout``.
    degraded:
        What to do when a slice exhausts its retry budget: ``"fail"`` raises
        :class:`ShardedServingError`; ``"fallback"`` serves the slice with a
        parent-side in-process ``PolicyServer`` (store-resolved + journaled
        registrations), trading latency for availability.
    heartbeat_interval:
        Seconds between background heartbeat sweeps (dead workers restarted
        proactively, idle workers pinged); ``None`` disables the monitor —
        the serve path still heals on contact.
    arena:
        Anything :func:`repro.store.resolve_arena` accepts.  The parent
        resolves it once (validating up front), then every worker mmaps the
        *same* arena file — the OS shares the compiled pages across shard
        processes, and a restarted worker reopens the arena instead of
        replaying JSON recompiles.  A corrupt arena falls back to the JSON
        path fleet-wide (reason in :attr:`arena_error`).
    """

    def __init__(
        self,
        store: Union[PolicyStore, str, None] = None,
        num_shards: int = 1,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
        start_method: Optional[str] = None,
        timeout: float = DEFAULT_TIMEOUT,
        retries: int = DEFAULT_RETRIES,
        backoff: float = DEFAULT_BACKOFF,
        request_deadline: Optional[float] = None,
        degraded: str = "fail",
        heartbeat_interval: Optional[float] = DEFAULT_HEARTBEAT_INTERVAL,
        arena: ArenaLike = None,
    ):
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if not timeout > 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if degraded not in ("fail", "fallback"):
            raise ValueError(
                f"degraded must be 'fail' or 'fallback', got {degraded!r}"
            )
        self.num_shards = int(num_shards)
        self.ring_capacity = int(ring_capacity)
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.request_deadline = (
            float(request_deadline) if request_deadline is not None else None
        )
        self.degraded = degraded
        self._store = resolve_store(store if store is not None else True)
        self._local: Optional[PolicyServer] = None
        self._supervisor: Optional[ShardSupervisor] = None
        self._fallback_server: Optional[PolicyServer] = None
        self._fleet_stats = FleetStats()
        self._router = ShardRouter(self.num_shards)
        self._closed = False
        if self.num_shards == 1:
            # In-process fallback: identical API, zero process/ring tax.
            self._local = PolicyServer(store=self._store, arena=arena)
            self._arena = self._local.arena
            self.arena_error = self._local.arena_error
            self._owns_arena = False  # the local server owns (and closes) it
            return
        # Resolve the arena once parent-side: configuration errors (e.g.
        # arena=True with no packed file) surface here, and the resolved
        # *path* is what workers receive — each worker mmaps the same file,
        # so the compiled pages are shared across every shard process.
        self._owns_arena = not isinstance(arena, PolicyArena)
        self._arena, self.arena_error = resolve_arena(arena, self._store)
        arena_spec: Union[str, bool] = (
            str(self._arena.path) if self._arena is not None else False
        )
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._supervisor = ShardSupervisor(
            context=multiprocessing.get_context(start_method),
            num_shards=self.num_shards,
            store_root=str(self._store.root) if self._store is not None else None,
            ring_capacity=self.ring_capacity,
            heartbeat_interval=heartbeat_interval,
            arena_spec=arena_spec,
        )

    # ------------------------------------------------------------- lifecycle
    @property
    def started(self) -> bool:
        """Whether worker processes are currently running (always False at N=1)."""
        return self._supervisor is not None and self._supervisor.started

    @property
    def supervisor(self) -> Optional[ShardSupervisor]:
        """The fleet supervisor (``None`` on the in-process path)."""
        return self._supervisor

    @property
    def fleet_stats(self) -> FleetStats:
        """Parent-side fault-handling counters (see :class:`FleetStats`)."""
        return self._fleet_stats

    @property
    def arena(self) -> Optional[PolicyArena]:
        """The resolved packed arena (parent-side handle), or ``None``."""
        return self._arena

    def start(self) -> "ShardedPolicyServer":
        """Spawn the worker fleet (no-op at ``num_shards=1`` or if running).

        A failure mid-spawn tears down whatever partial fleet exists (the
        supervisor unlinks every ring it created) before re-raising, so a
        failed ``start`` never leaks shared memory and a subsequent
        :meth:`close` is a clean no-op.
        """
        if self._local is not None:
            return self
        if self._closed:
            raise ShardedServingError("Server already closed")
        assert self._supervisor is not None
        try:
            self._supervisor.start()
        except ShardedServingError:
            self._closed = True
            raise
        except Exception as exc:
            self._closed = True
            raise ShardedServingError(f"Failed to start shard fleet: {exc}") from exc
        return self

    def close(self) -> None:
        """Stop every worker and unlink every ring (idempotent).

        Live workers get a ``stop`` message and a join window; a worker
        that ignores it is escalated ``terminate()`` → ``kill()``, so a
        hung worker can never outlive ``close``.  The parent owns all
        segments, so shared memory is fully reclaimed here even if a worker
        was SIGKILLed mid-flight or ``start`` failed partway.
        """
        if self._closed:
            self._dispose_supervisor()
            return
        self._closed = True
        self._dispose_supervisor()
        if self._local is not None:
            self._local.close()
        if self._fallback_server is not None:
            self._fallback_server.close()
        if self._arena is not None and self._owns_arena:
            self._arena.close()

    def _dispose_supervisor(self) -> None:
        if self._supervisor is not None:
            self._supervisor.close()

    def __enter__(self) -> "ShardedPolicyServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # ---------------------------------------------------------------- health
    def ping(self) -> Dict[int, Dict[str, Any]]:
        """Health-check every shard: ``{shard: {pid, generation, stats}}``.

        A dead worker is restarted and the replacement pinged; a shard that
        still cannot answer reports ``{"error": message}`` instead of
        raising, so one bad shard never hides the health of the rest.
        """
        if self._local is not None:
            return {
                0: {
                    "pid": os.getpid(),
                    "in_process": True,
                    "stats": self._local.stats.to_dict(),
                }
            }
        self._ensure_started()
        assert self._supervisor is not None
        result: Dict[int, Dict[str, Any]] = {}
        with self._supervisor.lock:
            for shard in range(self.num_shards):
                try:
                    self._supervisor.ensure_alive(shard)
                    payload = self._supervisor.request(
                        shard, "ping", timeout=self.timeout
                    )
                    result[shard] = dict(payload)
                except ShardedServingError as exc:
                    result[shard] = {"error": str(exc)}
        return result

    def stats(self) -> Dict[str, Any]:
        """Aggregated serving counters across all shards.

        Sums the per-shard :class:`~repro.serving.server.ServerStats`
        counters and merges the per-policy tallies; also reports the
        per-shard breakdown under ``"shards"``, the parent-side
        fault-handling counters under ``"fleet"`` and — on the multi-shard
        path — supervisor state (restarts, generations, heartbeat ages)
        under ``"supervisor"``.
        """
        pings = self.ping()
        per_shard = {
            shard: payload["stats"]
            for shard, payload in pings.items()
            if "stats" in payload
        }
        totals: Dict[str, Any] = {
            key: sum(stats[key] for stats in per_shard.values())
            for key in (
                "requests",
                "batches",
                "compile_count",
                "cache_hits",
                "cache_misses",
                "arena_hits",
            )
        }
        # Every shard maps the *same* arena file (shared pages), so policy
        # count and mapped bytes aggregate as max, not sum.
        for key in ("arena_policies", "arena_bytes_mapped"):
            totals[key] = max(
                (int(stats.get(key, 0)) for stats in per_shard.values()), default=0
            )
        merged: Dict[str, int] = {}
        for stats in per_shard.values():
            for policy_id, count in stats["per_policy_requests"].items():
                merged[policy_id] = merged.get(policy_id, 0) + count
        totals["unique_policies"] = len(merged)
        totals["per_policy_requests"] = merged
        totals["shards"] = per_shard
        totals["fleet"] = self._fleet_stats.to_dict()
        if self._supervisor is not None:
            with self._supervisor.lock:
                totals["supervisor"] = self._supervisor.describe()
        return totals

    # ----------------------------------------------------------- registration
    def register(self, policy_id: str, policy: "TreePolicy") -> int:
        """Pin an in-memory :class:`~repro.core.tree_policy.TreePolicy`.

        Control-plane operation: the policy is serialised (``to_dict``) to
        the *one* shard that :func:`shard_for_policy` routes the id to —
        registration is the only message type that carries a policy payload
        through the pipe; the serving hot path never does.  The payload is
        also journaled parent-side, so a restarted worker gets every
        registration replayed before it serves (and the degraded fallback
        server, if one exists, registers it too).  Returns the owning shard
        index.
        """
        if self._local is not None:
            self._local.register(policy_id, policy)
            return 0
        self._ensure_started()
        assert self._supervisor is not None
        with self._supervisor.lock:
            shard = shard_for_policy(policy_id, self.num_shards)
            payload = policy.to_dict()
            # Journal first: even if this send fails and the worker is
            # restarted, the replay delivers the registration.
            self._supervisor.record_registration(shard, policy_id, payload)
            self._supervisor.ensure_alive(shard)
            self._supervisor.request(
                shard, "register", policy_id, payload, timeout=self.timeout
            )
            if self._fallback_server is not None:
                self._fallback_server.register(policy_id, policy)
            return shard

    # -------------------------------------------------------- fault injection
    def inject_fault(self, fault: Fault) -> None:
        """Arm one :class:`~repro.serving.faults.Fault` in its target worker.

        Chaos-testing control plane: the fault crosses the control pipe as
        plain scalars and fires inside the worker's real serve path (see
        :mod:`repro.serving.faults`).  Requires a multi-shard fleet.
        """
        if self._local is not None:
            raise ShardedServingError(
                "Fault injection requires a multi-shard fleet (num_shards > 1)"
            )
        self._ensure_started()
        assert self._supervisor is not None
        with self._supervisor.lock:
            self._supervisor.ensure_alive(fault.shard)
            self._supervisor.request(
                fault.shard, "inject", fault.to_wire(), timeout=self.timeout
            )

    # ---------------------------------------------------------------- serving
    def serve_columnar(self, batch: PolicyRequestBatch) -> PolicyResponseBatch:
        """Answer one columnar batch, fanned out across the shard fleet.

        Rows are routed by the server's :class:`ShardRouter` and partitioned
        with one stable argsort, each shard's contiguous slice is parked in
        that shard's request ring (header-only pipe message), all shards
        serve **concurrently**, and responses are mapped back out of the
        response rings and scattered to request order through the inverse
        permutation.

        Fault handling: a shard that dies, times out, or replies under a
        stale ring generation is restarted and its slice re-dispatched, with
        exponential backoff, up to ``retries`` times within
        ``request_deadline``; surviving shards' results are kept throughout.
        When the budget is exhausted, ``degraded="fallback"`` serves the
        remaining slices in-process and ``degraded="fail"`` raises
        :class:`ShardedServingError`.  Worker-*reported* exceptions (e.g. an
        unknown policy id) are deterministic and raise immediately — the
        worker is healthy; the request is not.
        """
        if self._local is not None:
            return self._local.serve_columnar(batch)
        rows = len(batch) if batch is not None else 0
        if rows == 0:
            return PolicyResponseBatch(
                policy_ids=np.empty(0, dtype=str),
                action_indices=np.empty(0, dtype=np.int64),
                heating_setpoints=np.empty(0, dtype=np.int64),
                cooling_setpoints=np.empty(0, dtype=np.int64),
            )
        self._ensure_started()
        assert self._supervisor is not None
        with self._supervisor.lock:
            return self._serve_fleet(batch, rows)

    # -------------------------------------------------------------- internals
    def _ensure_started(self) -> None:
        if self._local is None and not self.started:
            self.start()

    def _partition(self, batch: PolicyRequestBatch, rows: int) -> _SortedBatch:
        """Sort the batch into contiguous per-shard slices (no copy at 1)."""
        row_shards = self._router(batch.policy_ids)
        counts = np.bincount(row_shards, minlength=self.num_shards)
        present = np.flatnonzero(counts)
        sorted_batch = _SortedBatch(
            ids=batch.policy_ids,
            observations=batch.observations,
            order=None,
            actions=np.empty(rows, dtype=np.int64),
            heating=np.empty(rows, dtype=np.int64),
            cooling=np.empty(rows, dtype=np.int64),
        )
        if len(present) == 1:
            sorted_batch.pending[int(present[0])] = _PendingSlice(lo=0, hi=rows)
            return sorted_batch
        order = np.argsort(row_shards, kind="stable")
        sorted_batch.order = order
        sorted_batch.ids = batch.policy_ids[order]
        sorted_batch.observations = batch.observations[order]
        stops = np.cumsum(counts)
        for shard in present:
            sorted_batch.pending[int(shard)] = _PendingSlice(
                lo=int(stops[shard] - counts[shard]), hi=int(stops[shard])
            )
        return sorted_batch

    def _serve_fleet(self, batch: PolicyRequestBatch, rows: int) -> PolicyResponseBatch:
        """The multi-shard serve path: dispatch, retry, degrade, scatter."""
        assert self._supervisor is not None
        sorted_batch = self._partition(batch, rows)
        deadline = time.monotonic() + (
            self.request_deadline if self.request_deadline is not None else math.inf
        )
        attempt = 0
        while sorted_batch.pending:
            failures = self._attempt(sorted_batch, deadline)
            if not failures:
                break
            exhausted = attempt >= self.retries or time.monotonic() >= deadline
            # Restart failed shards either way: retries need a live worker,
            # and even a failing request should leave the fleet healed for
            # the next one.  A restart that itself fails is retried by the
            # next attempt (or by the heartbeat monitor).
            for shard, reason in failures.items():
                try:
                    self._supervisor.restart(shard, reason=reason)
                except Exception:  # noqa: BLE001 - healing is best-effort here
                    pass
            if not exhausted:
                attempt += 1
                self._fleet_stats.retries += 1
                time.sleep(min(self.backoff * (2 ** (attempt - 1)), 1.0))
                continue
            if self.degraded == "fallback":
                self._serve_degraded(sorted_batch)
                break
            lost = sum(entry.rows for entry in sorted_batch.pending.values())
            self._fleet_stats.lost_requests += lost
            raise ShardedServingError(
                "Retry budget exhausted for shards "
                f"{sorted(sorted_batch.pending)} after {attempt + 1} attempts: "
                + "; ".join(
                    f"shard {shard}: {reason}"
                    for shard, reason in sorted(failures.items())
                )
            )
        self._fleet_stats.requests += rows
        self._fleet_stats.batches += 1
        return self._scatter(batch, rows, sorted_batch)

    def _attempt(
        self, sorted_batch: _SortedBatch, deadline: float
    ) -> Dict[int, str]:
        """One dispatch + collect round over the still-pending slices.

        Fills served slices into the sorted output arrays and pops them from
        ``pending``; returns ``{shard: reason}`` for *retryable* failures
        (death, timeout, stale-generation replies).  Worker-reported
        exceptions other than transport errors raise immediately.
        """
        assert self._supervisor is not None
        failures: Dict[int, str] = {}
        expected: Dict[int, int] = {}
        for shard, entry in sorted_batch.pending.items():
            try:
                self._supervisor.ensure_alive(shard)
                expected[shard] = self._dispatch(
                    shard, sorted_batch.slice_request(entry)
                )
            except ShardedServingError as exc:
                failures[shard] = str(exc)
        if expected:
            wait = min(self.timeout, max(deadline - time.monotonic(), 0.0))
            result = self._supervisor.collect(expected, timeout=wait)
            hard = {
                shard: message
                for shard, message in result.errors.items()
                if not message.startswith("ShmTransportError")
            }
            if hard:
                raise ShardedServingError(
                    "; ".join(
                        f"shard {shard}: {message}"
                        for shard, message in sorted(hard.items())
                    )
                )
            for shard, message in result.errors.items():
                failures[shard] = message  # transport trouble: retryable
            failures.update(result.failures)
            for shard, header in result.replies.items():
                entry = sorted_batch.pending[shard]
                try:
                    sorted_batch.fill(entry, self._read_response(shard, header))
                except (ShmTransportError, ValueError) as exc:
                    # e.g. the generation fence rejecting a stale header.
                    failures[shard] = f"{type(exc).__name__}: {exc}"
                    continue
                del sorted_batch.pending[shard]
        return failures

    def _serve_degraded(self, sorted_batch: _SortedBatch) -> None:
        """Serve every still-pending slice with the in-process fallback."""
        server = self._fallback()
        for shard in sorted(sorted_batch.pending):
            entry = sorted_batch.pending.pop(shard)
            sorted_batch.fill(
                entry, server.serve_columnar(sorted_batch.slice_request(entry))
            )
            self._fleet_stats.fallback_rows += entry.rows
        self._fleet_stats.degraded_batches += 1

    def _fallback(self) -> PolicyServer:
        """The lazily-built parent-side degraded server (journal replayed)."""
        if self._fallback_server is None:
            from repro.core.tree_policy import TreePolicy

            assert self._supervisor is not None
            server = PolicyServer(
                store=self._store if self._store is not None else False,
                arena=self._arena if self._arena is not None else False,
            )
            for _, policy_id, payload in self._supervisor.registrations():
                server.register(policy_id, TreePolicy.from_dict(payload))
            self._fallback_server = server
        return self._fallback_server

    def _scatter(
        self, batch: PolicyRequestBatch, rows: int, sorted_batch: _SortedBatch
    ) -> PolicyResponseBatch:
        """Un-sort the served columns back to request order."""
        if sorted_batch.order is None:
            actions: NDArray[Any] = sorted_batch.actions
            heating: NDArray[Any] = sorted_batch.heating
            cooling: NDArray[Any] = sorted_batch.cooling
        else:
            actions = np.empty(rows, dtype=np.int64)
            heating = np.empty(rows, dtype=np.int64)
            cooling = np.empty(rows, dtype=np.int64)
            actions[sorted_batch.order] = sorted_batch.actions
            heating[sorted_batch.order] = sorted_batch.heating
            cooling[sorted_batch.order] = sorted_batch.cooling
        return PolicyResponseBatch(
            policy_ids=batch.policy_ids,
            action_indices=actions,
            heating_setpoints=heating,
            cooling_setpoints=cooling,
        )

    def _dispatch(self, shard: int, sub_batch: PolicyRequestBatch) -> int:
        """Park one shard's slice in its request ring; send the tiny header."""
        assert self._supervisor is not None
        state = self._supervisor.state(shard)
        header = sub_batch.to_shm(state.request_ring)
        header.assert_zero_copy()  # the transport's no-pickle guard
        return self._supervisor.send(shard, "serve", header)

    def _read_response(self, shard: int, header: ShmBatchHeader) -> PolicyResponseBatch:
        """Map one shard's response out of its ring (views; copy before reuse).

        The ring's generation fence rejects headers written under a dead
        generation (:class:`~repro.data.shm.ShmTransportError`), which the
        caller treats as a retryable failure.
        """
        assert self._supervisor is not None
        state = self._supervisor.state(shard)
        return PolicyResponseBatch.from_shm(state.response_ring, header)
