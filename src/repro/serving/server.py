"""The policy serving front door.

:class:`PolicyServer` is the embeddable core of a setpoint service: it owns a
:class:`~repro.store.PolicyStore`, keeps an LRU cache of
:class:`~repro.serving.compiled.CompiledTreePolicy` instances keyed by store
entry, and answers request batches that may mix any number of buildings.

The native endpoint is columnar: :meth:`PolicyServer.serve_columnar` takes a
:class:`~repro.data.PolicyRequestBatch` (a building-id column plus a
``(B, F)`` observation matrix) and returns a
:class:`~repro.data.PolicyResponseBatch` — arrays in, arrays out.  The server
interns every policy id it has seen into an integer handle with one dict, so
a batch's id column becomes a handle column in one lookup pass.  Each handle
names a tree in a :class:`~repro.serving.compiled.CompiledTreeForest`: the
packed arena's, which is the mmap itself, the in-memory forest of registered
and cached JSON-compiled policies, or — for JSON policies the batch is the
first to ask for — a small forest of just those loads.  Every row then
descends its own tree in one vectorised pass per forest present in the
batch, with no grouping, sorting, per-policy loop or scatter.  No per-request python objects
exist anywhere on this path; the legacy object API
(:meth:`PolicyServer.serve` over :class:`PolicyRequest`) is a thin adapter
on top of it.

Transport (HTTP, MQTT, a BMS bridge) is deliberately out of scope: the
related SCADA repos show that layer is deployment-specific, while the
batching, caching and store-resolution logic below is what every deployment
shares.  ``repro serve`` (and ``repro serve --columnar``) drives this class
with a synthetic request stream to measure the serving ceiling.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.typing import NDArray

from repro.core.tree_policy import TreePolicy
from repro.data import PolicyRequestBatch, PolicyResponseBatch
from repro.serving.compiled import CompiledTreeForest, CompiledTreePolicy
from repro.store import (
    ArenaIntegrityError,
    ArenaLike,
    PolicyArena,
    PolicyStore,
    resolve_arena,
    resolve_store,
)


@dataclass(frozen=True)
class PolicyRequest:
    """One setpoint query: which policy (building) and the current observation."""

    policy_id: str
    observation: Sequence[float]


@dataclass(frozen=True)
class PolicyResponse:
    """The served decision for one request."""

    policy_id: str
    action_index: int
    heating_setpoint: int
    cooling_setpoint: int


@dataclass
class ServerStats:
    """Operational counters (exposed by ``repro serve``)."""

    requests: int = 0
    batches: int = 0
    compile_count: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    evictions: int = 0
    arena_hits: int = 0
    arena_policies: int = 0
    arena_bytes_mapped: int = 0
    per_policy_requests: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """The counters as a JSON-ready dict (plus derived ``unique_policies``)."""
        return {
            "requests": self.requests,
            "batches": self.batches,
            "compile_count": self.compile_count,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "evictions": self.evictions,
            "arena_hits": self.arena_hits,
            "arena_policies": self.arena_policies,
            "arena_bytes_mapped": self.arena_bytes_mapped,
            "unique_policies": len(self.per_policy_requests),
            "per_policy_requests": dict(self.per_policy_requests),
        }


class UnknownPolicyError(KeyError):
    """The requested policy_id is neither registered nor in the store."""


class PolicyServer:
    """Batched, store-backed serving of compiled tree policies.

    Policy resolution is **arena-first**: when the store carries a packed
    arena (:mod:`repro.store.arena`) — auto-detected, or forced/pointed at
    via the ``arena`` argument — a requested policy is answered from the
    arena's zero-copy mmap forest, with no JSON parse and no compile.
    Registered policies shadow the arena.  The LRU only exists for policies
    *not* in the arena (the JSON path), so arena policies can never be
    evicted.

    ``arena`` accepts anything :func:`repro.store.resolve_arena` does:
    ``None`` (auto-detect ``<store>/policies.arena``), ``False`` (disable),
    ``True`` (require), a path, or an open :class:`~repro.store.PolicyArena`
    (shared; the caller keeps ownership).  A corrupt or truncated arena
    never takes the server down — it is skipped with the reason recorded in
    :attr:`arena_error` and serving falls back to the JSON store path.
    """

    def __init__(
        self,
        store: Union[PolicyStore, str, None] = None,
        cache_size: int = 8,
        arena: ArenaLike = None,
    ):
        if cache_size < 1:
            raise ValueError("cache_size must be at least 1")
        self.store = resolve_store(store if store is not None else True)
        self.cache_size = cache_size
        self._cache: "OrderedDict[str, CompiledTreePolicy]" = OrderedDict()
        self._registered: Dict[str, CompiledTreePolicy] = {}
        self.stats = ServerStats()
        #: The server closes an arena it opened itself; a shared instance
        #: passed in by the caller is left open.
        self._owns_arena = not isinstance(arena, PolicyArena)
        self.arena, self.arena_error = resolve_arena(arena, self.store)
        #: Policy id -> handle.  Handle ``h`` below the arena's policy count is
        #: arena tree ``h``; the rest name ``_memory_ids`` and the in-memory
        #: forest's trees in that order, offset by the arena's policy count.
        self._handles: Dict[str, int] = {}
        self._arena_forest: Optional[CompiledTreeForest] = None
        self._arena_ids: List[str] = []
        #: The in-memory forest holds every registration and every LRU entry;
        #: it is rebuilt, and its handles re-interned, before the next batch
        #: after either set changes.  LRU hits reorder the LRU, never it.
        self._memory_ids: List[str] = []
        self._memory_forest: Optional[CompiledTreeForest] = None
        self._memory_stale = False
        if self.arena is not None:
            self.stats.arena_policies = self.arena.policy_count
            self.stats.arena_bytes_mapped = self.arena.nbytes_mapped
            self._arena_forest = self.arena.forest()
            self._arena_ids = self.arena.policy_ids()

    def close(self) -> None:
        """Release the arena mapping if this server opened it (idempotent)."""
        if self.arena is not None and self._owns_arena:
            self._arena_forest = None
            self.arena.close()

    # ------------------------------------------------------------ resolution
    def register(
        self, policy_id: str, policy: Union[TreePolicy, CompiledTreePolicy]
    ) -> CompiledTreePolicy:
        """Pin an in-memory policy under a name (bypasses the store and LRU)."""
        compiled = (
            policy
            if isinstance(policy, CompiledTreePolicy)
            else CompiledTreePolicy.from_policy(policy)
        )
        self._registered[policy_id] = compiled
        self._memory_stale = True
        return compiled

    def policy_ids(self) -> List[str]:
        """Every servable policy id: registered, arena-packed, store entries."""
        ids = list(self._registered)
        seen = set(ids)
        if self.arena is not None:
            fresh = [pid for pid in self.arena.policy_ids() if pid not in seen]
            ids.extend(fresh)
            seen.update(fresh)
        if self.store is not None:
            ids.extend(
                entry.key.name
                for entry in self.store.entries()
                if entry.key.name not in seen
            )
        return ids

    def resolve(self, policy_id: str) -> CompiledTreePolicy:
        """The compiled policy for an id — registered, arena, cached, or loaded.

        Resolution order: pinned registrations, then the packed arena (O(1)
        zero-copy mmap handle, counted in ``arena_hits``), then the LRU of
        JSON-compiled policies, then a store load + compile.  Arena handles
        never enter the LRU, so they can never be evicted — restart-warm and
        eviction-proof by construction.
        """
        registered = self._registered.get(policy_id)
        if registered is not None:
            return registered
        if self.arena is not None:
            handle = self.arena.get(policy_id)
            if handle is not None:
                self.stats.arena_hits += 1
                return handle
        cached = self._cache.get(policy_id)
        if cached is not None:
            self._cache.move_to_end(policy_id)
            self.stats.cache_hits += 1
            return cached
        self.stats.cache_misses += 1
        compiled = self._compile_stored(policy_id)
        self.stats.compile_count += 1
        self._cache_insert(policy_id, compiled)
        return compiled

    def _compile_stored(self, policy_id: str) -> CompiledTreePolicy:
        """Load a policy's JSON artifact from the store and compile it."""
        stored = self.store.find(policy_id) if self.store is not None else None
        if stored is None:
            raise UnknownPolicyError(policy_id)
        return CompiledTreePolicy.from_policy(stored.policy)

    def _cache_insert(self, policy_id: str, compiled: CompiledTreePolicy) -> None:
        """Add a JSON-compiled policy to the LRU, evicting the oldest past capacity."""
        self._cache[policy_id] = compiled
        self._memory_stale = True
        if len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
            self.stats.evictions += 1

    # ---------------------------------------------------------------- handles
    def _refresh_memory(self) -> None:
        """Rebuild the in-memory forest from the LRU, then the registrations."""
        if not self._memory_stale:
            return
        for policy_id in self._memory_ids:
            del self._handles[policy_id]
        members = dict(self._cache)
        members.update(self._registered)  # a registration shadows its LRU entry
        self._memory_ids = list(members)
        self._memory_forest = (
            CompiledTreeForest.from_compiled(list(members.values())) if members else None
        )
        first = len(self._arena_ids)
        self._handles.update(zip(self._memory_ids, range(first, first + len(members))))
        self._memory_stale = False

    def _lookup(
        self, policy_ids: NDArray[Any]
    ) -> Tuple[NDArray[Any], Dict[str, CompiledTreePolicy]]:
        """Each row's handle, plus the JSON policies first compiled for this batch.

        Ids seen before cost one dict lookup each.  An unseen arena id is
        interned on the spot.  An unseen JSON-only id is loaded and compiled
        but not yet cached: it gets a handle just past the in-memory forest
        for this batch only, and is interned when it enters the LRU once the
        batch succeeds.  Raises :class:`UnknownPolicyError` with the stats
        and the LRU unchanged.
        """
        self._refresh_memory()
        ids = policy_ids.tolist()
        table = self._handles
        try:
            return np.fromiter(map(table.__getitem__, ids), dtype=np.int64, count=len(ids)), {}
        except KeyError:
            pass
        staged: Dict[str, CompiledTreePolicy] = {}
        for policy_id in sorted(set(ids).difference(table)):
            row = self.arena.row(policy_id) if self.arena is not None else None
            if row is not None:
                table[policy_id] = row
            else:
                staged[policy_id] = self._compile_stored(policy_id)
        first = len(self._arena_ids) + len(self._memory_ids)
        table.update(zip(staged, range(first, first + len(staged))))
        handles = np.fromiter(map(table.__getitem__, ids), dtype=np.int64, count=len(ids))
        for policy_id in staged:
            del table[policy_id]
        return handles, staged

    # --------------------------------------------------------------- serving
    def serve_columnar(self, batch: PolicyRequestBatch) -> PolicyResponseBatch:
        """Answer one columnar batch of (possibly mixed-building) requests.

        The id column becomes a handle column through the intern table, and
        each forest present in the batch — the arena's, the in-memory one,
        and one of the batch's fresh JSON loads — runs one descent over its
        rows.  Every policy is resolved and every row's input width checked
        before any counter moves, so a batch that raises
        (:class:`UnknownPolicyError`, or ``ValueError`` naming the batch's
        shape) leaves :attr:`stats` and the LRU untouched.
        """
        rows = len(batch)
        if rows == 0:
            return PolicyResponseBatch(
                policy_ids=np.empty(0, dtype=str),
                action_indices=np.empty(0, dtype=np.int64),
                heating_setpoints=np.empty(0, dtype=np.int64),
                cooling_setpoints=np.empty(0, dtype=np.int64),
            )
        handles, staged = self._lookup(batch.policy_ids)
        # Handles below arena_end are arena trees, those below memory_end the
        # in-memory forest's, and the rest this batch's fresh JSON loads.
        arena_end = len(self._arena_ids)
        memory_end = arena_end + len(self._memory_ids)
        loaded = CompiledTreeForest.from_compiled(list(staged.values())) if staged else None
        counts = np.bincount(handles)
        present = np.flatnonzero(counts)
        arena_cut, memory_cut = np.searchsorted(present, (arena_end, memory_end)).tolist()
        # (forest, its first handle, the handle past its last) per forest reached.
        parts: List[Tuple[CompiledTreeForest, int, int]] = []
        observations = batch.observations
        for forest, first, end, trees in (
            (self._arena_forest, 0, arena_end, present[:arena_cut]),
            (self._memory_forest, arena_end, memory_end, present[arena_cut:memory_cut]),
            (loaded, memory_end, memory_end + len(staged), present[memory_cut:]),
        ):
            if trees.size == 0:
                continue
            if forest is None:
                raise ArenaIntegrityError("the server's arena is closed")
            observations = forest.check_inputs(trees - first, observations)
            parts.append((forest, first, end))

        if len(parts) == 1:
            forest, first, _ = parts[0]
            actions, pairs = forest.predict(handles - first, observations)
        else:
            actions = np.empty(rows, dtype=np.int64)
            pairs = np.empty((rows, 2), dtype=np.int64)
            for forest, first, end in parts:
                index = np.flatnonzero((handles >= first) & (handles < end))
                actions[index], pairs[index] = forest.predict(
                    handles[index] - first, observations[index]
                )

        self._count(rows, present, counts[present], staged)
        return PolicyResponseBatch(
            policy_ids=batch.policy_ids,
            action_indices=actions,
            heating_setpoints=pairs[:, 0],
            cooling_setpoints=pairs[:, 1],
        )

    def _count(
        self,
        rows: int,
        present: NDArray[Any],
        counts: NDArray[Any],
        staged: Dict[str, CompiledTreePolicy],
    ) -> None:
        """Credit a served batch to the stats and the LRU.

        Per distinct policy: an arena hit for an arena policy, a cache hit
        for an LRU entry, and a miss plus a compile for a policy this batch
        loaded.  The loaded ones enter the LRU last, in sorted id order.
        """
        stats = self.stats
        tally = stats.per_policy_requests
        arena_end = len(self._arena_ids)
        names = self._memory_ids + list(staged)  # the handles past the arena's
        for handle, count in zip(present.tolist(), counts.tolist()):
            if handle < arena_end:
                policy_id = self._arena_ids[handle]
                stats.arena_hits += 1
            else:
                policy_id = names[handle - arena_end]
                if policy_id in self._cache and policy_id not in self._registered:
                    stats.cache_hits += 1
                    self._cache.move_to_end(policy_id)
            tally[policy_id] = tally.get(policy_id, 0) + count
        for policy_id, compiled in staged.items():
            stats.cache_misses += 1
            stats.compile_count += 1
            self._cache_insert(policy_id, compiled)
        stats.requests += rows
        stats.batches += 1

    def serve(self, requests: Sequence[PolicyRequest]) -> List[PolicyResponse]:
        """Answer one batch of legacy per-request objects.

        A thin adapter over :meth:`serve_columnar`: requests are packed into
        one :class:`~repro.data.PolicyRequestBatch`, served on the columnar
        path, and unpacked back into :class:`PolicyResponse` objects in
        request order.  Semantics (stats, errors) are identical.
        """
        if not requests:
            return []
        return self.serve_columnar(
            PolicyRequestBatch.from_requests(requests)
        ).to_responses()

    def serve_one(self, policy_id: str, observation: Sequence[float]) -> PolicyResponse:
        """Single-request convenience (a batch of one)."""
        return self.serve([PolicyRequest(policy_id=policy_id, observation=observation)])[0]
