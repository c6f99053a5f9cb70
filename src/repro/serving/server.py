"""The policy serving front door.

:class:`PolicyServer` is the embeddable core of a setpoint service: it owns a
:class:`~repro.store.PolicyStore` and answers request batches that may mix
any number of buildings.

The endpoint is columnar: :meth:`PolicyServer.serve_columnar` takes a
:class:`~repro.data.PolicyRequestBatch` (a building-id column plus a
``(B, F)`` observation matrix) and returns a
:class:`~repro.data.PolicyResponseBatch` — arrays in, arrays out.  The server
interns every policy id it has seen into an integer handle with one dict, so
a batch's id column becomes a handle column in one lookup pass.  Each handle
names a tree in one of two
:class:`~repro.serving.compiled.CompiledTreeForest` instances: the packed
arena's, which is the mmap itself, or the in-memory forest of registered
policies and JSON-only policies compiled on first use.  The in-memory forest
only grows, so a handle never changes meaning.  Every row then descends its
own tree in one vectorised pass per forest present in the batch, with no
grouping, sorting, per-policy loop or scatter.  No per-request python
objects exist anywhere on this path.

Transport (HTTP, MQTT, a BMS bridge) is deliberately out of scope: the
related SCADA repos show that layer is deployment-specific, while the
batching and store-resolution logic below is what every deployment shares.
``repro serve`` drives this class through a
:class:`~repro.serving.sharded.ShardedPolicyServer` (in process at
``--shards 1``) with a synthetic request stream to measure the serving
ceiling.
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple, Union

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


@dataclass
class ServerStats:
    """Operational counters (exposed by ``repro serve``).

    ``cache_hits`` counts JSON-only policies compiled earlier and served
    again; ``cache_misses`` counts one per compile, so it equals
    ``compile_count``.
    """

    requests: int = 0
    batches: int = 0
    compile_count: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
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
    Registered policies shadow the arena.  A policy that exists only as a
    JSON artifact is compiled the first time it is asked for and stays
    compiled for the server's lifetime; pack the store
    (``repro policies --pack``) to serve a large fleet without compiling.

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
        arena: ArenaLike = None,
    ):
        self.store = resolve_store(store if store is not None else True)
        self._registered: Set[str] = set()
        self.stats = ServerStats()
        #: The server closes an arena it opened itself; a shared instance
        #: passed in by the caller is left open.
        self._owns_arena = not isinstance(arena, PolicyArena)
        self.arena, self.arena_error = resolve_arena(arena, self.store)
        #: Policy id -> handle.  Handle ``h`` below the arena's policy count is
        #: arena tree ``h``; handle ``arena count + i`` is in-memory tree ``i``.
        self._handles: Dict[str, int] = {}
        self._arena_forest: Optional[CompiledTreeForest] = None
        self._arena_ids: List[str] = []
        #: The in-memory forest's trees and their ids, in handle order.
        self._memory: List[CompiledTreePolicy] = []
        self._memory_ids: List[str] = []
        self._memory_forest: Optional[CompiledTreeForest] = None
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
        """Pin an in-memory policy under a name (shadows the arena and the store).

        The id moves into the in-memory forest; re-registering an id already
        there replaces its tree in place, so no other handle changes meaning.
        """
        compiled = (
            policy
            if isinstance(policy, CompiledTreePolicy)
            else CompiledTreePolicy.from_policy(policy)
        )
        slot = self._handles.get(policy_id, -1) - len(self._arena_ids)
        if slot >= 0:
            self._memory[slot] = compiled
            self._memory_forest = CompiledTreeForest.from_compiled(self._memory)
        else:
            loads = {policy_id: compiled}
            self._commit(loads, self._grown(loads))
        self._registered.add(policy_id)
        return compiled

    def policy_ids(self) -> List[str]:
        """Every servable policy id: in-memory, arena-packed, store entries."""
        ids = list(self._memory_ids)
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
        """The compiled policy for an id — registered, arena-packed, or compiled.

        Resolves through the same lookup as :meth:`serve_columnar` and counts
        the same way (an arena hit, a cache hit, or a miss plus a compile),
        but serves no request.
        """
        handles, loads = self._lookup(np.array([policy_id], dtype=np.str_))
        if loads:
            self._commit(loads, self._grown(loads))
        handle = int(handles[0])
        self._credit([handle], loads)
        slot = handle - len(self._arena_ids)
        if slot >= 0:
            return self._memory[slot]
        packed = self.arena.get(policy_id) if self.arena is not None else None
        if packed is None:
            raise ArenaIntegrityError("the server's arena is closed")
        return packed

    def _compile_stored(self, policy_id: str) -> CompiledTreePolicy:
        """Load a policy's JSON artifact from the store and compile it."""
        stored = self.store.find(policy_id) if self.store is not None else None
        if stored is None:
            raise UnknownPolicyError(policy_id)
        return CompiledTreePolicy.from_policy(stored.policy)

    # ---------------------------------------------------------------- handles
    def _lookup(
        self, policy_ids: NDArray[Any]
    ) -> Tuple[NDArray[Any], Dict[str, CompiledTreePolicy]]:
        """Each row's handle, plus the JSON-only policies compiled for this call.

        Ids seen before cost one dict lookup each.  An unseen arena id is
        interned on the spot.  An unseen JSON-only id is loaded, compiled and
        given the handle it takes once the caller appends it to the in-memory
        forest (:meth:`_commit`).  Raises :class:`UnknownPolicyError` with
        the stats and the in-memory forest unchanged.
        """
        ids = policy_ids.tolist()
        table = self._handles
        try:
            return np.fromiter(map(table.__getitem__, ids), dtype=np.int64, count=len(ids)), {}
        except KeyError:
            pass
        loads: Dict[str, CompiledTreePolicy] = {}
        for policy_id in sorted(set(ids).difference(table)):
            row = self.arena.row(policy_id) if self.arena is not None else None
            if row is not None:
                table[policy_id] = row
            else:
                loads[policy_id] = self._compile_stored(policy_id)
        first = len(self._arena_ids) + len(self._memory)
        fresh = dict(zip(loads, range(first, first + len(loads))))
        lookup = ChainMap(table, fresh).__getitem__
        return np.fromiter(map(lookup, ids), dtype=np.int64, count=len(ids)), loads

    def _grown(self, loads: Dict[str, CompiledTreePolicy]) -> CompiledTreeForest:
        """The in-memory forest with ``loads`` appended (the server's is unchanged)."""
        return CompiledTreeForest.from_compiled(self._memory + list(loads.values()))

    def _commit(
        self, loads: Dict[str, CompiledTreePolicy], forest: CompiledTreeForest
    ) -> None:
        """Append ``loads`` to the in-memory forest, now ``forest``, and intern them."""
        first = len(self._arena_ids) + len(self._memory)
        self._handles.update(zip(loads, range(first, first + len(loads))))
        self._memory.extend(loads.values())
        self._memory_ids.extend(loads)
        self._memory_forest = forest

    def _credit(
        self, handles: List[int], loads: Dict[str, CompiledTreePolicy]
    ) -> List[str]:
        """Count how each distinct handle resolved; return the handles' ids.

        An arena hit for an arena tree, a miss plus a compile for a policy
        this call loaded, and a cache hit for a JSON policy compiled earlier.
        A registration counts as neither.
        """
        stats = self.stats
        arena_end = len(self._arena_ids)
        names: List[str] = []
        for handle in handles:
            if handle < arena_end:
                names.append(self._arena_ids[handle])
                stats.arena_hits += 1
                continue
            policy_id = self._memory_ids[handle - arena_end]
            names.append(policy_id)
            if policy_id in loads:
                stats.cache_misses += 1
                stats.compile_count += 1
            elif policy_id not in self._registered:
                stats.cache_hits += 1
        return names

    # --------------------------------------------------------------- serving
    def serve_columnar(self, batch: PolicyRequestBatch) -> PolicyResponseBatch:
        """Answer one columnar batch of (possibly mixed-building) requests.

        The id column becomes a handle column through the intern table, and
        each forest present in the batch — the arena's and the in-memory
        one, with any JSON policies this batch is the first to ask for
        appended — runs one descent over its rows.  Every policy is resolved
        and every row's input width checked before any counter moves or the
        in-memory forest grows, so a batch that raises
        (:class:`UnknownPolicyError`, or ``ValueError`` naming the batch's
        shape) leaves :attr:`stats` and the in-memory forest untouched.
        """
        rows = len(batch)
        if rows == 0:
            return PolicyResponseBatch(
                policy_ids=np.empty(0, dtype=str),
                action_indices=np.empty(0, dtype=np.int64),
                heating_setpoints=np.empty(0, dtype=np.int64),
                cooling_setpoints=np.empty(0, dtype=np.int64),
            )
        handles, loads = self._lookup(batch.policy_ids)
        grown = self._grown(loads) if loads else None
        # Handles below arena_end are arena trees, the rest in-memory trees.
        arena_end = len(self._arena_ids)
        counts = np.bincount(handles)
        present = np.flatnonzero(counts)
        cut = int(np.searchsorted(present, arena_end))
        # (forest, its first handle) per forest the batch reaches, arena first.
        parts: List[Tuple[CompiledTreeForest, int]] = []
        observations = batch.observations
        for forest, first, trees in (
            (self._arena_forest, 0, present[:cut]),
            (grown or self._memory_forest, arena_end, present[cut:]),
        ):
            if trees.size == 0:
                continue
            if forest is None:
                raise ArenaIntegrityError("the server's arena is closed")
            observations = forest.check_inputs(trees - first, observations)
            parts.append((forest, first))

        if len(parts) == 1:
            forest, first = parts[0]
            actions, pairs = forest.predict(handles - first, observations)
        else:
            actions = np.empty(rows, dtype=np.int64)
            pairs = np.empty((rows, 2), dtype=np.int64)
            in_arena = handles < arena_end
            for (forest, first), index in zip(
                parts, (np.flatnonzero(in_arena), np.flatnonzero(~in_arena))
            ):
                actions[index], pairs[index] = forest.predict(
                    handles[index] - first, observations[index]
                )

        if grown is not None:
            self._commit(loads, grown)
        tally = self.stats.per_policy_requests
        names = self._credit(present.tolist(), loads)
        for policy_id, count in zip(names, counts[present].tolist()):
            tally[policy_id] = tally.get(policy_id, 0) + count
        self.stats.requests += rows
        self.stats.batches += 1
        return PolicyResponseBatch(
            policy_ids=batch.policy_ids,
            action_indices=actions,
            heating_setpoints=pairs[:, 0],
            cooling_setpoints=pairs[:, 1],
        )
