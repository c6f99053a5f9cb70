"""Self-healing supervision for the sharded policy-serving fleet.

:class:`~repro.serving.sharded.ShardedPolicyServer` routes rows; this module
keeps the workers it routes to *alive*.  :class:`ShardSupervisor` owns every
per-shard operating-system resource — the worker process, its duplex control
pipe, and its request/response shared-memory rings — plus the three
mechanisms that turn a worker crash into latency instead of an outage:

* **Restart with generation fencing.**  When a worker dies (or stops
  answering), :meth:`ShardSupervisor.restart` reaps the old process
  (``join`` → ``terminate`` → ``kill`` escalation), unlinks its rings, and
  spawns a replacement with fresh rings created under ``generation + 1``.
  Every :class:`~repro.data.shm.ShmBatchHeader` carries its ring's
  generation, and rings refuse headers from any other generation — so a
  reply built against a dead generation's ring layout is *rejected*, never
  mis-read (see ``read_batch`` in :mod:`repro.data.shm`).

* **Registration journal.**  Cross-process ``register`` calls are recorded
  parent-side (:meth:`ShardSupervisor.record_registration`) and replayed
  into every replacement worker, so in-memory registered policies survive
  restarts exactly like store-resolved ones (workers re-open the store and
  arena themselves, and compile a JSON-only policy again on first use).

* **Heartbeat monitor.**  A daemon thread sweeps the fleet every
  ``heartbeat_interval`` seconds: dead workers are restarted proactively,
  and workers idle past the interval are pinged with a bounded timeout —
  an unresponsive worker is restarted, not waited on.  The sweep takes the
  supervisor lock non-blockingly, so it never contends with serving traffic
  (which supervises as it goes).

The wire protocol (sequence-stamped messages over the control pipe, replies
collected with :func:`multiprocessing.connection.wait`) also lives here, as
does :func:`shard_worker_main`, the worker entry point — the supervised unit
and its supervisor share one module so the protocol has one home.  Every
blocking receive on these control paths carries a timeout (the worker loop
polls its pipe; the parent bounds every ``wait``/``join``), which reprolint's
REP006 timeout-discipline rule enforces.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as connection_wait
from multiprocessing.context import BaseContext
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.data import PolicyRequestBatch
from repro.data.shm import SharedMemoryColumnarBuffer
from repro.serving.faults import KILL_EXIT_CODE, Fault, FaultState
from repro.serving.server import PolicyServer


class ShardedServingError(RuntimeError):
    """A worker failed (died, timed out, or raised while serving)."""


#: Seconds a worker blocks on its control pipe per poll — the timeout
#: discipline's bound on the worker side of the protocol.
WORKER_POLL_SECONDS = 0.25

#: Seconds between heartbeat-monitor sweeps (and the idle age that triggers
#: an active ping); ``heartbeat_interval=None`` disables the monitor.
DEFAULT_HEARTBEAT_INTERVAL = 2.0

#: Seconds an active heartbeat ping may take before the worker counts as
#: unresponsive and is restarted.
DEFAULT_HEARTBEAT_TIMEOUT = 2.0

#: Seconds each stage of the reap escalation (join → terminate → kill) may
#: take before moving to the next, harsher one.
REAP_GRACE_SECONDS = 5.0

#: Seconds a registration replay into a freshly restarted worker may take.
REPLAY_TIMEOUT_SECONDS = 30.0


def _sigterm_to_exit(signum: int, frame: Any) -> None:  # pragma: no cover - workers
    """Turn SIGTERM into SystemExit so worker ``finally`` blocks run."""
    raise SystemExit(0)


def shard_worker_main(
    shard_index: int,
    store_root: Optional[str],
    arena_spec: Union[str, bool],
    request_ring_name: str,
    response_ring_name: str,
    generation: int,
    connection: Connection,
) -> None:
    """Worker entry point: one ``PolicyServer`` shard behind two shm rings.

    ``arena_spec`` is either the path of the packed arena every shard mmaps
    (the OS shares the compiled pages across the fleet, and a respawned
    worker warms up by *reopening the mapping* — no JSON parse, no
    recompile) or ``False`` for the plain JSON-store path.

    Control traffic runs over one duplex ``Pipe`` connection, polled with a
    bounded timeout (never a bare blocking ``recv``).  Every request carries
    a parent-assigned sequence number that the reply echoes, so a reply that
    arrives after the parent timed out and moved on can never be mistaken
    for the answer to a later request.  Protocol (messages received on
    ``connection``):

    * ``("serve", seq, header)`` — map the request batch out of the request
      ring (zero-copy), serve it, park the response in the response ring,
      reply ``("ok", shard, seq, response_header)``.
    * ``("register", seq, policy_id, policy_dict)`` — pin an in-memory
      policy (control plane; this is the one place a policy payload crosses
      the pipe, by design), reply ``("ok", shard, seq, None)``.
    * ``("inject", seq, fault_dict)`` — arm a :class:`~repro.serving.faults.
      Fault` to fire on a later ``serve`` (chaos testing), reply ``ok``.
    * ``("ping", seq)`` — reply ``("pong", shard, seq, {pid, generation,
      pending_faults, stats})``.
    * ``("stop",)`` or ``None`` — clean shutdown.

    Any exception while serving is reported as
    ``("error", shard, seq, message)`` rather than killing the worker.
    SIGTERM triggers the same cleanup path as ``stop`` (close both ring
    attachments; the parent owns and unlinks the segments).  Armed faults
    fire here, in the real serve path: ``kill`` hard-exits with
    :data:`~repro.serving.faults.KILL_EXIT_CODE` before touching the rings,
    ``hang``/``late`` sleep first, and ``stale_header`` stamps the previous
    ring generation into an otherwise-correct reply.
    """
    signal.signal(signal.SIGTERM, _sigterm_to_exit)
    request_ring = SharedMemoryColumnarBuffer.attach(
        request_ring_name, generation=generation
    )
    response_ring = SharedMemoryColumnarBuffer.attach(
        response_ring_name, generation=generation
    )
    server = PolicyServer(
        store=store_root if store_root is not None else False, arena=arena_spec
    )
    faults = FaultState()
    try:
        while True:
            if not connection.poll(WORKER_POLL_SECONDS):
                continue
            try:
                message = connection.recv()
            except EOFError:  # parent went away
                break
            if message is None or message[0] == "stop":
                break
            kind, seq = message[0], message[1]
            if kind == "serve":
                fault = faults.on_serve()
                if fault is not None and fault.kind == "kill":
                    os._exit(KILL_EXIT_CODE)
                if fault is not None and fault.kind in ("hang", "late"):
                    time.sleep(fault.sleep_seconds)
                try:
                    header = message[2]
                    request = PolicyRequestBatch.from_shm(request_ring, header)
                    response = server.serve_columnar(request)
                    del request  # release the ring views before the next batch
                    out = response.to_shm(response_ring)
                    if fault is not None and fault.kind == "stale_header":
                        out = dataclasses.replace(out, generation=generation - 1)
                    out.assert_zero_copy()
                    connection.send(("ok", shard_index, seq, out))
                except Exception as exc:  # noqa: BLE001 - reported to parent
                    connection.send(
                        ("error", shard_index, seq, f"{type(exc).__name__}: {exc}")
                    )
            elif kind == "register":
                try:
                    from repro.core.tree_policy import TreePolicy

                    _, _, policy_id, payload = message
                    server.register(policy_id, TreePolicy.from_dict(payload))
                    connection.send(("ok", shard_index, seq, None))
                except Exception as exc:  # noqa: BLE001 - reported to parent
                    connection.send(
                        ("error", shard_index, seq, f"{type(exc).__name__}: {exc}")
                    )
            elif kind == "inject":
                try:
                    faults.arm(Fault.from_wire(message[2]))
                    connection.send(("ok", shard_index, seq, None))
                except Exception as exc:  # noqa: BLE001 - reported to parent
                    connection.send(
                        ("error", shard_index, seq, f"{type(exc).__name__}: {exc}")
                    )
            elif kind == "ping":
                connection.send(
                    (
                        "pong",
                        shard_index,
                        seq,
                        {
                            "pid": os.getpid(),
                            "generation": generation,
                            "pending_faults": faults.pending,
                            "stats": server.stats.to_dict(),
                        },
                    )
                )
            else:
                connection.send(("error", shard_index, seq, f"unknown message {kind!r}"))
    except SystemExit:  # pragma: no cover - SIGTERM path
        pass
    finally:
        request_ring.close()
        response_ring.close()
        connection.close()


@dataclass
class ShardState:
    """Parent-side record of one live shard worker and its resources."""

    index: int
    process: BaseProcess
    connection: Connection
    request_ring: SharedMemoryColumnarBuffer
    response_ring: SharedMemoryColumnarBuffer
    generation: int
    sequence: int = 0
    restarts: int = 0
    last_heartbeat: float = field(default_factory=time.monotonic)
    started_at: float = field(default_factory=time.monotonic)
    #: Set once this record's resources are released, making a second
    #: ``_dispose`` (e.g. after a failed respawn left the record in place)
    #: a safe no-op instead of a double ring unlink.
    disposed: bool = False


@dataclass
class CollectResult:
    """The outcome of one reply-collection round across shards.

    ``replies`` holds successful payloads; ``failures`` holds *retryable*
    shard-level problems (death, timeout, unreachable); ``errors`` holds
    worker-reported exceptions (the worker is alive and the failure is
    deterministic, so retrying the same bytes would fail the same way).
    """

    replies: Dict[int, Any] = field(default_factory=dict)
    failures: Dict[int, str] = field(default_factory=dict)
    errors: Dict[int, str] = field(default_factory=dict)


class ShardSupervisor:
    """Owns, watches and restarts the shard worker fleet.

    One instance per :class:`~repro.serving.sharded.ShardedPolicyServer`
    (at ``num_shards > 1``).  All fleet state — processes, pipes, rings,
    generations, the registration journal — lives here behind one reentrant
    :attr:`lock`; the serving layer takes the lock for the duration of each
    batch, and the heartbeat monitor only sweeps when it can take the lock
    without waiting.

    Parameters
    ----------
    context:
        The ``multiprocessing`` context workers are spawned from.
    num_shards:
        Fleet size (fixed for the supervisor's lifetime; routing depends
        on it).
    store_root:
        Policy-store root workers re-open on (re)start, or ``None``.
    ring_capacity:
        Bytes per request/response ring.
    heartbeat_interval:
        Seconds between monitor sweeps; ``None`` disables the monitor (the
        serve path still heals on contact).
    heartbeat_timeout:
        Seconds an active ping may take before a worker counts as hung.
    arena_spec:
        Packed-arena path every worker mmaps on (re)start, or ``False`` for
        the JSON-store path.  Restart recovery reopens this mapping instead
        of replaying recompiles.
    """

    def __init__(
        self,
        context: BaseContext,
        num_shards: int,
        store_root: Optional[str],
        ring_capacity: int,
        heartbeat_interval: Optional[float] = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        arena_spec: Union[str, bool] = False,
    ):
        self.num_shards = int(num_shards)
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.lock = threading.RLock()
        self._context = context
        #: Indirection point so tests can inject spawn failures.
        self._process_factory: Callable[..., BaseProcess] = context.Process
        self._store_root = store_root
        self._arena_spec = arena_spec
        self._ring_capacity = int(ring_capacity)
        self._shards: Dict[int, ShardState] = {}
        self._journal: Dict[Tuple[int, str], Dict[str, Any]] = {}
        self._restarts_total = 0
        self._monitor: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._closed = False

    # ------------------------------------------------------------- lifecycle
    @property
    def started(self) -> bool:
        """Whether the fleet is currently running."""
        return bool(self._shards) and not self._closed

    @property
    def restarts_total(self) -> int:
        """How many worker restarts the supervisor has performed."""
        return self._restarts_total

    def start(self) -> None:
        """Spawn the whole fleet; on partial failure, tear down and re-raise.

        A failure spawning shard *k* disposes of shards ``0..k-1`` (and any
        rings shard *k* got as far as creating), so a failed start never
        leaks shared memory — :meth:`close` afterwards is a clean no-op.
        """
        with self.lock:
            if self._closed:
                raise ShardedServingError("Supervisor already closed")
            if self._shards:
                return
            try:
                for index in range(self.num_shards):
                    self._shards[index] = self._spawn(index, generation=0, restarts=0)
            except Exception:
                self.close()
                raise
        self._start_monitor()

    def close(self) -> None:
        """Stop the monitor, reap every worker, unlink every ring (idempotent).

        Live workers get a polite ``stop`` message and a join window; a
        worker that ignores it is escalated ``terminate`` → ``kill``, so a
        hung worker can never leak past ``close``.  The parent owns every
        segment, so shared memory is fully reclaimed here even when workers
        were SIGKILLed mid-flight.
        """
        self._stop.set()
        monitor = self._monitor
        if monitor is not None and monitor is not threading.current_thread():
            monitor.join(timeout=REAP_GRACE_SECONDS)
        self._monitor = None
        with self.lock:
            self._closed = True
            for state in self._shards.values():
                self._dispose(state, polite=True)
            self._shards.clear()

    # --------------------------------------------------------------- workers
    def state(self, index: int) -> ShardState:
        """The live state record for one shard (raises when not running)."""
        try:
            return self._shards[index]
        except KeyError:
            raise ShardedServingError(
                f"Shard {index} is not running (fleet not started or closed)"
            ) from None

    def states(self) -> List[ShardState]:
        """Every live shard state, ordered by shard index."""
        return [self._shards[index] for index in sorted(self._shards)]

    def ensure_alive(self, index: int) -> ShardState:
        """The shard's state, restarting its worker first if it died."""
        with self.lock:
            state = self.state(index)
            if not state.process.is_alive():
                return self.restart(
                    index, reason=f"worker exited with code {state.process.exitcode}"
                )
            return state

    def restart(self, index: int, reason: str = "") -> ShardState:
        """Replace one shard's worker, rings and generation; replay registers.

        The old process is reaped (``terminate`` → ``kill`` escalation —
        no polite join, it is presumed dead or hung), its rings are
        unlinked, and a replacement is spawned with fresh rings under
        ``generation + 1``.  Registered policies recorded in the journal are
        replayed into the new worker before it serves anything, so restart
        is invisible to callers beyond latency.
        """
        with self.lock:
            state = self.state(index)
            self._dispose(state, polite=False)
            replacement = self._spawn(
                index, generation=state.generation + 1, restarts=state.restarts + 1
            )
            self._shards[index] = replacement
            self._restarts_total += 1
            self._replay_registrations(replacement)
            return replacement

    def _spawn(self, index: int, generation: int, restarts: int) -> ShardState:
        """Create rings + pipe, fork one worker; leak-free on partial failure."""
        request_ring = SharedMemoryColumnarBuffer.create(
            self._ring_capacity, generation=generation
        )
        try:
            response_ring = SharedMemoryColumnarBuffer.create(
                self._ring_capacity, generation=generation
            )
        except Exception:
            request_ring.close()
            request_ring.unlink()
            raise
        try:
            parent_end, worker_end = self._context.Pipe(duplex=True)
            process = self._process_factory(
                target=shard_worker_main,
                args=(
                    index,
                    self._store_root,
                    self._arena_spec,
                    request_ring.name,
                    response_ring.name,
                    generation,
                    worker_end,
                ),
                daemon=True,
                name=f"repro-shard-{index}-g{generation}",
            )
            process.start()
            worker_end.close()  # the parent keeps only its end
        except Exception:
            request_ring.close()
            request_ring.unlink()
            response_ring.close()
            response_ring.unlink()
            raise
        return ShardState(
            index=index,
            process=process,
            connection=parent_end,
            request_ring=request_ring,
            response_ring=response_ring,
            generation=generation,
            restarts=restarts,
        )

    def _dispose(self, state: ShardState, polite: bool) -> None:
        """Reap one worker and release its pipe and rings (idempotent)."""
        if state.disposed:
            return
        state.disposed = True
        if polite and state.process.is_alive():
            try:
                state.connection.send(("stop",))
            except (BrokenPipeError, OSError):  # pragma: no cover - dead worker
                pass
        self._reap(state.process, polite=polite)
        try:
            state.connection.close()
        except OSError:  # pragma: no cover - already closed
            pass
        for ring in (state.request_ring, state.response_ring):
            ring.close()
            ring.unlink()

    @staticmethod
    def _reap(process: BaseProcess, polite: bool) -> None:
        """Join with escalation: join → ``terminate()`` → ``kill()``.

        ``polite`` grants an initial join window (the worker was asked to
        stop); an impolite reap — a restart of a dead or hung worker —
        goes straight to SIGTERM.  A worker that survives SIGTERM (stuck in
        uninterruptible state) is SIGKILLed; the final join cannot hang
        because SIGKILL is not maskable.
        """
        if polite:
            process.join(timeout=REAP_GRACE_SECONDS)
        if process.is_alive():
            process.terminate()
            process.join(timeout=REAP_GRACE_SECONDS)
        if process.is_alive():  # pragma: no cover - SIGTERM ignored
            process.kill()
            process.join(timeout=REAP_GRACE_SECONDS)

    # -------------------------------------------------------- wire protocol
    def send(self, index: int, kind: str, *payload: Any) -> int:
        """Send one sequence-stamped message to a shard; return its sequence.

        The liveness check and the broken-pipe translation live here so
        every control-plane caller reports a dead worker as
        :class:`ShardedServingError` rather than a raw ``BrokenPipeError``.
        """
        state = self.state(index)
        if not state.process.is_alive():
            raise ShardedServingError(
                f"Shard {index} worker (pid {state.process.pid}) is dead"
            )
        state.sequence += 1
        try:
            state.connection.send((kind, state.sequence, *payload))
        except (BrokenPipeError, OSError) as exc:
            raise ShardedServingError(
                f"Shard {index} worker (pid {state.process.pid}) is unreachable: {exc}"
            ) from exc
        return state.sequence

    def collect(self, expected: Dict[int, int], timeout: float) -> CollectResult:
        """Gather the reply to each ``{shard: sequence}`` within ``timeout``.

        Never raises on worker trouble: death and timeouts land in
        ``failures`` (retryable), worker-reported exceptions land in
        ``errors`` (deterministic), successes in ``replies`` — the caller
        owns retry policy.  Replies whose echoed sequence predates the
        expected one are stale — answers to a request the parent already
        timed out on — and are discarded rather than mistaken for the
        current reply.  Every reply, stale or not, refreshes the shard's
        heartbeat (the worker is demonstrably alive).
        """
        result = CollectResult()
        pending = {self.state(index).connection: index for index in expected}
        deadline = time.monotonic() + max(timeout, 0.0)
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                for index in pending.values():
                    alive = self._shards[index].process.is_alive()
                    result.failures[index] = (
                        f"no reply within {timeout:.2f}s "
                        f"({'alive but unresponsive' if alive else 'worker dead'})"
                    )
                break
            ready = connection_wait(list(pending), timeout=remaining)
            for connection in ready:
                index = pending.pop(connection)
                try:
                    # The bounded connection_wait above returned this
                    # connection as ready, so this recv cannot block.
                    kind, _, seq, payload = connection.recv()  # reprolint: disable=REP006 -- bounded by the connection_wait(timeout=...) that returned it ready
                except (EOFError, OSError):
                    result.failures[index] = "worker died mid-request"
                    continue
                self._shards[index].last_heartbeat = time.monotonic()
                if seq != expected[index]:
                    pending[connection] = index  # stale reply: keep waiting
                elif kind == "error":
                    result.errors[index] = str(payload)
                elif kind not in ("ok", "pong"):
                    result.errors[index] = f"unexpected {kind!r} reply"
                else:
                    result.replies[index] = payload
        return result

    def request(self, index: int, kind: str, *payload: Any, timeout: float) -> Any:
        """One round-trip to one shard; raises on any failure."""
        seq = self.send(index, kind, *payload)
        result = self.collect({index: seq}, timeout=timeout)
        if index in result.errors:
            raise ShardedServingError(f"shard {index}: {result.errors[index]}")
        if index in result.failures:
            raise ShardedServingError(f"shard {index}: {result.failures[index]}")
        return result.replies[index]

    # ----------------------------------------------------------- registration
    def record_registration(
        self, index: int, policy_id: str, payload: Dict[str, Any]
    ) -> None:
        """Journal one cross-process ``register`` for replay after restarts.

        Keyed by ``(shard, policy_id)`` so re-registering a policy replaces
        its journal entry rather than replaying every historical version.
        """
        self._journal[(index, policy_id)] = payload

    def registrations(self) -> List[Tuple[int, str, Dict[str, Any]]]:
        """Every journaled registration as ``(shard, policy_id, payload)``."""
        return [
            (index, policy_id, payload)
            for (index, policy_id), payload in self._journal.items()
        ]

    def _replay_registrations(self, state: ShardState) -> None:
        """Re-register this shard's journaled policies into a fresh worker."""
        for (index, policy_id), payload in self._journal.items():
            if index != state.index:
                continue
            self.request(
                state.index,
                "register",
                policy_id,
                payload,
                timeout=REPLAY_TIMEOUT_SECONDS,
            )

    # -------------------------------------------------------------- heartbeat
    def _start_monitor(self) -> None:
        """Launch the background heartbeat sweep (no-op when disabled)."""
        if self._monitor is not None or not self.heartbeat_interval:
            return
        self._stop.clear()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-shard-monitor", daemon=True
        )
        self._monitor.start()

    def _monitor_loop(self) -> None:
        """Sweep the fleet every interval until :meth:`close` stops us."""
        interval = float(self.heartbeat_interval or 0.0)
        while not self._stop.wait(interval):
            if not self.lock.acquire(blocking=False):
                continue  # serving traffic is active; it heals on contact
            try:
                self._sweep()
            except Exception:  # noqa: BLE001 - the monitor must never die
                pass
            finally:
                self.lock.release()

    def _sweep(self) -> None:
        """One heartbeat pass: restart the dead, ping the idle, reap the hung."""
        interval = float(self.heartbeat_interval or 0.0)
        now = time.monotonic()
        for index in sorted(self._shards):
            if self._closed or self._stop.is_set():
                return
            state = self._shards[index]
            if not state.process.is_alive():
                self.restart(index, reason="found dead by heartbeat monitor")
                continue
            if now - state.last_heartbeat < interval:
                continue
            try:
                self.request(index, "ping", timeout=self.heartbeat_timeout)
            except ShardedServingError:
                self.restart(index, reason="unresponsive to heartbeat ping")

    # -------------------------------------------------------------- reporting
    def describe(self) -> Dict[str, Any]:
        """Supervisor state for ``stats()`` and the CLI: restarts, generations.

        Per shard: pid, liveness, ring generation, restart count, seconds
        since the last observed heartbeat and uptime of the current worker.
        """
        now = time.monotonic()
        shards = {
            state.index: {
                "pid": state.process.pid,
                "alive": state.process.is_alive(),
                "generation": state.generation,
                "restarts": state.restarts,
                "last_heartbeat_age_seconds": now - state.last_heartbeat,
                "uptime_seconds": now - state.started_at,
            }
            for state in self.states()
        }
        return {
            "restarts": self._restarts_total,
            "heartbeat_interval": self.heartbeat_interval,
            "registered_policies": len(self._journal),
            "shards": shards,
        }
