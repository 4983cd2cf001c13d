"""A process-isolated worker pool for minimization requests.

The guard/governor layer of :mod:`repro.robust` degrades *cooperatively*:
budgets are enforced through the manager's step hook, so a heuristic
stuck inside one enormous ``apply`` (or burning memory faster than the
hook fires) still owns the interpreter.  This pool closes that gap by
running every request in a **child process** under two OS-level fences:

* a **wall-clock watchdog** in the parent — a worker that has not
  answered by its deadline is ``SIGKILL``-ed (no cooperation required)
  and transparently replaced by a fresh worker;
* an optional **address-space cap** (``resource.setrlimit``) applied at
  worker start, so a memory hog dies with ``MemoryError`` (or an
  OOM kill) inside its own process instead of taking down the sweep.

Requests and results cross the process boundary in the durable wire
format of :mod:`repro.bdd.wire`; the child rebuilds the instance in a
**warm, resident manager** (:class:`_WarmHost` — persisting across
requests, collected between cells, compacted past a node watermark),
runs the registry heuristic, verifies the cover, and ships the result
back.  There is one worker protocol: every request is a batch envelope
with a shared-instance table (:func:`repro.bdd.wire.encode_batch`) —
one worker checkout per envelope, per-cell streamed outcomes, so
dispatch overhead is amortized across the sweep's many tiny cells — and
a single cell (:meth:`MinimizationPool.execute`) is a batch of one.
On *any* failure —
timeout, OOM, crash, budget trip, contract violation — the affected
cell (and only that cell) degrades to the identity cover
``g = f`` (always correct per Definition 2) with the reason recorded,
following the same reason-recording protocol as
:class:`repro.robust.guard.GuardedHeuristic` (``failures``,
``last_failure``, ``on_failure``).

Failures are classified for the circuit breaker / retry layer
(:mod:`repro.serve.breaker`), mirroring the guard's split:

* **transient** — deadline kills, memory kills, worker crashes, budget
  trips: a retry (with a bigger deadline) might succeed;
* **deterministic** — contract violations, invariant violations,
  unknown heuristics, malformed payloads: retrying cannot help.

Concurrency model
-----------------

Workers live on a checked-out/checked-in free list guarded by one
condition variable, so the pool is safe to drive from **multiple
threads at once** — the asyncio gateway's dispatcher threads
(:mod:`repro.serve.gateway`), the chaos harness and a sweep can share
one pool.  :meth:`MinimizationPool.execute` (one cell) and
:meth:`MinimizationPool.execute_batch` (one envelope) are the
thread-safe, wire-level primitives (bytes in, :class:`WireOutcome`
out; they never touch a caller manager), two thin faces of one
dispatch core; :meth:`run_batch` and :meth:`minimize` are built on top
of them and do all caller-manager decoding in the calling thread, so a
:class:`~repro.bdd.manager.Manager` is never shared across threads by
this module.

Custom heuristics must be resolvable *in the child*.  With the default
``fork`` start method, anything registered via
:func:`repro.core.registry.register_heuristic` before the pool starts
is inherited automatically; under ``spawn`` only importable registry
entries are visible.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.errors import (
    BudgetExceeded,
    ContractError,
    DeadlineExceeded,
    InvariantError,
)
from repro.bdd.manager import Manager
from repro.bdd.wire import (
    WireError,
    _target_manager,
    build_parsed,
    decode_batch,
    deserialize,
    encode_batch,
    parse_payload,
    serialize,
    serialize_instance,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.dist import (
    GLOBAL_PHASES,
    TRACE_DETAIL_EVERY,
    PhaseAccumulator,
    PhaseClock,
    TraceContext,
    TraceMerger,
    build_parent_group,
    request_trace_id,
    synthesize_worker_spans,
)

#: Default wall-clock deadline (seconds) per request.
DEFAULT_DEADLINE = 10.0

#: Extra seconds past the deadline before the watchdog SIGKILLs: gives
#: the child's cooperative deadline governor a chance to degrade
#: cleanly (cheap) before the OS-level kill (loses the warm worker).
DEFAULT_KILL_GRACE = 0.25

#: Failure classifications carried by :class:`ServeResult`.
TRANSIENT = "transient"
DETERMINISTIC = "deterministic"

#: Compaction watermark for warm worker managers: when the resident
#: manager's node table (live plus free-list slots) grows past this
#: many entries, the between-cell collection compacts — rebuilding
#: dense ids and bumping ``gc_generation`` — instead of just sweeping
#: dead nodes to the free list.
DEFAULT_NODE_WATERMARK = 1 << 16


@dataclass
class ServeResult:
    """Outcome of one isolated minimization request.

    ``cover`` is always a valid cover of the request's ``[f, c]`` in
    the *caller's* manager: the heuristic's result on success, the
    identity ``f`` on degradation.  ``reason`` is ``None`` exactly when
    the heuristic succeeded.
    """

    method: str
    cover: int
    reason: Optional[str] = None
    kind: str = TRANSIENT
    killed: bool = False
    short_circuited: bool = False
    runtime: float = 0.0
    attempts: int = 1
    #: The worker manager's per-request ``statistics()`` delta, shipped
    #: back across the process boundary (None when the worker never got
    #: far enough to have a manager — watchdog kills, crashes,
    #: undecodable requests).  Worker managers are *warm* — they persist
    #: across requests — so cumulative counters are differenced against
    #: a snapshot taken at cell start (:func:`repro.obs.metrics
    #: .diff_statistics`), while table-size readings (``live_nodes``,
    #: ``peak_nodes``) report the post-cell value.
    stats: Optional[Dict[str, int]] = None

    @property
    def ok(self) -> bool:
        """True iff the heuristic itself produced the cover."""
        return self.reason is None

    @property
    def degraded(self) -> bool:
        """True iff the request fell back to the identity cover."""
        return self.reason is not None

    @property
    def transient(self) -> bool:
        """True iff a retry (bigger deadline) could plausibly succeed."""
        return self.kind == TRANSIENT


@dataclass
class WireOutcome:
    """Wire-level outcome of one worker attempt.

    The thread-safe twin of :class:`ServeResult`: it carries the
    result as wire bytes instead of a caller-manager ref, so it can be
    produced on any thread without touching any manager.  ``payload``
    is the wire-encoded cover on success and ``None`` on failure — a
    failed request degrades at whatever layer holds the caller's
    ``f`` ref (the batch API here, or the gateway's fallback encoder).
    """

    status: str
    payload: Optional[bytes] = None
    reason: Optional[str] = None
    kind: str = TRANSIENT
    killed: bool = False
    runtime: float = 0.0
    stats: Optional[Dict[str, int]] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _apply_memory_limit(limit_bytes: Optional[int]) -> None:
    """Cap the worker's address space; silently a no-op off-POSIX."""
    if limit_bytes is None:
        return
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    soft = limit_bytes
    if hard != resource.RLIM_INFINITY:
        soft = min(soft, hard)
    try:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    except (ValueError, OSError):  # pragma: no cover - platform quirks
        pass


class _WarmHost:
    """The worker's resident manager, persisting across requests.

    Building a fresh :class:`~repro.bdd.manager.Manager` per request
    made the pooled sweep lose to serial — per-request interpreter
    allocation dominated the paper's tiny per-cell minimizations
    (ROADMAP item 1).  The warm host keeps one manager alive for the
    worker's lifetime: requests decode into it, covers encode out of
    it, and :meth:`settle` collects between cells so nothing leaks
    from one cell into the next.

    The resident manager is reused only when the incoming payload's
    variable universe is compatible (same name-per-level prefix — the
    rule :func:`repro.bdd.wire._target_manager` enforces); a mismatch
    swaps in a fresh manager instead of raising, because one worker
    serves arbitrary interleavings of universes.  After a failure that
    may have left the manager inconsistent (memory exhaustion, an
    invariant violation, an unclassified heuristic crash) the host is
    poisoned — the next :meth:`acquire` starts fresh.
    """

    __slots__ = ("watermark", "manager", "resets", "compactions")

    def __init__(self, watermark: int = DEFAULT_NODE_WATERMARK):
        self.watermark = watermark
        self.manager: Optional[Manager] = None
        self.resets = 0
        self.compactions = 0

    def acquire(self, names: Sequence[str]) -> Manager:
        """The resident manager, aligned to ``names`` — or a fresh one."""
        if self.manager is not None:
            try:
                return _target_manager(names, self.manager)
            except WireError:
                self.resets += 1
        # Imported lazily so the sanitizer's patched Manager class
        # (REPRO_SANITIZE=1) is honored even though this module bound
        # the unpatched name at import time.
        from repro.bdd.manager import Manager as manager_class

        self.manager = manager_class(var_names=list(names))
        return self.manager

    def settle(self, roots: Sequence[int]):
        """Collect between cells; compact past the node watermark.

        Everything not reachable from ``roots`` is swept to the free
        list; past the watermark the sweep compacts instead, so the
        table's dense-id space cannot grow without bound across a long
        batch.  Returns the :class:`~repro.bdd.manager.Remap` when the
        collection compacted (the caller must translate every ref it
        holds — the sanitizer's ``gc_generation`` tagging turns a
        missed translation into a typed error), else ``None``.
        """
        manager = self.manager
        if manager is None:
            return None
        if manager.num_nodes > self.watermark:
            self.compactions += 1
            return manager.gc(roots, compact=True)
        manager.gc(roots)
        return None

    def poison(self) -> None:
        """Drop the resident manager; the next cell starts fresh."""
        self.manager = None


def _cell_stats(
    stats_before: Optional[Dict[str, int]], manager: Manager
) -> Dict[str, int]:
    """Per-cell statistics delta against the cell-start snapshot."""
    after = manager.statistics()
    if stats_before is None:
        return after
    return obs_metrics.diff_statistics(stats_before, after)


class _CellAlarm:
    """Per-cell wall-clock deadline via ``SIGALRM``/``setitimer``.

    The governor's cooperative deadline costs a Python call on *every*
    node/ITE event — measured ~25% of worker compute on the sweep's
    tiny cells.  The alarm costs two syscalls per cell instead: arm an
    interval timer before compute, disarm after.  The trade is that
    the handler raises :class:`DeadlineExceeded` asynchronously, which
    can interrupt the warm manager mid-mutation — so the cell handler
    poisons the resident manager on an alarm trip, paying one rare
    re-decode for hook-free steady-state compute.

    Off-POSIX (or when the serving loop is not the process's main
    thread, where signal handlers cannot be installed) ``ensure()``
    reports False and the caller falls back to the governor's polled
    deadline.
    """

    __slots__ = ("_armed", "_ready")

    def __init__(self):
        self._armed = False
        self._ready: Optional[bool] = None

    def ensure(self) -> bool:
        """Install the handler once; False when alarms are unusable."""
        if self._ready is None:
            try:
                signal.setitimer  # noqa: B018 - AttributeError off-POSIX
                signal.signal(signal.SIGALRM, self._handle)
                self._ready = True
            except (AttributeError, ValueError, OSError):
                self._ready = False
        return self._ready

    def _handle(self, signum, frame) -> None:
        # A disarmed delivery (raced with setitimer(0)) must be
        # swallowed, or a stray alarm could abort the serve loop.
        if self._armed:
            self._armed = False
            raise DeadlineExceeded(
                "deadline exhausted: cell exceeded its wall-clock budget"
            )

    @contextmanager
    def limit(self, seconds: Optional[float]):
        if seconds is None or not self.ensure():
            yield
            return
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self._armed = False


#: Worker-process singleton; the handler is installed on first use.
_ALARM = _CellAlarm()


def _run_cell(
    manager: Manager,
    host: _WarmHost,
    f: int,
    c: int,
    method: str,
    request: dict,
    clock: PhaseClock,
    stats_before: Optional[Dict[str, int]],
    started: float,
    extra_roots: Sequence[int] = (),
    on_remap=None,
) -> dict:
    """Run one decoded cell on the warm manager; never raises.

    ``extra_roots`` keeps the batch's shared instance refs alive across
    the between-cell collection; when that collection compacts,
    ``on_remap`` lets the batch loop translate its cached refs.  Even a
    failed cell ships its counters home (the journals can then explain
    *why* it degraded, e.g. nodes created right up against the budget).
    """
    from repro.core.ispec import ISpec
    from repro.core.registry import HEURISTICS
    from repro.robust.governor import Budget, governed
    from repro.robust.guard import describe_error

    def failed(reason: str, kind: str) -> dict:
        return {
            "status": "failed",
            "reason": reason,
            "kind": kind,
            "runtime": time.perf_counter() - started,
            "stats": _cell_stats(stats_before, manager),
        }

    heuristic = HEURISTICS.get(method)
    if heuristic is None:
        return failed(
            "UnknownHeuristic: %r is not registered in this worker"
            % method,
            DETERMINISTIC,
        )
    # The wall-clock deadline is enforced by the interval-timer alarm
    # when available — the governor then only installs its per-event
    # hook when a node/step budget actually needs counting, keeping
    # unbudgeted compute hook-free.
    use_alarm = _ALARM.ensure()
    budget = Budget(
        max_nodes=request.get("node_budget"),
        max_steps=request.get("step_budget"),
        deadline=None if use_alarm else request.get("deadline"),
    )
    try:
        with clock.phase("worker.compute"):
            with _ALARM.limit(
                request.get("deadline") if use_alarm else None
            ):
                with governed(
                    manager, None if budget.unlimited else budget
                ):
                    cover = heuristic(manager, f, c)
                if not ISpec(manager, f, c).is_cover(cover):
                    return failed(
                        "ContractError: %s returned a non-cover" % method,
                        DETERMINISTIC,
                    )
        # Between-cell collection on the warm manager: the heuristic's
        # scratch nodes are dead weight once the cover is known, and
        # past the node watermark the sweep compacts.  The wire format
        # emits canonically, so a remapped ref serializes to the same
        # bytes the uncollected one would.
        with clock.phase("worker.gc"):
            remap = host.settle(tuple(extra_roots) + (cover,))
            if remap is not None:
                cover = remap(cover)
                if on_remap is not None:
                    on_remap(remap)
        with clock.phase("worker.encode"):
            payload = serialize(manager, (cover,))
    except DeadlineExceeded as error:
        # An alarm-raised deadline interrupts the manager at an
        # arbitrary bytecode — possibly mid-mutation — so the resident
        # manager cannot be trusted afterwards.
        host.poison()
        return failed(describe_error(error), TRANSIENT)
    except BudgetExceeded as error:
        return failed(describe_error(error), TRANSIENT)
    except RecursionError:
        host.poison()
        return failed(
            "RecursionError: interpreter recursion limit exceeded",
            TRANSIENT,
        )
    except MemoryError:
        host.poison()
        return failed(
            "MemoryError: worker memory cap exceeded", TRANSIENT
        )
    except InvariantError as error:
        host.poison()
        return failed(describe_error(error), DETERMINISTIC)
    except ContractError as error:
        return failed(describe_error(error), DETERMINISTIC)
    except Exception as error:  # noqa: BLE001 - the boundary must hold
        # A programming error cannot propagate across the process
        # boundary as an exception; it is reported fail-fast instead
        # (deterministic: retrying the same bug cannot help).
        host.poison()
        return failed(
            "WorkerError: %s" % describe_error(error), DETERMINISTIC
        )
    return {
        "status": "ok",
        "payload": payload,
        "runtime": time.perf_counter() - started,
        "stats": _cell_stats(stats_before, manager),
    }


def _serve_batch_cell(
    request: dict,
    clock: PhaseClock,
    host: _WarmHost,
    envelope,
    instances: Dict[int, Optional[List[int]]],
    reasons: Dict[int, str],
    instance_index: int,
    method: str,
    last_use: bool,
) -> dict:
    """Decode (or reuse) a cell's shared instance, then run the cell.

    ``instances`` caches each shared instance's decoded ``[f, c]`` refs
    for the batch — decode and manager-build cost is paid once per
    *instance*, not once per cell, which is the batched path's main
    encode/decode saving.  ``None`` entries are tombstones for
    instances that already failed to decode (every later cell on them
    fails with the recorded reason, without re-parsing).  On the
    instance's ``last_use`` its entry is dropped before the cell runs,
    so the between-cell collection roots only instances a later cell
    still needs — a single cell (a batch of one) keeps only its cover.
    """
    started = time.perf_counter()
    if host.manager is None:
        # A previous cell poisoned the resident manager: every cached
        # ref belongs to the dropped manager, so force lazy re-decode
        # (tombstones survive — an undecodable payload stays one).
        for key in [k for k, v in instances.items() if v is not None]:
            del instances[key]
    if instance_index in instances and instances[instance_index] is None:
        return {
            "status": "failed",
            "reason": reasons[instance_index],
            "kind": DETERMINISTIC,
            "runtime": time.perf_counter() - started,
        }
    cached = instances.get(instance_index)
    if cached is None:
        previous = host.manager
        try:
            with clock.phase("worker.decode"):
                parsed = parse_payload(envelope.instances[instance_index])
            with clock.phase("worker.manager"):
                manager = host.acquire(parsed.names)
                if manager is not previous:
                    # Universe switch mid-batch: cached refs belong to
                    # the replaced manager — drop them for re-decode.
                    for key in [
                        k for k, v in instances.items() if v is not None
                    ]:
                        del instances[key]
                stats_before = manager.statistics()
                _, roots = build_parsed(parsed, manager)
            if len(roots) != 2:
                raise WireError(
                    "instance payload must carry exactly 2 roots "
                    "[f, c], got %d" % len(roots)
                )
        except WireError as error:
            reasons[instance_index] = "WireError: %s" % error
            instances[instance_index] = None
            return {
                "status": "failed",
                "reason": reasons[instance_index],
                "kind": DETERMINISTIC,
                "runtime": time.perf_counter() - started,
            }
        cached = list(roots)
        instances[instance_index] = cached
    else:
        manager = host.manager
        stats_before = manager.statistics()
    f, c = cached
    if last_use:
        del instances[instance_index]
    live = [
        ref
        for entry in instances.values()
        if entry is not None
        for ref in entry
    ]

    def on_remap(remap) -> None:
        for entry in instances.values():
            if entry is not None:
                entry[0] = remap(entry[0])
                entry[1] = remap(entry[1])

    return _run_cell(
        manager,
        host,
        f,
        c,
        method,
        request,
        clock,
        stats_before,
        started,
        extra_roots=live,
        on_remap=on_remap,
    )


def _execute_batch(request: dict, conn, host: _WarmHost) -> bool:
    """Run one batch inside the worker, streaming per-cell replies.

    Every request is a batch envelope; a single cell is a batch of one.
    Sends one ``{"cell": i, ...}`` reply the moment each cell finishes
    — the parent resets its watchdog window per cell and keeps every
    streamed result even when a later cell hangs and gets this worker
    killed.  An undecodable envelope sends a single
    ``{"status": "batch_error"}`` reply instead.  The request's last
    reply carries its trailer: the accumulated phase durations, the
    warm-host counters and (when sampled for detail) the span bundle,
    so a single cell costs one reply message.  Returns ``False`` when
    the pipe died (the worker exits its serve loop).
    """
    started = time.perf_counter()
    context = request.get("trace")
    bundle_tracer = None
    batch_span = obs_trace._NULL_SPAN
    if context is not None and context.get("detail", True):
        # A fresh, request-scoped tracer: span timestamps are relative
        # to *this* request's start, which is exactly the shape the
        # merger's logical-clock rebasing expects.  Only requests the
        # pool sampled for detail record (and ship) real spans; phase
        # spans for the rest are synthesized pool-side from the
        # trailer's ``phases`` durations.
        bundle_tracer = obs_trace.activate(obs_trace.Tracer())
        batch_span = bundle_tracer.span(
            "worker.request",
            seq=context["seq"],
            trace_id=context["trace_id"],
            parent=context["parent_span"],
        )
    clock = PhaseClock(tracer=bundle_tracer)
    pipe_ok = True
    final: dict = {}
    try:
        with batch_span:
            try:
                with clock.phase("worker.decode"):
                    envelope = decode_batch(request.get("batch"))
            except WireError as error:
                final = {
                    "status": "batch_error",
                    "reason": "WireError: %s" % error,
                    "kind": DETERMINISTIC,
                }
            else:
                instances: Dict[int, Optional[List[int]]] = {}
                reasons: Dict[int, str] = {}
                last_use = {
                    index: position
                    for position, (index, _) in enumerate(envelope.cells)
                }
                last = len(envelope.cells) - 1
                for position, (instance_index, method) in enumerate(
                    envelope.cells
                ):
                    reply = _serve_batch_cell(
                        request,
                        clock,
                        host,
                        envelope,
                        instances,
                        reasons,
                        instance_index,
                        method,
                        last_use[instance_index] == position,
                    )
                    reply["cell"] = position
                    if position == last:
                        final = reply
                        break
                    try:
                        conn.send(reply)
                    except (BrokenPipeError, OSError):
                        pipe_ok = False
                        break
    finally:
        if bundle_tracer is not None:
            obs_trace.deactivate()
    if not pipe_ok:
        return False
    phases = dict(clock.durations)
    phases["worker.request"] = time.perf_counter() - started
    final["phases"] = phases
    final["warm"] = {
        "resets": host.resets,
        "compactions": host.compactions,
    }
    if bundle_tracer is not None:
        final["spans"] = bundle_tracer.events
    try:
        conn.send(final)
    except (BrokenPipeError, OSError):
        return False
    return True


def _worker_main(conn, memory_limit: Optional[int]) -> None:
    """Worker process entry: serve batches and pings until the sentinel.

    The protocol has three messages: ``None`` (shut down), a
    ``{"ping": token}`` health probe, and a ``{"batch": envelope}``
    request — a single cell travels as a batch of one.
    """
    _apply_memory_limit(memory_limit)
    # Under ``fork`` the child inherits the parent's active tracer.
    # Recording into that copy is pure waste — the events can never
    # reach the parent's file — and it would pollute the per-request
    # bundles, so worker tracing is strictly request-scoped.
    obs_trace.deactivate()
    host = _WarmHost()
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            break
        if request is None:
            break
        if "ping" in request:
            # Health probe from the supervisor: echo the token back.
            # Kept trivially cheap so a probe never competes with work.
            try:
                conn.send({"pong": request["ping"]})
            except (BrokenPipeError, OSError):  # pragma: no cover
                break
            continue
        watermark = request.get("watermark")
        if watermark is not None:
            host.watermark = watermark
        if not _execute_batch(request, conn, host):
            break
    conn.close()


class _Worker:
    """One child process plus its duplex pipe.

    ``target`` overrides the process entry point — used by tests to
    spawn pathological workers (e.g. one that ignores the shutdown
    sentinel) against the same lifecycle machinery.
    """

    def __init__(self, context, memory_limit: Optional[int], target=None):
        #: Requests dispatched to this worker so far (drives recycling).
        self.served = 0
        self.conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_worker_main if target is None else target,
            args=(child_conn, memory_limit),
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def kill(self) -> None:
        """SIGKILL the worker — no cooperation, no cleanup, no mercy."""
        try:
            self.process.kill()
            self.process.join()
        finally:
            self.conn.close()

    def stop(self) -> None:
        """Graceful shutdown: sentinel, short join, then kill.

        A worker that ignores the sentinel (wedged interpreter, blocked
        signal handling, a child that stopped reading its pipe) is
        SIGKILLed after a 1 second join; the parent end of the pipe is
        closed on every path.
        """
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        try:
            self.process.join(timeout=1.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join()
        finally:
            self.conn.close()


class MinimizationPool:
    """A fixed-size pool of process-isolated minimization workers.

    Parameters
    ----------
    workers:
        Number of child processes kept warm.
    deadline:
        Default wall-clock seconds per request.  The child runs under a
        cooperative deadline governor at this value; the parent's
        watchdog SIGKILLs ``kill_grace`` seconds later if the child has
        not answered.
    memory_limit:
        Optional address-space cap in bytes applied at worker start.
    node_budget / step_budget:
        Optional per-request governor bounds enforced inside the child.
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` where
        available (inherits the parent's registry, including
        test-registered heuristics) and ``spawn`` elsewhere.
    verify:
        Re-check returned covers in the parent (two BDD operations) —
        the child already verifies, but the parent does not have to
        trust a worker that may have corrupted itself.  Applies to the
        manager-level APIs (:meth:`minimize` / :meth:`run_batch`); the
        wire-level :meth:`execute` leaves verification to its caller.
    on_failure:
        Optional ``(method, reason)`` callback invoked on every
        degradation — the same protocol as
        :class:`repro.robust.guard.GuardedHeuristic`.  May be invoked
        from a dispatcher thread when the pool is driven concurrently.
    recycle_after:
        Optional request count after which an idle worker is gracefully
        stopped and replaced by a fresh one.  Warm worker managers are
        collected between cells (and compacted past the node
        watermark); recycling additionally returns any
        interpreter-level growth (allocator arenas, fragmentation) to
        the OS, which matters for long sweeps under ``memory_limit``.
    node_watermark:
        Compaction watermark for the warm per-worker manager: when its
        node table grows past this many entries, the between-cell
        collection compacts instead of just sweeping.  ``None`` keeps
        the worker default (:data:`DEFAULT_NODE_WATERMARK`).
    """

    def __init__(
        self,
        workers: int = 2,
        deadline: float = DEFAULT_DEADLINE,
        memory_limit: Optional[int] = None,
        node_budget: Optional[int] = None,
        step_budget: Optional[int] = None,
        start_method: Optional[str] = None,
        kill_grace: float = DEFAULT_KILL_GRACE,
        verify: bool = True,
        on_failure: Optional[Callable[[str, str], None]] = None,
        recycle_after: Optional[int] = None,
        node_watermark: Optional[int] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1, got %d" % workers)
        if deadline <= 0:
            raise ValueError("deadline must be positive")
        if kill_grace < 0:
            raise ValueError("kill_grace must be >= 0")
        if recycle_after is not None and recycle_after < 1:
            raise ValueError("recycle_after must be positive or None")
        if node_watermark is not None and node_watermark < 1:
            raise ValueError("node_watermark must be positive or None")
        if start_method is None:
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else "spawn"
        self._context = multiprocessing.get_context(start_method)
        self.start_method = start_method
        self.num_workers = workers
        self.deadline = deadline
        self.kill_grace = kill_grace
        self.memory_limit = memory_limit
        self.node_budget = node_budget
        self.step_budget = step_budget
        self.verify = verify
        self.on_failure = on_failure
        self.recycle_after = recycle_after
        self.node_watermark = node_watermark
        # Reason-recording protocol (mirrors GuardedHeuristic).
        # ``requests`` counts *cells* — a batch of N increments it by N;
        # ``batches`` counts execute_batch dispatches only.
        self.requests = 0
        self.batches = 0
        self.failures = 0
        self.last_failure: Optional[str] = None
        # Pool health counters.
        self.kills = 0
        self.crashes = 0
        self.worker_restarts = 0
        self.recycles = 0
        self.probe_failures = 0
        # Warm-host counters from batch trailers, keyed by worker pid.
        # Each trailer carries the host's *cumulative* counts, so the
        # latest trailer per pid is the truth for that worker.
        self._warm: Dict[int, Dict[str, int]] = {}
        self._closed = False
        self._probe_token = 0
        # Distributed-trace plumbing: the merger buffers per-request
        # span groups keyed by admission sequence; the accumulator
        # keeps exact phase latency samples for percentile reporting.
        self._merger = TraceMerger()
        self._phases = PhaseAccumulator()
        # Worker free list: every member is either idle or busy; both
        # collections (and every counter above) are guarded by _cv.
        self._cv = threading.Condition()
        self._idle: deque = deque(
            _Worker(self._context, memory_limit) for _ in range(workers)
        )
        self._busy: List[_Worker] = []
        # Lazily created dispatcher threads for multi-worker batches.
        self._executor: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut every worker down; idempotent.

        New checkouts are refused immediately; requests already running
        on other threads are allowed to finish (each is bounded by its
        deadline plus the kill grace), and their workers are stopped as
        they check back in.
        """
        with self._cv:
            if self._closed:
                return
            self._closed = True
            idle = list(self._idle)
            self._idle.clear()
            self._cv.notify_all()
        for worker in idle:
            worker.stop()
        with self._cv:
            while self._busy:
                self._cv.wait(timeout=0.1)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self.flush_trace()

    def __enter__(self) -> "MinimizationPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def worker_pids(self) -> List[Optional[int]]:
        """PIDs of the live workers (useful to observe recycling)."""
        with self._cv:
            members = list(self._idle) + list(self._busy)
        return [worker.pid for worker in members]

    def flush_trace(self) -> int:
        """Emit buffered request span groups into the active tracer.

        Groups are flushed in admission-sequence order (deterministic
        regardless of worker completion order) with per-process track
        metadata, so the resulting file is one merged Chrome-trace
        timeline.  Called automatically by :meth:`close`; returns the
        number of events emitted.
        """
        return self._merger.flush(obs_trace.active())

    def phase_summary(self) -> Dict[str, Dict[str, float]]:
        """Exact per-phase latency percentiles for this pool's
        requests (``{phase: {count,total,p50,p95,p99,max}}``)."""
        return self._phases.summary()

    def statistics(self) -> Dict[str, int]:
        """Health counters: requests, failures, kills, restarts.

        ``warm_resets``/``warm_compactions`` sum the warm-host counters
        reported by each worker's most recent batch trailer — how often
        a resident manager was replaced (universe mismatch) and how
        often the between-cell collection compacted past the node
        watermark.
        """
        with self._cv:
            return {
                "workers": len(self._idle) + len(self._busy),
                "requests": self.requests,
                "batches": self.batches,
                "failures": self.failures,
                "kills": self.kills,
                "crashes": self.crashes,
                "worker_restarts": self.worker_restarts,
                "recycles": self.recycles,
                "probe_failures": self.probe_failures,
                "warm_resets": sum(
                    warm.get("resets", 0)
                    for warm in self._warm.values()
                ),
                "warm_compactions": sum(
                    warm.get("compactions", 0)
                    for warm in self._warm.values()
                ),
            }

    # ------------------------------------------------------------------
    # Worker free list
    # ------------------------------------------------------------------
    def _checkout(self, block: bool = True) -> Optional[_Worker]:
        """Claim an idle worker; ``block=False`` returns None instead
        of waiting (the gateway's hedge path: a hedge only helps when
        spare capacity exists)."""
        with self._cv:
            while True:
                if self._closed:
                    raise RuntimeError("pool is closed")
                if self._idle:
                    worker = self._idle.popleft()
                    self._busy.append(worker)
                    return worker
                if not block:
                    return None
                self._cv.wait()

    def _checkin(self, worker: _Worker, fresh: Optional[_Worker] = None) -> None:
        """Return ``worker`` (or its replacement ``fresh``) to the free
        list.  The caller kills/stops a replaced ``worker`` itself —
        always outside the lock."""
        stop_me: Optional[_Worker] = None
        with self._cv:
            self._busy.remove(worker)
            member = worker if fresh is None else fresh
            if self._closed:
                stop_me = member
            elif (
                fresh is None
                and self.recycle_after is not None
                and worker.served >= self.recycle_after
            ):
                self.recycles += 1
                mreg = obs_metrics.active()
                if mreg is not None:
                    mreg.inc("serve.worker_recycles")
                stop_me = worker
                self._idle.append(_Worker(self._context, self.memory_limit))
            else:
                self._idle.append(member)
            self._cv.notify_all()
        if stop_me is not None:
            stop_me.stop()

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def minimize(
        self,
        manager: Manager,
        f: int,
        c: int,
        method: str = "osm_bt",
        deadline: Optional[float] = None,
    ) -> ServeResult:
        """Run one heuristic on ``[f, c]`` in a worker; never raises.

        Returns a :class:`ServeResult` whose ``cover`` is a ref in
        ``manager`` — the heuristic's verified result, or ``f`` with a
        recorded reason on any failure.
        """
        return self.run_batch(
            manager, [(method, f, c)], deadline=deadline
        )[0]

    def run_batch(
        self,
        manager: Manager,
        requests: Sequence[Tuple[str, int, int]],
        deadline: Optional[float] = None,
    ) -> List[ServeResult]:
        """Run ``(method, f, c)`` requests across the worker pool.

        Cells are packed into batch envelopes — each distinct
        ``(f, c)`` instance encoded once into a shared-instance table —
        and sharded contiguously across up to ``workers`` single-checkout
        dispatches (:meth:`execute_batch`); a lone request goes through
        :meth:`execute`, as a batch of one.  Each cell is independently
        watchdogged and degrades alone — a killed or failed cell never
        poisons the rest of its batch — and results come back
        index-aligned with the input.  All caller-manager work (wire
        encoding, decoding, re-verification) happens on the calling
        thread; only the wire-level middle runs on dispatcher threads.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        per_request = self.deadline if deadline is None else deadline
        if per_request <= 0:
            raise ValueError("deadline must be positive")
        if not requests:
            return []
        if len(requests) == 1:
            method, f, c = requests[0]
            outcome = self.execute(
                serialize_instance(manager, f, c), method, per_request
            )
            return [self._to_result(manager, method, f, c, outcome)]
        # The sweep runs every heuristic over the same instance, so
        # the shared table cuts encode bytes by the heuristic count.
        instance_ids: Dict[Tuple[int, int], int] = {}
        instances: List[bytes] = []
        cells: List[Tuple[int, str]] = []
        for method, f, c in requests:
            key = (f, c)
            index = instance_ids.get(key)
            if index is None:
                index = len(instances)
                instance_ids[key] = index
                instances.append(serialize_instance(manager, f, c))
            cells.append((index, method))

        def dispatch(shard: List[Tuple[int, str]]) -> List[WireOutcome]:
            # Re-index so each envelope carries only the instance
            # payloads its own cells reference.
            local_ids: Dict[int, int] = {}
            local_instances: List[bytes] = []
            local_cells: List[Tuple[int, str]] = []
            for index, method in shard:
                local = local_ids.get(index)
                if local is None:
                    local = len(local_instances)
                    local_ids[index] = local
                    local_instances.append(instances[index])
                local_cells.append((local, method))
            envelope = encode_batch(local_instances, local_cells)
            return self.execute_batch(
                envelope,
                [method for _, method in local_cells],
                deadline=per_request,
            )

        num_shards = min(self.num_workers, len(cells))
        shards: List[List[Tuple[int, str]]] = []
        base = 0
        size, extra = divmod(len(cells), num_shards)
        for position in range(num_shards):
            count = size + (1 if position < extra else 0)
            shards.append(cells[base:base + count])
            base += count
        if num_shards == 1:
            outcome_lists = [dispatch(shards[0])]
        else:
            executor = self._dispatchers()
            futures = [
                executor.submit(dispatch, shard) for shard in shards
            ]
            outcome_lists = [future.result() for future in futures]
        outcomes: List[WireOutcome] = []
        for outcome_list in outcome_lists:
            outcomes.extend(outcome_list)
        return [
            self._to_result(manager, method, f, c, outcome)
            for (method, f, c), outcome in zip(requests, outcomes)
        ]

    def execute(
        self,
        payload: bytes,
        method: str,
        deadline: Optional[float] = None,
        block: bool = True,
    ) -> Optional[WireOutcome]:
        """Run one wire-encoded ``[f, c]`` request on a worker.

        The thread-safe single-cell primitive.  The payload travels as
        a one-cell batch envelope through the same dispatch core as
        :meth:`execute_batch` — one worker protocol, in which a single
        cell is a batch of one.  Blocks until a worker is free (or
        returns ``None`` immediately with ``block=False``), watchdogs
        the worker, and returns a :class:`WireOutcome` — never raises
        on a request, only on caller errors (closed pool, non-positive
        deadline).  Wire-level failures are recorded against
        ``failures`` / ``last_failure`` and reported through
        ``on_failure`` here; parent-side decode and verification belong
        to the caller.  A call adds one to ``requests`` and nothing to
        ``batches``, and its root trace span is named by ``method``.
        """
        try:
            envelope = encode_batch([payload], [(0, method)])
        except WireError as error:
            return self._wire_failure(
                method, "WireError: %s" % error, DETERMINISTIC, False
            )
        outcomes = self._dispatch(envelope, [method], deadline, block, False)
        return None if outcomes is None else outcomes[0]

    def execute_batch(
        self,
        envelope: bytes,
        methods: Sequence[str],
        deadline: Optional[float] = None,
        block: bool = True,
    ) -> Optional[List[WireOutcome]]:
        """Run one batch envelope on a single worker checkout.

        The wire-level batch primitive: ships an
        :func:`repro.bdd.wire.encode_batch` envelope and returns
        :class:`WireOutcome` objects index-aligned with ``methods``
        (which must name the envelope's cells in order; it is what
        failure recording and the breaker callback see).  Returns
        ``None`` iff ``block=False`` and no worker is idle.  A call adds
        one to ``batches`` and ``len(methods)`` to ``requests``; its root
        trace span is ``batch[N]``.  Failure semantics are those of the
        shared dispatch core (:meth:`_dispatch`); parent-side decode and
        verification belong to the caller, as with :meth:`execute`.
        """
        return self._dispatch(envelope, methods, deadline, block, True)

    def _dispatch(
        self,
        envelope: bytes,
        methods: Sequence[str],
        deadline: Optional[float],
        block: bool,
        batch: bool,
    ) -> Optional[List[WireOutcome]]:
        """The dispatch core behind :meth:`execute` and :meth:`execute_batch`.

        Reads the worker's streamed per-cell replies, resetting the
        watchdog window after every reply, so ``deadline`` bounds each
        *cell*, not the whole envelope.  One cell's failure never
        poisons the rest: a guard trip or contract violation degrades
        that cell alone; a watchdog kill or worker crash keeps every
        already-streamed result, degrades the in-flight cell
        (``killed`` set on a kill), and degrades the not-yet-run tail
        as transient ``BatchAborted`` failures.  A worker found dead on
        send is replaced and the envelope retried on the fresh one.
        ``batch`` selects the counters and trace label of
        :meth:`execute_batch` over those of :meth:`execute`.
        """
        num_cells = len(methods)
        if num_cells == 0:
            return []
        per_cell = self.deadline if deadline is None else deadline
        if per_cell <= 0:
            raise ValueError("deadline must be positive")
        tracer = obs_trace.active()
        t_entry = time.perf_counter()
        worker = self._checkout(block=block)
        if worker is None:
            return None
        t_checkout = time.perf_counter()
        with self._cv:
            self.requests += num_cells
            if batch:
                self.batches += 1
        mreg = obs_metrics.active()
        if batch and mreg is not None:
            mreg.inc("serve.batches")
            mreg.inc("serve.batch_cells", num_cells)
        request = {
            "batch": envelope,
            "deadline": per_cell,
            "node_budget": self.node_budget,
            "step_budget": self.step_budget,
            "watermark": self.node_watermark,
        }
        label = "batch[%d]" % num_cells if batch else methods[0]
        context: Optional[TraceContext] = None
        if tracer is not None:
            seq = self._merger.next_seq()
            self._merger.register_process(tracer._pid, "pool")
            context = TraceContext(
                trace_id=request_trace_id(seq),
                seq=seq,
                parent_span="pool.dispatch",
                detail=seq % TRACE_DETAIL_EVERY == 0,
            )
        started = time.monotonic()
        while True:
            worker.served += 1
            t_send = time.perf_counter()
            if context is not None:
                # The logical-clock offset: the parent-timeline µs at
                # which this envelope hits the pipe.  The worker's span
                # bundle is recorded relative to its own receipt and
                # rebased here at merge time, so no cross-process
                # clock agreement is assumed.  Refreshed on the
                # crash-retry path — the retry is a new send.
                context.sent_at_us = tracer.offset_us(t_send)
                request["trace"] = context.to_wire()
            try:
                worker.conn.send(request)
            except (BrokenPipeError, OSError):
                # The worker died between requests; replace it and
                # retry on the fresh one (nothing was streamed yet, so
                # the retry is loss-free).
                worker = self._restart(
                    worker, "crashes", "serve.worker_crashes", busy=True
                )
                continue
            break
        outcomes: List[Optional[WireOutcome]] = [None] * num_cells
        received = 0
        trailer: Optional[dict] = None
        status = "ok"
        kill_at = started + per_cell + self.kill_grace
        while trailer is None:
            try:
                ready = worker.conn.poll(
                    max(0.0, kill_at - time.monotonic())
                )
            except (BrokenPipeError, OSError):  # pragma: no cover
                ready = False
            try:
                message = worker.conn.recv() if ready else None
            except (EOFError, OSError):
                message = None
            if message is None:
                # Overdue (the in-flight cell) or dead (OOM kill,
                # segfault, explicit exit): SIGKILL and replace the
                # worker, keep every streamed result and degrade the
                # rest.  Both are transient — a fresh worker may well
                # succeed.
                if ready:
                    status = "crashed"
                    reason = (
                        "WorkerCrash: worker died mid-request (exit "
                        "code %s)" % worker.process.exitcode
                    )
                    runtime = time.monotonic() - started
                    self._restart(worker, "crashes", "serve.worker_crashes")
                else:
                    status = "killed"
                    reason = (
                        "DeadlineExceeded: worker exceeded the %.3fs "
                        "per-cell wall-clock deadline and was killed "
                        "(SIGKILL)" % per_cell
                    )
                    runtime = per_cell
                    self._restart(worker, "kills", "serve.watchdog_kills")
                if received < num_cells:
                    outcomes[received] = self._wire_failure(
                        methods[received],
                        reason,
                        TRANSIENT,
                        killed=not ready,
                        runtime=runtime,
                    )
                for position in range(received + 1, num_cells):
                    outcomes[position] = self._wire_failure(
                        methods[position],
                        "BatchAborted: worker %s before this cell ran"
                        % status,
                        TRANSIENT,
                        killed=False,
                    )
                break
            msg_status = message.get("status")
            if msg_status == "batch_error":
                # The envelope itself was undecodable: every cell
                # fails deterministically; the worker stays healthy.
                for position in range(received, num_cells):
                    outcomes[position] = self._wire_failure(
                        methods[position],
                        message.get(
                            "reason", "WireError: undecodable batch"
                        ),
                        message.get("kind", DETERMINISTIC),
                        killed=False,
                    )
                status = "degraded"
            else:
                position = message["cell"]
                runtime = message.get("runtime", 0.0)
                if mreg is not None:
                    mreg.observe("serve.request_latency", runtime)
                if msg_status == "ok":
                    outcomes[position] = WireOutcome(
                        status="ok",
                        payload=message["payload"],
                        runtime=runtime,
                        stats=message.get("stats"),
                    )
                else:
                    outcomes[position] = self._wire_failure(
                        methods[position],
                        message["reason"],
                        message["kind"],
                        killed=False,
                        runtime=runtime,
                        stats=message.get("stats"),
                    )
                received += 1
            if "phases" in message:
                # The request's last reply carries its trailer.
                trailer = message
                warm = message["warm"]
                if worker.pid is not None:
                    with self._cv:
                        self._warm[worker.pid] = warm
                self._checkin(worker)
                break
            kill_at = time.monotonic() + per_cell + self.kill_grace
        failed_cells = sum(
            1
            for outcome in outcomes
            if outcome is not None and not outcome.ok
        )
        if status == "ok" and failed_cells:
            status = "degraded"
        if mreg is not None and 0 < failed_cells < num_cells:
            mreg.inc("serve.batch_partial_failures")
        self._finish_request(
            context,
            label,
            status,
            t_entry,
            t_checkout,
            t_send,
            reply=trailer,
            worker_pid=worker.pid,
        )
        return [
            outcome
            if outcome is not None
            else self._wire_failure(
                methods[position],
                "BatchAborted: no reply for this cell",
                TRANSIENT,
                killed=False,
            )
            for position, outcome in enumerate(outcomes)
        ]

    def _restart(
        self, worker: _Worker, counter: str, metric: str, busy: bool = False
    ) -> _Worker:
        """SIGKILL ``worker`` and put a fresh one in its place.

        ``counter`` names the health counter the replacement is charged
        to (``kills``, ``crashes`` or ``probe_failures``) and ``metric``
        its registry twin.  The fresh worker goes back on the free list,
        or — with ``busy`` — stays checked out to the caller, who
        retries on it.
        """
        fresh = _Worker(self._context, self.memory_limit)
        with self._cv:
            setattr(self, counter, getattr(self, counter) + 1)
            self.worker_restarts += 1
            if busy:
                self._busy[self._busy.index(worker)] = fresh
        mreg = obs_metrics.active()
        if mreg is not None:
            mreg.inc(metric)
            mreg.inc("serve.worker_replacements")
        if not busy:
            self._checkin(worker, fresh=fresh)
        worker.kill()
        return fresh

    def probe(self, timeout: float = 1.0) -> Dict[str, int]:
        """Health-check every currently idle worker with a ping.

        A worker that does not echo the probe token within ``timeout``
        seconds is killed and replaced.  Busy workers are skipped —
        they are already covered by their request's watchdog.  Returns
        ``{"probed": n, "healthy": n, "replaced": n}``.
        """
        grabbed: List[_Worker] = []
        while True:
            try:
                worker = self._checkout(block=False)
            except RuntimeError:
                break
            if worker is None:
                break
            grabbed.append(worker)
        probed = healthy = replaced = 0
        for worker in grabbed:
            probed += 1
            with self._cv:
                self._probe_token += 1
                token = self._probe_token
            alive = False
            try:
                worker.conn.send({"ping": token})
                if worker.conn.poll(timeout):
                    reply = worker.conn.recv()
                    alive = (
                        isinstance(reply, dict)
                        and reply.get("pong") == token
                    )
            except (BrokenPipeError, EOFError, OSError):
                alive = False
            if alive:
                healthy += 1
                self._checkin(worker)
            else:
                replaced += 1
                self._restart(
                    worker, "probe_failures", "serve.probe_failures"
                )
        return {"probed": probed, "healthy": healthy, "replaced": replaced}

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _dispatchers(self) -> ThreadPoolExecutor:
        with self._cv:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.num_workers,
                    thread_name_prefix="repro-pool",
                )
            return self._executor

    def _finish_request(
        self,
        context: Optional[TraceContext],
        method: str,
        status: str,
        t_entry: float,
        t_checkout: float,
        t_send: float,
        reply: Optional[dict] = None,
        worker_pid: Optional[int] = None,
    ) -> None:
        """Phase accounting and span-group finalization for one request.

        Runs on the dispatching thread for **every** exit path —
        success, degraded, watchdog-killed, crashed — so a failed
        request still closes its root span (tagged with ``status``)
        instead of leaking a partial trace.  Phase durations are
        observed unconditionally; span groups only when tracing.
        Requests sampled for detail ship a real worker span bundle;
        for the rest the worker track is synthesized from the reply's
        phase durations, so the merged timeline stays complete either
        way.
        """
        t_done = time.perf_counter()
        # The *ledger* entry named ``pool.dispatch`` is pool-side
        # dispatch overhead: the send->reply round trip minus the wall
        # time the worker reports for itself (``worker.request``) —
        # i.e. pickling, pipe transport and scheduling.  When the
        # worker never reported (watchdog kill, crash), the whole
        # round trip is attributed to dispatch.  Ledger phases are
        # therefore non-overlapping — ``pool.queue + pool.dispatch +
        # worker.request`` sums to the request wall — unlike the trace
        # *span* of the same name, which keeps interval semantics on
        # the merged timeline.
        dispatch_wall = t_done - t_send
        phases: Dict[str, float] = {
            "pool.queue": t_checkout - t_entry,
            "pool.dispatch": dispatch_wall,
        }
        worker_phases = (reply or {}).get("phases")
        if worker_phases:
            phases.update(worker_phases)
            phases["pool.dispatch"] = max(
                0.0,
                dispatch_wall - worker_phases.get("worker.request", 0.0),
            )
        self._phases.merge(phases)
        GLOBAL_PHASES.merge(phases)
        mreg = obs_metrics.active()
        if mreg is not None:
            for name, seconds in phases.items():
                mreg.observe("phase." + name, seconds)
        if context is None:
            return
        tracer = obs_trace.active()
        if tracer is None:  # pragma: no cover - tracer raced off
            return
        parent_events = build_parent_group(
            tracer,
            context,
            method,
            status,
            t_entry,
            t_checkout,
            t_send,
            t_done,
        )
        if worker_pid is not None:
            self._merger.register_process(
                worker_pid, "worker-%d" % worker_pid
            )
        bundle = (reply or {}).get("spans")
        if bundle is None and worker_phases:
            # Synthesized events are emitted directly in merged
            # coordinates, so they ride along as parent-timeline
            # events instead of paying the bundle rebase.
            parent_events = parent_events + synthesize_worker_spans(
                worker_phases, worker_pid, context
            )
            bundle = None
        self._merger.add_group(
            context.seq,
            parent_events,
            context=context,
            bundle=bundle,
        )

    def _wire_failure(
        self,
        method: str,
        reason: str,
        kind: str,
        killed: bool,
        runtime: float = 0.0,
        stats: Optional[Dict[str, int]] = None,
    ) -> WireOutcome:
        self._record_failure(method, reason)
        return WireOutcome(
            status="failed",
            reason=reason,
            kind=kind,
            killed=killed,
            runtime=runtime,
            stats=stats,
        )

    def _record_failure(self, method: str, reason: str) -> None:
        with self._cv:
            self.failures += 1
            self.last_failure = reason
        if self.on_failure is not None:
            self.on_failure(method, reason)

    def _to_result(
        self,
        manager: Manager,
        method: str,
        fallback: int,
        care: int,
        outcome: WireOutcome,
    ) -> ServeResult:
        """Decode a wire outcome into the caller's manager (caller
        thread only); re-verify when ``verify`` is set."""
        if not outcome.ok:
            return ServeResult(
                method=method,
                cover=fallback,
                reason=outcome.reason,
                kind=outcome.kind,
                killed=outcome.killed,
                runtime=outcome.runtime,
                stats=outcome.stats,
            )
        try:
            _, roots = deserialize(outcome.payload, manager=manager)
            cover = roots[0]
        except (WireError, IndexError) as error:
            reason = "WireError: undecodable result payload: %s" % error
            self._record_failure(method, reason)
            return ServeResult(
                method=method,
                cover=fallback,
                reason=reason,
                kind=DETERMINISTIC,
                runtime=outcome.runtime,
                stats=outcome.stats,
            )
        if self.verify and not self._covers(manager, fallback, care, cover):
            reason = (
                "ContractError: worker returned a non-cover for %s" % method
            )
            self._record_failure(method, reason)
            return ServeResult(
                method=method,
                cover=fallback,
                reason=reason,
                kind=DETERMINISTIC,
                runtime=outcome.runtime,
                stats=outcome.stats,
            )
        return ServeResult(
            method=method,
            cover=cover,
            runtime=outcome.runtime,
            stats=outcome.stats,
        )

    def decode_outcome(
        self,
        manager: Manager,
        method: str,
        fallback: int,
        care: int,
        outcome: WireOutcome,
    ) -> ServeResult:
        """Decode one :class:`WireOutcome` into ``manager``.

        The public half of the wire/decode split for callers that drive
        :meth:`execute` / :meth:`execute_batch` themselves (e.g. the
        pipelined experiment harness): dispatch can happen on any
        thread, but decode and re-verification mutate the caller's
        manager and must run on the thread that owns it.  Failed
        outcomes map to a ``ServeResult`` carrying ``fallback`` as the
        cover, exactly like :meth:`run_batch`.
        """
        return self._to_result(manager, method, fallback, care, outcome)

    def _covers(self, manager, f: int, c: int, cover: int) -> bool:
        from repro.bdd.cover import is_def2_cover

        return is_def2_cover(manager, f, c, cover)
