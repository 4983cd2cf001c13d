"""The three workloads: the §4 sweep, FSM traversal, the serving mix.

Each workload runs on the paper suite's machines and is built from a
seed, which permutes its fixed op list (seed ``DEFAULT_SEED`` keeps
the suite order); inputs are generated before any clock starts.  It
has a timed ``setup`` that brings its system from cold to ready and
warm, and runs *rounds*: its seeded op list, never cut short by a time
budget.  ``run_round`` times every op and returns the raw per-op
latencies; ``check`` compares the round's outputs with the golden
digests (outside the timed region) and counts failed ops.  Only public
``repro`` APIs are called, always through module attributes, so a
:class:`~perfbench.tracer.Tracer` sees them.
"""

from __future__ import annotations

import asyncio
import gc
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import golden, host

DEFAULT_SEED = 0


@dataclass
class RoundResult:
    op_s: List[float] = field(default_factory=list)
    batch_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    # Untimed work between ops (wall and CPU), left out of the round.
    paused_s: float = 0.0
    paused_cpu_s: float = 0.0
    problems: List[str] = field(default_factory=list)
    outputs: object = None
    # Host-speed probes (host.calibrate_ms) taken between ops.
    probe_ms: List[float] = field(default_factory=list)
    last_probe: float = float("-inf")

    def between_ops(self, collect: bool = False) -> None:
        """Untimed work before an op: a garbage collection if
        ``collect``, and a host-speed probe once ``host.PROBE_EVERY_S``
        has passed since the last one."""
        paused, paused_cpu = time.perf_counter(), time.process_time()
        if collect:
            gc.collect()
        if paused - self.last_probe >= host.PROBE_EVERY_S:
            self.probe_ms.append(host.calibrate_ms())
            self.last_probe = time.perf_counter()
        self.paused_cpu_s += time.process_time() - paused_cpu
        self.paused_s += time.perf_counter() - paused


def _problem(result: RoundResult, text: str) -> None:
    if len(result.problems) < 20:
        result.problems.append(text)


def shuffled(seed: int, label: str, items: Sequence) -> list:
    """A seeded permutation of ``items``; the default seed keeps order."""
    items = list(items)
    if seed != DEFAULT_SEED:
        random.Random("%d/%s" % (seed, label)).shuffle(items)
    return items


def input_fingerprint(plan: dict) -> str:
    """Digest of a workload's seeded inputs."""
    import hashlib
    import json

    return hashlib.sha256(json.dumps(plan, sort_keys=True).encode()).hexdigest()[:16]


class PaperSweep:
    """``run_heuristics`` with its defaults over s344, tbk and cbp.32.4.

    Set-up collects the calls; one op is one call's full 12-heuristic
    row (per-cell gc, cover verification, cube lower bound), run in a
    seeded order.  Every recorded instance is protected in its manager,
    so the one-call harness invocations collect exactly what a
    whole-record sweep would.
    """

    name = "paper_sweep"
    trace_setup = True
    MACHINES = golden.SWEEP_MACHINES

    @classmethod
    def plan(cls, seed: int, table: Dict[str, dict]) -> dict:
        """The seeded op order: (machine, call ordinal) pairs."""
        return {"ops": shuffled(seed, cls.name, [
            (name, ordinal)
            for name in cls.MACHINES
            for ordinal in range(table[name]["fingerprint"]["calls"])
        ])}

    def __init__(self, seed: int, table: Dict[str, dict]):
        self.inputs = self.plan(seed, table)
        self.golden = table
        self.records: Dict[str, object] = {}

    def setup(self) -> None:
        import repro.experiments as experiments

        self.records = {
            name: experiments.collect_benchmark_calls(name) for name in self.MACHINES
        }
        for record in self.records.values():
            for call in record.calls:
                record.manager.protect(call.f)
                record.manager.protect(call.c)

    def discard_setup(self) -> None:
        self.records = {}

    def close(self) -> None:
        self.discard_setup()

    def managers(self) -> list:
        return [record.manager for record in self.records.values()]

    def pids(self) -> List[int]:
        return []

    def serve_state(self) -> None:
        return None

    def collected(self) -> Tuple[int, int, int]:
        records = self.records.values()
        return sum(len(r.calls) for r in records), sum(r.filtered_out for r in records), 0

    def run_round(self) -> RoundResult:
        import repro.experiments as experiments

        result = RoundResult()
        rows: Dict[Tuple[str, int], object] = {}
        for name, ordinal in self.inputs["ops"]:
            record = self.records[name]
            one = experiments.BenchmarkCalls(record.name, record.manager, [record.calls[ordinal]])
            result.between_ops()
            started = time.perf_counter()
            measured = experiments.run_heuristics([one])
            result.op_s.append(time.perf_counter() - started)
            rows[(name, ordinal)] = measured.results[0]
        # Every op is one 12-cell row: the in-process twin of a
        # serving batch.
        result.batch_s = result.op_s
        result.outputs = rows
        return result

    def check(self, result: RoundResult) -> None:
        rows = result.outputs
        result.attempted = len(rows)
        for record in self.records.values():
            fingerprint = golden.call_fingerprint(record)
            expected = self.golden[record.name]
            mine = [rows[(record.name, i)] for i in range(len(record.calls))]
            digest = golden.sweep_digest(mine)
            if fingerprint != expected["fingerprint"] or digest != expected["digest"]:
                _problem(result, "%s: sweep digest %s != golden %s" % (
                    record.name, digest, expected["digest"]))
                result.failed += len(mine)
                continue
            for row in mine:
                if row.failures:
                    result.failed += 1
                    _problem(result, "%s call %d: %s" % (record.name, row.iteration, row.failures))


class Traverse:
    """FSM self-equivalence collection over the 15 suite machines.

    One op is one machine, from a fresh ``Manager`` each time; a round
    is ``PASSES`` seeded permutations of the suite (105 ops).
    Set-up builds every machine from its generator and compiles its
    product machine once.  Each op starts from a collected heap, so its
    time does not depend on the garbage the ops before it left; the
    collections are not timed.
    """

    name = "traverse"
    trace_setup = True
    MACHINES: Optional[Tuple[str, ...]] = None  # the whole suite
    PASSES = 7

    @classmethod
    def plan(cls, seed: int, table: Dict[str, dict]) -> dict:
        """The seeded op order: each pass a permutation of the machines."""
        names = list(cls.MACHINES or golden.suite_names())
        return {"ops": [
            name
            for index in range(cls.PASSES)
            for name in shuffled(seed, "%s/%d" % (cls.name, index), names)
        ]}

    def __init__(self, seed: int, table: Dict[str, dict]):
        self.inputs = self.plan(seed, table)
        self.golden = table
        self.specs: Dict[str, object] = {}
        self.tracer = None
        self.iterations = 0
        self.calls = (0, 0)

    def setup(self) -> None:
        from repro.bdd import Manager
        from repro.circuits import benchmark_spec
        from repro.fsm import compile_product

        self.specs = {}
        for name in dict.fromkeys(self.inputs["ops"]):
            spec = benchmark_spec(name)
            compile_product(Manager(), spec, spec)
            self.specs[name] = spec

    def discard_setup(self) -> None:
        self.specs = {}

    def close(self) -> None:
        self.discard_setup()

    def managers(self) -> list:
        return []

    def pids(self) -> List[int]:
        return []

    def serve_state(self) -> None:
        return None

    def collected(self) -> Tuple[int, int, int]:
        return self.calls[0], self.calls[1], self.iterations

    def run_round(self) -> RoundResult:
        import repro.experiments as experiments

        result = RoundResult()
        fingerprints = []
        calls = filtered = iterations = 0
        for name in self.inputs["ops"]:
            result.between_ops(collect=True)
            started = time.perf_counter()
            record = experiments.collect_benchmark_calls(name, spec=self.specs[name])
            result.op_s.append(time.perf_counter() - started)
            fingerprints.append((name, golden.call_fingerprint(record)))
            calls += len(record.calls)
            filtered += record.filtered_out
            iterations += record.iterations
            if self.tracer is not None:
                self.tracer.retire(record.manager)
        self.calls = (calls, filtered)
        self.iterations = iterations
        # No batching on this path: each op is a batch of one.
        result.batch_s = result.op_s
        result.outputs = fingerprints
        return result

    def check(self, result: RoundResult) -> None:
        result.attempted = len(result.outputs)
        for name, fingerprint in result.outputs:
            expected = self.golden[name]["fingerprint"]
            if fingerprint != expected:
                result.failed += 1
                _problem(result, "%s: call stream %s != golden %s" % (name, fingerprint, expected))


def _prepare_serving(machines: Sequence[str], cells: Sequence[Tuple[int, str]]) -> tuple:
    """The wire-encoded calls of ``machines``, their trivial-call count,
    and the canonical wire bytes of each ``(instance, method)`` cover."""
    import repro.experiments as experiments
    from repro.bdd import deserialize_instance, serialize, serialize_instance
    from repro.core.registry import HEURISTICS

    payloads: List[bytes] = []
    filtered = 0
    for name in machines:
        record = experiments.collect_benchmark_calls(name)
        filtered += record.filtered_out
        payloads.extend(serialize_instance(record.manager, call.f, call.c) for call in record.calls)
    expected: Dict[Tuple[int, str], bytes] = {}
    current = None
    for instance, method in sorted(cells):
        if current != instance:
            current = instance
            manager, f, c = deserialize_instance(payloads[instance])
        cover = HEURISTICS[method](manager, f, c)
        expected[(instance, method)] = serialize(manager, (cover,))
    return payloads, filtered, expected


class ServeMix:
    """A closed loop through ``MinimizationGateway`` over a one-worker
    ``MinimizationPool``, one request outstanding.

    The traffic is the verification lanes' (``repro.verify.lanes``):
    every instance they check goes through the gateway lane as one
    single-cell ``submit`` per heuristic and through the batch lane as
    one 12-heuristic row, so there are 12 single-cell requests per
    batch and as many cells on each path.  A round sends every
    ``STRIDE``-th ``paper_sweep`` call both ways (24 instances: 288
    single cells and 24 batches), in a seeded order.  The instances are
    wire-encoded, and each reply's expected canonical bytes computed
    in-process, while the inputs are generated.  Set-up starts the pool
    and gateway and warms them until every heuristic has answered once.

    Seeds permute rather than draw: 264 seeded draws of (instance,
    heuristic) moved ``round_s`` and ``op_ms_p50`` by a fifth from seed
    to seed, because cell costs are heavy-tailed.  One request is
    outstanding, not two: with two, the parent and the worker both need
    a core, and on a shared 2-core host ``round_s`` doubled whenever a
    neighbour took one (wall 5.9 s against 3.6 s of CPU).
    """

    name = "serve_mix"
    # A traced set-up would fork workers that inherit the wrappers.
    trace_setup = False
    MACHINES = golden.SWEEP_MACHINES
    STRIDE = 12
    DEADLINE = 60.0

    @classmethod
    def plan(cls, seed: int, table: Dict[str, dict]) -> dict:
        """The seeded request order: (instance, method), with method
        ``None`` for a whole-row batch; instances number the calls of
        ``MACHINES`` in order."""
        from repro.core.registry import PAPER_HEURISTICS

        requests = []
        for instance in range(0, sum(table[name]["fingerprint"]["calls"] for name in cls.MACHINES),
                              cls.STRIDE):
            requests.extend((instance, method) for method in PAPER_HEURISTICS)
            requests.append((instance, None))
        return {"ops": shuffled(seed, cls.name, requests)}

    def __init__(self, seed: int, table: Dict[str, dict]):
        import concurrent.futures
        import multiprocessing

        from repro.core.registry import PAPER_HEURISTICS

        self.inputs = self.plan(seed, table)
        self.ops: List[Tuple[int, Optional[str]]] = self.inputs["ops"]
        self.methods = list(PAPER_HEURISTICS)
        cells = sorted({(instance, method) for instance, method in self.ops if method is not None})
        # Prepared in a child process: the pool's worker is forked from
        # this one and would otherwise inherit, and count in its
        # resident set, the managers the preparation leaves behind.
        context = multiprocessing.get_context("fork")
        with concurrent.futures.ProcessPoolExecutor(1, mp_context=context) as child:
            prepared = child.submit(_prepare_serving, self.MACHINES, cells).result()
        self.payloads, self.filtered, self.expected = prepared
        self.loop = asyncio.new_event_loop()
        self.gateway = None
        self.tracer = None

    async def _start(self) -> None:
        from repro.serve import MinimizationGateway, MinimizationPool

        pool = MinimizationPool(workers=1, deadline=self.DEADLINE)
        gateway = MinimizationGateway(pool, own_pool=True)
        await gateway.start()
        self.gateway = gateway
        # Warm until every heuristic has answered once, on the largest
        # instance so set-up is long enough to time steadily; whether
        # the answers are right is the rounds' checks' business.
        largest = max(self.payloads, key=len)
        for method in self.methods:
            await gateway.submit(largest, method)

    def setup(self) -> None:
        self.loop.run_until_complete(self._start())

    def discard_setup(self) -> None:
        if self.gateway is not None:
            self.loop.run_until_complete(self.gateway.close())
            self.gateway = None

    def close(self) -> None:
        self.discard_setup()
        self.loop.close()

    def managers(self) -> list:
        return []

    def pids(self) -> List[int]:
        if self.gateway is None:
            return []
        return [pid for pid in self.gateway.pool.worker_pids() if pid is not None]

    def collected(self) -> Tuple[int, int, int]:
        return len(self.payloads), self.filtered, 0

    def serve_state(self) -> Dict[str, object]:
        """Gateway and pool counters plus worker phase totals."""
        stats = self.gateway.statistics()
        phases = self.gateway.pool.phase_summary()
        return {
            "degraded": stats["degraded"],
            "shed": stats["shed_overload"] + stats["shed_expired"] + stats["shed_closed"],
            "worker_restarts": stats["pool"]["worker_restarts"],
            "phases": {name: summary["total"] for name, summary in phases.items()},
        }

    async def _round(self, result: RoundResult) -> list:
        from repro.serve import GatewayError

        gateway = self.gateway
        replies: list = []
        for instance, method in self.ops:
            payload = self.payloads[instance]
            result.between_ops()
            started = time.perf_counter()
            try:
                if method is None:
                    reply = await gateway.submit_batch(
                        [payload], [(0, cell) for cell in self.methods])
                else:
                    reply = await gateway.submit(payload, method)
            except GatewayError as error:
                reply = error
            elapsed = time.perf_counter() - started
            (result.batch_s if method is None else result.op_s).append(elapsed)
            replies.append((reply, started, elapsed))
        return replies

    def run_round(self) -> RoundResult:
        result = RoundResult()
        result.outputs = self.loop.run_until_complete(self._round(result))
        return result

    def check(self, result: RoundResult) -> None:
        from repro.bdd import deserialize, deserialize_instance, is_def2_cover, serialize

        result.attempted = len(self.ops)
        for index, (instance, method) in enumerate(self.ops):
            reply = result.outputs[index][0]
            cells = self.methods if method is None else [method]
            replies = reply if isinstance(reply, list) else [reply]
            wrong = []
            if isinstance(reply, Exception):
                wrong.append("shed: %r" % reply)
            for cell, cell_reply in zip(cells, replies if not wrong else []):
                if cell_reply.degraded:
                    wrong.append("%s degraded: %s" % (cell, cell_reply.reason))
                    continue
                manager, f, c = deserialize_instance(self.payloads[instance])
                _, roots = deserialize(cell_reply.payload, manager=manager)
                if not is_def2_cover(manager, f, c, roots[0]):
                    wrong.append("%s: not a cover" % cell)
                elif serialize(manager, (roots[0],)) != self.expected[(instance, cell)]:
                    wrong.append("%s: bytes differ from in-process" % cell)
            if wrong:
                result.failed += 1
                _problem(result, "request %d on instance %d: %s" % (index, instance, wrong))

    def request_times(self, result: RoundResult, tracer) -> Tuple[List[float], List[float]]:
        """Per-request queue wait and gateway self time (traced rounds).

        Self time is a single-cell request's latency minus its queue
        wait and minus the top-level spans (pool, wire decode, cover
        check) inside its window; with one request outstanding, every
        span in that window is the request's.
        """
        waits, selves = [], []
        for (instance, method), (reply, started, elapsed) in zip(self.ops, result.outputs):
            if isinstance(reply, Exception):
                continue
            first = reply[0] if isinstance(reply, list) else reply
            waits.append(first.queue_wait)
            if method is not None:
                spans = tracer.top_level_time(started, started + elapsed)
                selves.append(elapsed - first.queue_wait - spans)
        return waits, selves


WORKLOADS = {
    PaperSweep.name: PaperSweep,
    Traverse.name: Traverse,
    ServeMix.name: ServeMix,
}
