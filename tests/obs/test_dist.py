"""Tests for cross-process distributed tracing and phase accounting."""

from __future__ import annotations

import asyncio
import json
import multiprocessing

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.dist import (
    SERVE_COUNTER_KEYS,
    TRACE_DETAIL_EVERY,
    WORKER_DEPTH_SHIFT,
    WORKER_PHASES,
    PhaseAccumulator,
    PhaseClock,
    RequestSpanTracker,
    TraceContext,
    TraceMerger,
    build_parent_group,
    collapsed_stacks,
    ensure_serve_counters,
    events_json,
    load_trace,
    phase_breakdown,
    render_phase_table,
    request_trace_id,
    synthesize_worker_spans,
)
from repro.obs.trace import Tracer, validate_events

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pooled tracing tests require the fork start method",
)


class TestTraceContext:
    def test_wire_round_trip(self):
        context = TraceContext(
            "req-000007", 7, "pool.dispatch", sent_at_us=123.456,
            detail=False,
        )
        restored = TraceContext.from_wire(context.to_wire())
        assert restored.trace_id == "req-000007"
        assert restored.seq == 7
        assert restored.parent_span == "pool.dispatch"
        assert restored.sent_at_us == 123.456
        assert restored.detail is False

    def test_detail_defaults_true_for_old_envelopes(self):
        # Envelopes from before the sampling flag existed must decode
        # as fully detailed, not silently sampled out.
        restored = TraceContext.from_wire(
            {"trace_id": "req-000001", "seq": 1, "parent_span": "p"}
        )
        assert restored.detail is True
        assert restored.sent_at_us == 0.0

    def test_trace_id_is_deterministic(self):
        assert request_trace_id(42) == "req-000042"
        assert request_trace_id(42) == request_trace_id(42)


class TestPhaseClock:
    def test_accumulates_durations_without_tracer(self):
        clock = PhaseClock()
        with clock.phase("worker.decode"):
            pass
        with clock.phase("worker.decode"):
            pass
        assert clock.durations["worker.decode"] >= 0
        assert set(clock.durations) == {"worker.decode"}

    def test_records_spans_on_explicit_tracer(self):
        # The clock takes its tracer explicitly: workers record phase
        # spans on the request-private bundle tracer even when the
        # module-global tracer is inactive.
        assert obs_trace.active() is None
        tracer = Tracer()
        clock = PhaseClock(tracer=tracer)
        with clock.phase("worker.compute", seq=3):
            pass
        assert [e["name"] for e in tracer.events] == ["worker.compute"]
        assert tracer.events[0]["args"]["seq"] == 3
        assert clock.durations["worker.compute"] >= 0


class TestPhaseAccumulator:
    def test_nearest_rank_percentiles_are_exact(self):
        acc = PhaseAccumulator()
        for value in range(100, 0, -1):  # 1..100, unsorted on purpose
            acc.observe("phase", float(value))
        summary = acc.summary()["phase"]
        assert summary["count"] == 100
        assert summary["p50"] == 50.0
        assert summary["p95"] == 95.0
        assert summary["p99"] == 99.0
        assert summary["max"] == 100.0

    def test_merge_and_reset(self):
        acc = PhaseAccumulator()
        acc.merge({"a": 1.0, "b": 2.0})
        assert set(acc.summary()) == {"a", "b"}
        acc.reset()
        assert acc.summary() == {}


class TestEnsureServeCounters:
    def test_zero_fills_complete_key_set(self):
        registry = obs_metrics.MetricsRegistry()
        ensure_serve_counters(registry)
        counters = registry.snapshot()["counters"]
        assert set(SERVE_COUNTER_KEYS) <= set(counters)
        assert all(counters[key] == 0 for key in SERVE_COUNTER_KEYS)

    def test_does_not_clobber_recorded_counts(self):
        registry = obs_metrics.MetricsRegistry()
        registry.inc("gateway.hedges", 5)
        ensure_serve_counters(registry)
        assert registry.counter("gateway.hedges") == 5


def _bundle(seq, pid, compute_us):
    """A fake worker span bundle on the worker's private timeline."""
    return [
        {
            "name": "worker.request",
            "ph": "X",
            "ts": 0.0,
            "dur": compute_us + 20.0,
            "pid": pid,
            "tid": obs_trace.TRACE_TID,
            "cat": "repro",
            "args": {"depth": 0, "seq": seq},
        },
        {
            "name": "worker.compute",
            "ph": "X",
            "ts": 10.0,
            "dur": compute_us,
            "pid": pid,
            "tid": obs_trace.TRACE_TID,
            "cat": "repro",
            "args": {"depth": 1, "seq": seq},
        },
    ]


def _parent_group(seq, start_us):
    return [
        {
            "name": "pool.request",
            "ph": "X",
            "ts": start_us,
            "dur": 500.0,
            "pid": 1,
            "tid": obs_trace.TRACE_TID,
            "cat": "repro",
            "args": {"depth": 0, "seq": seq, "trace_id": request_trace_id(seq)},
        }
    ]


class TestTraceMerger:
    def test_out_of_order_completion_is_byte_identical(self):
        """Satellite: completion order must not leak into the merge."""

        def build(arrival_order):
            merger = TraceMerger()
            merger.register_process(1, "pool")
            groups = {}
            for seq in (0, 1, 2):
                context = TraceContext(
                    request_trace_id(seq),
                    seq,
                    "pool.dispatch",
                    sent_at_us=100.0 * seq,
                )
                groups[seq] = (
                    _parent_group(seq, 100.0 * seq),
                    context,
                    _bundle(seq, pid=200 + seq, compute_us=50.0),
                )
            for seq in arrival_order:
                parent, context, bundle = groups[seq]
                merger.add_group(seq, parent, context=context, bundle=bundle)
            return events_json(merger.merged_events())

        assert build([0, 1, 2]) == build([2, 0, 1]) == build([1, 2, 0])

    def test_bundle_rebased_onto_parent_timeline(self):
        merger = TraceMerger()
        context = TraceContext(
            "req-000004", 4, "pool.dispatch", sent_at_us=1000.0
        )
        merger.add_group(
            4,
            _parent_group(4, 1000.0),
            context=context,
            bundle=_bundle(4, pid=777, compute_us=50.0),
        )
        events = merger.merged_events()
        by_name = {e["name"]: e for e in events if e.get("ph") == "X"}
        worker = by_name["worker.request"]
        assert worker["ts"] == 1000.0  # 0.0 + sent_at_us
        assert worker["args"]["depth"] == WORKER_DEPTH_SHIFT
        assert worker["args"]["trace_id"] == "req-000004"
        compute = by_name["worker.compute"]
        assert compute["ts"] == 1010.0
        assert compute["args"]["depth"] == WORKER_DEPTH_SHIFT + 1
        # The worker's pid got its own named Perfetto track.
        tracks = [
            e for e in events
            if e.get("ph") == "M" and e["args"]["name"] == "worker-777"
        ]
        assert len(tracks) == 1

    def test_flush_emits_into_tracer_and_clears(self):
        merger = TraceMerger()
        merger.add_group(0, _parent_group(0, 0.0))
        assert merger.pending() == 1
        tracer = Tracer()
        assert merger.flush(tracer) == 1
        assert merger.pending() == 0
        assert tracer.events[0]["name"] == "pool.request"
        # A second flush has nothing left.
        assert merger.flush(tracer) == 0

    def test_flush_without_tracer_discards(self):
        merger = TraceMerger()
        merger.add_group(0, _parent_group(0, 0.0))
        assert merger.flush(None) == 0
        assert merger.pending() == 0


class TestSynthesizeWorkerSpans:
    PHASES = {
        "worker.request": 0.001,
        "worker.decode": 0.0002,
        "worker.compute": 0.0006,
        "worker.encode": 0.0001,
    }

    def test_shape_and_flags(self):
        context = TraceContext(
            "req-000003", 3, "pool.dispatch", sent_at_us=500.0,
            detail=False,
        )
        events = synthesize_worker_spans(self.PHASES, 555, context)
        assert events[0]["name"] == "worker.request"
        assert events[0]["ts"] == 500.0
        assert events[0]["dur"] == 1000.0
        assert events[0]["args"]["parent"] == "pool.dispatch"
        names = [e["name"] for e in events[1:]]
        assert names == ["worker.decode", "worker.compute", "worker.encode"]
        for event in events:
            assert event["args"]["synthesized"] is True
            assert event["args"]["seq"] == 3
            assert event["pid"] == 555

    def test_children_never_escape_the_request(self):
        # Phase durations that (through rounding) exceed the request
        # wall must be clamped inside it.
        phases = {"worker.request": 0.001}
        phases.update({name: 0.0004 for name in WORKER_PHASES})
        context = TraceContext("req-000000", 0, "pool.dispatch")
        events = synthesize_worker_spans(phases, 1, context)
        total = events[0]["dur"]
        for child in events[1:]:
            assert child["ts"] + child["dur"] <= events[0]["ts"] + total

    def test_nests_under_a_real_parent_group(self):
        tracer = Tracer()
        context = TraceContext(
            "req-000000", 0, "pool.dispatch", sent_at_us=0.0
        )
        parent = build_parent_group(
            tracer, context, "osm_bt", "ok",
            t_entry=0.0, t_checkout=0.1, t_send=0.1, t_done=10.0,
        )
        # Rebase synthesized spans inside the dispatch window.
        context.sent_at_us = parent[0]["ts"] + 200.0
        events = parent + synthesize_worker_spans(
            {"worker.request": 0.0001}, 99, context
        )
        validate_events(events)


class TestRequestSpanTracker:
    def test_shed_closes_root_span_with_reason(self):
        tracer = obs_trace.activate()
        try:
            tracker = RequestSpanTracker()
            handle = tracker.open(seq=0, method="osm_bt")
            assert tracker.open_count == 1
            assert tracker.close(
                handle, status="shed", shed_reason="overload"
            )
        finally:
            obs_trace.deactivate()
        assert tracker.open_count == 0
        assert tracker.closed == 1
        event = tracer.events[0]
        assert event["name"] == "gateway.request"
        assert event["args"]["shed_reason"] == "overload"
        assert event["args"]["status"] == "shed"
        assert event["tid"] == obs_trace.TRACE_TID + 1

    def test_close_is_idempotent(self):
        tracer = obs_trace.activate()
        try:
            tracker = RequestSpanTracker()
            handle = tracker.open(seq=1)
            assert tracker.close(handle, status="ok")
            assert not tracker.close(handle, status="ok")
        finally:
            obs_trace.deactivate()
        assert tracker.closed == 1
        assert len(tracer.events) == 1

    def test_works_without_a_tracer(self):
        assert obs_trace.active() is None
        tracker = RequestSpanTracker()
        handle = tracker.open(seq=2)
        assert tracker.close(handle, status="shed", shed_reason="overload")
        assert tracker.open_count == 0


def _merged_fixture():
    """A two-request merged trace with exact, hand-checkable numbers."""
    events = []
    for seq, base in ((0, 0.0), (1, 2000.0)):
        trace_id = request_trace_id(seq)
        args = {"seq": seq, "trace_id": trace_id}
        events.extend(
            [
                {
                    "name": "pool.request", "ph": "X", "ts": base,
                    "dur": 1000.0, "pid": 1, "tid": 1, "cat": "repro",
                    "args": dict(args, depth=0),
                },
                {
                    "name": "pool.queue", "ph": "X", "ts": base,
                    "dur": 100.0, "pid": 1, "tid": 1, "cat": "repro",
                    "args": dict(args, depth=1),
                },
                {
                    "name": "pool.dispatch", "ph": "X", "ts": base + 100.0,
                    "dur": 880.0, "pid": 1, "tid": 1, "cat": "repro",
                    "args": dict(args, depth=1),
                },
                {
                    "name": "worker.request", "ph": "X", "ts": base + 150.0,
                    "dur": 700.0, "pid": 2, "tid": 1, "cat": "repro",
                    "args": dict(args, depth=2),
                },
                {
                    "name": "worker.compute", "ph": "X", "ts": base + 200.0,
                    "dur": 600.0, "pid": 2, "tid": 1, "cat": "repro",
                    "args": dict(args, depth=3),
                },
            ]
        )
    return events


class TestPhaseBreakdown:
    def test_rows_sum_exactly_to_wall(self):
        breakdown = phase_breakdown(_merged_fixture())
        assert breakdown["requests"] == 2
        assert breakdown["wall_us"] == 2000.0
        for row in breakdown["per_request"]:
            assert sum(row["phases"].values()) == pytest.approx(
                row["wall_us"], rel=1e-9
            )
        phases = breakdown["phases"]
        # Residuals carry the uninstrumented remainder explicitly.
        assert phases["pool.queue"]["us"] == 200.0
        assert phases["ipc"]["us"] == 360.0          # dispatch - worker wall
        assert phases["worker.compute"]["us"] == 1200.0
        assert phases["worker.other"]["us"] == 200.0  # worker - compute
        assert phases["pool.other"]["us"] == 40.0     # wall - queue - dispatch
        assert sum(e["share"] for e in phases.values()) == pytest.approx(1.0)

    def test_render_table_and_collapsed_stacks(self):
        events = _merged_fixture()
        table = render_phase_table(phase_breakdown(events))
        assert "worker.compute" in table
        assert table.strip().endswith("100.0%")
        stacks = collapsed_stacks(events)
        by_stack = dict(
            (line.rsplit(" ", 1)[0], int(line.rsplit(" ", 1)[1]))
            for line in stacks
        )
        key = "pool.request;pool.dispatch;worker.request;worker.compute"
        assert by_stack[key] == 1200

    def test_load_trace_rejects_non_array(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "an array"}')
        with pytest.raises(ValueError):
            load_trace(str(path))


class TestPerfReportCLI:
    def test_report_renders_and_writes_collapsed(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "merged.json"
        trace_path.write_text(json.dumps(_merged_fixture()))
        collapsed = tmp_path / "stacks.txt"
        assert main(
            ["perf-report", str(trace_path), "--collapsed", str(collapsed)]
        ) == 0
        out = capsys.readouterr().out
        assert "2 request(s)" in out
        assert collapsed.read_text().strip()

    def test_unreadable_trace_exits_2(self, tmp_path):
        from repro.cli import main

        assert main(["perf-report", str(tmp_path / "missing.json")]) == 2

    def test_trace_without_pool_spans_exits_1(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "empty.json"
        path.write_text("[]")
        assert main(["perf-report", str(path)]) == 1


def _instance():
    from repro.bdd.manager import Manager

    manager = Manager(["a", "b", "c", "d"])
    a, b, c, d = (manager.var(level) for level in range(4))
    f = manager.or_(manager.and_(a, b), manager.and_(c, d))
    care = manager.or_(a, b)
    return manager, f, care


@needs_fork
class TestPooledEndToEnd:
    def test_merged_trace_spans_the_process_boundary(self, tmp_path):
        from repro.obs.dist import GLOBAL_PHASES
        from repro.serve.pool import MinimizationPool

        GLOBAL_PHASES.reset()
        path = tmp_path / "merged.json"
        manager, f, c = _instance()
        # Enough requests to exercise both the always-detailed seq 0
        # and the synthesized (sampled-out) majority.
        batch = [("osm_bt", f, c)] * (TRACE_DETAIL_EVERY + 3)
        with obs_trace.tracing(str(path)):
            with MinimizationPool(workers=2) as pool:
                # One minimize per cell: one dispatch (and one trace
                # seq) per cell — the per-request trace shape this
                # test pins.
                replies = [
                    pool.minimize(manager, f, c, method)
                    for method, f, c in batch
                ]
        assert all(reply.ok for reply in replies)

        events = load_trace(str(path))
        validate_events(events)

        # One Perfetto track per process: the pool and both workers.
        tracks = {
            e["pid"] for e in events
            if e.get("ph") == "M" and e.get("name") == "process_name"
        }
        assert len(tracks) >= 3

        spans = [e for e in events if e.get("ph") == "X"]
        by_seq = {}
        for event in spans:
            seq = event["args"].get("seq")
            if seq is not None:
                by_seq.setdefault(seq, {})[event["name"]] = event
        assert len(by_seq) == len(batch)

        pool_pids = {e["pid"] for e in spans if e["name"] == "pool.request"}
        for seq, named in by_seq.items():
            request = named["pool.request"]
            worker = named["worker.request"]
            # Cross-process parenting: the worker span lives on another
            # process's track but sits inside this request's window.
            assert worker["pid"] not in pool_pids
            assert worker["args"]["parent"] == "pool.dispatch"
            assert worker["ts"] >= request["ts"] - 0.01
            assert (
                worker["ts"] + worker["dur"]
                <= request["ts"] + request["dur"] + 0.01
            )

        # Detail sampling: seq 0 ships the real bundle, the rest are
        # synthesized from phase durations.
        assert "synthesized" not in by_seq[0]["worker.request"]["args"]
        assert by_seq[1]["worker.request"]["args"]["synthesized"] is True

        # Acceptance: per-request phase rows sum to the request wall.
        breakdown = phase_breakdown(events)
        assert breakdown["requests"] == len(batch)
        for row in breakdown["per_request"]:
            assert sum(row["phases"].values()) == pytest.approx(
                row["wall_us"], rel=0.05
            )

        # The always-on accumulator saw every request's phases.
        summary = GLOBAL_PHASES.summary()
        assert summary["worker.compute"]["count"] == len(batch)
        assert summary["pool.dispatch"]["count"] == len(batch)

    def test_single_cell_execute_keeps_single_cell_semantics(
        self, tmp_path
    ):
        # A single cell travels as a one-cell batch envelope, but must
        # not leak batch semantics: one request, no batch counters,
        # and a root span named by its method rather than batch[1].
        from repro.bdd.wire import serialize_instance
        from repro.serve.pool import MinimizationPool

        path = tmp_path / "single.json"
        manager, f, c = _instance()
        payload = serialize_instance(manager, f, c)
        with obs_metrics.collecting() as registry:
            with obs_trace.tracing(str(path)):
                with MinimizationPool(workers=1) as pool:
                    outcome = pool.execute(payload, "osm_bt")
                    stats = pool.statistics()
        assert outcome.ok
        assert stats["requests"] == 1
        assert stats["batches"] == 0
        assert registry.counter("serve.batches") == 0
        assert registry.counter("serve.batch_cells") == 0
        roots = [
            e for e in load_trace(str(path))
            if e.get("ph") == "X" and e["name"] == "pool.request"
        ]
        assert [root["args"]["method"] for root in roots] == ["osm_bt"]

    def test_batched_trace_groups_cells_per_batch(self, tmp_path):
        from repro.obs.dist import GLOBAL_PHASES
        from repro.serve.pool import MinimizationPool

        GLOBAL_PHASES.reset()
        path = tmp_path / "batched.json"
        manager, f, c = _instance()
        cells = [("osm_bt", f, c)] * 12
        with obs_trace.tracing(str(path)):
            with MinimizationPool(workers=2) as pool:
                replies = pool.run_batch(manager, cells)
        assert all(reply.ok for reply in replies)

        events = load_trace(str(path))
        validate_events(events)
        spans = [e for e in events if e.get("ph") == "X"]
        by_seq = {}
        for event in spans:
            seq = event["args"].get("seq")
            if seq is not None:
                by_seq.setdefault(seq, {}).setdefault(
                    event["name"], []
                ).append(event)
        # 12 cells across 2 workers -> 2 batch dispatches, not 12.
        assert len(by_seq) == 2
        for named in by_seq.values():
            request = named["pool.request"][0]
            assert request["args"]["method"] == "batch[6]"
            worker = named["worker.request"][0]
            assert worker["args"]["parent"] == "pool.dispatch"
            assert worker["ts"] >= request["ts"] - 0.01
            assert (
                worker["ts"] + worker["dur"]
                <= request["ts"] + request["dur"] + 0.01
            )
        # The detail-sampled batch (seq 0) records one compute span
        # per cell inside its single worker.request span.
        assert len(by_seq[0]["worker.compute"]) == 6
        # The ledger accumulates one entry per *batch*; the old
        # ``pool.ipc`` residual is gone — ``pool.dispatch`` itself now
        # carries the pool-side overhead (round trip minus the
        # worker-reported wall), making the ledger non-overlapping.
        summary = GLOBAL_PHASES.summary()
        assert summary["worker.compute"]["count"] == 2
        assert summary["pool.dispatch"]["count"] == 2
        assert "pool.ipc" not in summary
        request_wall = summary["worker.request"]["total"]
        non_overlapping = (
            summary["pool.queue"]["total"]
            + summary["pool.dispatch"]["total"]
            + request_wall
        )
        assert summary["pool.dispatch"]["total"] >= 0.0
        assert non_overlapping > request_wall


@needs_fork
class TestGatewayShedSpans:
    def test_overload_shed_closes_root_span(self):
        from repro.bdd.wire import serialize_instance
        from repro.serve.gateway import MinimizationGateway, OverloadedError
        from repro.serve.pool import MinimizationPool

        manager, f, c = _instance()
        payload = serialize_instance(manager, f, c)

        async def drill():
            with MinimizationPool(workers=1) as pool:
                gateway = MinimizationGateway(pool, queue_limit=2)
                await gateway.start()
                gateway.pause_dispatch()
                pending = [
                    asyncio.ensure_future(gateway.submit(payload, "f_orig"))
                    for _ in range(2)
                ]
                await asyncio.sleep(0)
                with pytest.raises(OverloadedError):
                    await gateway.submit(payload, "f_orig")
                gateway.resume_dispatch()
                await asyncio.gather(*pending)
                await gateway.close()
                return gateway

        tracer = obs_trace.activate()
        try:
            gateway = asyncio.run(drill())
        finally:
            obs_trace.deactivate()

        # Every admitted request's root span was closed exactly once.
        assert gateway.spans.open_count == 0
        roots = [
            e for e in tracer.events if e["name"] == "gateway.request"
        ]
        assert len(roots) == gateway.spans.closed
        shed = [
            e for e in roots if e["args"].get("shed_reason") == "overload"
        ]
        assert len(shed) == 1
        assert shed[0]["args"]["status"] == "shed"

    def test_expired_shed_closes_root_span(self):
        from repro.bdd.wire import serialize_instance
        from repro.serve.gateway import DeadlineExpired, MinimizationGateway
        from repro.serve.pool import MinimizationPool

        manager, f, c = _instance()
        payload = serialize_instance(manager, f, c)

        class FakeClock:
            now = 100.0

            def __call__(self):
                return self.now

        clock = FakeClock()

        async def drill():
            with MinimizationPool(workers=1) as pool:
                gateway = MinimizationGateway(pool, clock=clock)
                await gateway.start()
                gateway.pause_dispatch()
                future = asyncio.ensure_future(
                    gateway.submit(payload, "osm_bt", deadline=1.0)
                )
                await asyncio.sleep(0)
                clock.now += 1.5
                gateway.resume_dispatch()
                with pytest.raises(DeadlineExpired):
                    await future
                await gateway.close()
                return gateway

        tracer = obs_trace.activate()
        try:
            gateway = asyncio.run(drill())
        finally:
            obs_trace.deactivate()

        assert gateway.spans.open_count == 0
        shed = [
            e for e in tracer.events
            if e["name"] == "gateway.request"
            and e["args"].get("shed_reason") == "deadline_expired"
        ]
        assert len(shed) == 1


@needs_fork
class TestMetricsParallelKeySet:
    def test_merged_view_exports_complete_serve_key_set(self, capsys):
        """Satellite: every gateway.*/verify.* counter is surfaced."""
        from repro.cli import main

        assert main(
            ["metrics", "tlc", "--max-iterations", "1", "--parallel", "1"]
        ) == 0
        out = capsys.readouterr().out
        for key in SERVE_COUNTER_KEYS:
            assert key in out, "missing counter %s in metrics output" % key
        # Phase percentiles from the pooled lane ride along.
        assert "phase percentiles" in out
        assert "worker.compute" in out
