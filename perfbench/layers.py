"""From timed rounds to the benchmark's metrics, end to end and per layer."""

from __future__ import annotations

from typing import Dict, List, Optional

from perfbench import host

END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "round_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "batch_ms_p50": "ms",
    "batch_ms_p90": "ms",
}

#: Worker-side phases as reported by ``MinimizationPool.phase_summary``.
WORKER_PHASES: Dict[str, str] = {
    "worker.decode_s": "worker.decode",
    "worker.compute_s": "worker.compute",
    "worker.gc_s": "worker.gc",
    "worker.encode_s": "worker.encode",
}


def _paper_heuristics() -> List[str]:
    from repro.core.registry import PAPER_HEURISTICS

    return list(PAPER_HEURISTICS)


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric, in report order, with its unit."""
    units = {
        "bdd.ite_calls": "count",
        "bdd.ite_hit_frac": "frac",
        "bdd.nodes_created": "count",
        "bdd.peak_nodes": "count",
        "bdd.ite_calls_per_s": "1/s",
        "bdd.gc_s": "s",
        "bdd.gc_calls": "count",
        "bdd.nodes_reclaimed": "count",
        "bdd.clear_caches_calls": "count",
    }
    for name in _paper_heuristics():
        units["core.h.%s_s" % name] = "s"
    units.update({
        "core.lower_bound_s": "s",
        "core.cover_check_s": "s",
        "experiments.collect_s": "s",
        "experiments.setup_collect_s": "s",
        "experiments.harness_self_s": "s",
        "experiments.calls": "count",
        "experiments.filtered_out": "count",
        "fsm.compile_s": "s",
        "fsm.image_s": "s",
        "fsm.reach_s": "s",
        "fsm.image_calls": "count",
        "fsm.iterations": "count",
        "wire.encode_s": "s",
        "wire.decode_s": "s",
        "wire.bytes_sent": "bytes",
        "wire.bytes_received": "bytes",
        "pool.execute_s": "s",
        "pool.execute_calls": "count",
        "pool.execute_batch_s": "s",
        "pool.execute_batch_calls": "count",
        "gateway.queue_wait_ms_p50": "ms",
        "gateway.self_ms_p50": "ms",
    })
    units.update({name: "s" for name in WORKER_PHASES})
    units.update({
        "serve.degraded": "count",
        "serve.shed": "count",
        "pool.worker_restarts": "count",
        "host.calib_ms": "ms",
        "host.raw_round_s": "s",
        "trace.overhead_frac": "frac",
        "trace.round_s": "s",
        "trace.residual_s": "s",
    })
    return units


def _entry(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _typical_latencies(rounds: List[dict], kind: str) -> List[float]:
    """Each op's median latency over the rounds, at the nominal host's
    speed.

    Every round runs the same op list in the same order, so position
    ``i`` is the same op in every round; its median sheds the host's
    passing hiccups that would otherwise decide which op sits at a
    percentile.
    """
    scaled = ([t * r["scale"] for t in getattr(r["result"], kind)] for r in rounds)
    return [host.median(column) for column in zip(*scaled)]


def _round_s(rounds: List[dict]) -> float:
    """Median round wall time at the nominal host's speed."""
    return host.median([r["wall"] * r["scale"] for r in rounds])


def end_to_end(setup_s: List[float], rounds: List[dict]) -> Dict[str, dict]:
    """Medians over the untraced rounds; latency percentiles (nearest
    rank) over the op list, of each op's median latency.  Times are at
    the nominal host's speed (``host.speed_scale``)."""
    ops = _typical_latencies(rounds, "op_s")
    batches = _typical_latencies(rounds, "batch_s")
    values = {
        "setup_s": host.median(setup_s),
        "round_s": _round_s(rounds),
        "cpu_s": host.median([r["cpu"] * r["scale"] for r in rounds]),
        "peak_rss_mb": host.median([r["rss"] for r in rounds]),
        "op_ms_p50": host.percentile(ops, 0.5) * 1e3,
        "op_ms_p90": host.percentile(ops, 0.9) * 1e3,
        "batch_ms_p50": host.percentile(batches, 0.5) * 1e3,
        "batch_ms_p90": host.percentile(batches, 0.9) * 1e3,
    }
    return {name: _entry(values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def traced_setup(workload, tracer) -> Dict[str, float]:
    """One more set-up, traced: its per-layer times."""
    import time

    tracer.reset()
    tracer.install()
    try:
        workload.discard_setup()
        started = time.perf_counter()
        workload.setup()
        ended = time.perf_counter()
    finally:
        tracer.uninstall()
    return tracer.self_times(started, ended)[0]


def round_metrics(workload, tracer, result, started, ended, baseline, before) -> Dict[str, float]:
    """Per-layer figures of one traced round."""
    times, residual = tracer.self_times(started, ended)
    residual -= result.paused_s
    counts = tracer.counts()
    bdd = tracer.bdd_statistics(baseline)
    lookups = bdd["ite_cache_hits"] + bdd["ite_cache_misses"]
    calls, filtered, iterations = workload.collected()
    metrics = {
        "bdd.ite_calls": bdd["ite_calls"],
        "bdd.ite_hit_frac": bdd["ite_cache_hits"] / lookups if lookups else 0.0,
        "bdd.nodes_created": bdd["nodes_created"],
        "bdd.peak_nodes": bdd["peak_nodes"],
        "bdd.gc_calls": counts.get("bdd.gc", 0),
        "bdd.nodes_reclaimed": bdd["nodes_reclaimed"],
        "bdd.clear_caches_calls": counts.get("bdd.clear_caches", 0),
        "experiments.calls": calls,
        "experiments.filtered_out": filtered,
        "fsm.image_calls": counts.get("fsm.image", 0),
        "fsm.iterations": iterations,
        "wire.bytes_sent": tracer.bytes_sent,
        "wire.bytes_received": tracer.bytes_received,
        "pool.execute_calls": counts.get("pool.execute", 0),
        "pool.execute_batch_calls": counts.get("pool.execute_batch", 0),
        "trace.round_s": ended - started - result.paused_s,
        "trace.residual_s": residual,
    }
    metrics.update(times)
    if before is not None:
        after = workload.serve_state()
        for name, phase in WORKER_PHASES.items():
            metrics[name] = after["phases"].get(phase, 0.0) - before["phases"].get(phase, 0.0)
        for name, key in (("serve.degraded", "degraded"), ("serve.shed", "shed"),
                          ("pool.worker_restarts", "worker_restarts")):
            metrics[name] = after[key] - before[key]
        waits, selves = workload.request_times(result, tracer)
        metrics["gateway.queue_wait_ms_p50"] = host.percentile(waits, 0.5) * 1e3
        metrics["gateway.self_ms_p50"] = host.percentile(selves, 0.5) * 1e3
    return metrics


def per_layer(untraced: List[dict], traced: List[dict],
              setup_layers: Optional[Dict[str, float]],
              calibration: List[float]) -> Dict[str, dict]:
    """Per-round means over the traced rounds, plus the derived rates."""
    units = per_layer_units()
    values = {name: 0.0 for name in units}
    for measured in traced:
        for name, value in measured["layers"].items():
            values[name] += value / len(traced)
    untraced_round = _round_s(untraced)
    values["bdd.ite_calls_per_s"] = values["bdd.ite_calls"] / untraced_round
    values["experiments.setup_collect_s"] = (setup_layers or {}).get("experiments.collect_s", 0.0)
    values["host.calib_ms"] = host.median(calibration)
    values["host.raw_round_s"] = host.median([r["wall"] for r in untraced])
    values["trace.overhead_frac"] = _round_s(traced) / untraced_round - 1.0
    return {name: _entry(values[name], unit) for name, unit in units.items()}
