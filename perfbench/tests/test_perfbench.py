"""Self-tests of the benchmark: inputs, determinism, gates, tracing.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

The workloads run here on cut-down machine sets so the file finishes
in about a minute; the code paths are the benchmark's own.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import golden, host, layers, run, tracer, workloads
from perfbench.host import median

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
TABLE = golden.load()


class SmallSweep(workloads.PaperSweep):
    MACHINES = ("s344",)


class SmallTraverse(workloads.Traverse):
    MACHINES = ("s344", "s820", "tlc")
    PASSES = 1


class SmallServe(workloads.ServeMix):
    MACHINES = ("s344",)


def _ready(cls, seed=0):
    workload = cls(seed, TABLE)
    workload.setup()
    return workload


def _traced(workload):
    return run._timed_round(workload, tracer.Tracer())


@pytest.fixture(scope="module")
def sweep():
    return _ready(SmallSweep)


@pytest.fixture(scope="module")
def traverse():
    return _ready(SmallTraverse)


@pytest.fixture
def serve():
    workload = _ready(SmallServe)
    yield workload
    workload.close()


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def test_golden_table_reproduces():
    assert golden.measure("s820") == TABLE["s820"]
    total = sum(sum(TABLE[name]["digest"]["sizes"].values()) for name in golden.SWEEP_MACHINES)
    assert total == 74704


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_seeded_inputs_follow_the_pisek_contract(cls):
    def fingerprint(seed):
        return workloads.input_fingerprint(cls.plan(seed, TABLE))

    assert fingerprint(7) == fingerprint(7)
    assert len({fingerprint(seed) for seed in range(20)}) == 20
    # Seeds only permute one fixed op list over the paper suite; the
    # default seed keeps the suite's own order.
    default, other = (cls.plan(seed, TABLE)["ops"] for seed in (workloads.DEFAULT_SEED, 1))
    assert sorted(map(repr, default)) == sorted(map(repr, other)) and default != other
    assert default[0] in (("s344", 0), golden.suite_names()[0], (0, "constrain"))


# ----------------------------------------------------------------------
# Determinism of the per-layer counts
# ----------------------------------------------------------------------
COUNTS = (
    "bdd.ite_calls", "bdd.nodes_created", "bdd.peak_nodes", "bdd.gc_calls",
    "bdd.nodes_reclaimed", "bdd.clear_caches_calls", "wire.bytes_sent",
    "wire.bytes_received", "fsm.iterations", "fsm.image_calls",
    "pool.execute_calls", "pool.execute_batch_calls",
)

_PROBE = """
import json, sys
sys.path[:0] = [%(root)r, %(src)r]
from perfbench import golden, run, workloads
from perfbench.tracer import Tracer
from perfbench.tests.test_perfbench import COUNTS, SmallServe, SmallSweep, SmallTraverse
out = {}
for cls in (SmallSweep, SmallTraverse, SmallServe):
    workload = cls(0, golden.load())
    workload.setup()
    measured = run._timed_round(workload, Tracer())["layers"]
    workload.close()
    out[cls.name] = {key: measured[key] for key in COUNTS}
print(json.dumps(out))
"""


def test_counts_repeat_across_runs_and_hash_seeds():
    code = _PROBE % {"root": ROOT, "src": os.path.join(ROOT, "src")}
    seen = []
    for hash_seed in ("1", "2", "random"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300, cwd=ROOT)
        assert proc.returncode == 0, proc.stderr
        seen.append(json.loads(proc.stdout.splitlines()[-1]))
    assert seen[0] == seen[1] == seen[2]
    counts = seen[0]
    # One-call harness invocations do exactly the work of the
    # whole-record sweep the table was calibrated with.
    assert counts["paper_sweep"]["bdd.ite_calls"] == TABLE["s344"]["sweep"]["ite_calls"]
    assert counts["paper_sweep"]["bdd.nodes_created"] == TABLE["s344"]["sweep"]["nodes_created"]
    # The predictions: gc only in the sweep, the pool only when serving.
    assert counts["paper_sweep"]["bdd.gc_calls"] > 0
    assert counts["traverse"]["bdd.gc_calls"] == 0
    for name in ("paper_sweep", "traverse"):
        assert counts[name]["pool.execute_calls"] == counts[name]["pool.execute_batch_calls"] == 0
    assert counts["serve_mix"]["pool.execute_calls"] > 0
    assert counts["serve_mix"]["pool.execute_batch_calls"] > 0


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def _attributed(metrics):
    return sum(value for name, value in metrics.items()
               if name.startswith("core.h.") or name in tracer.METRIC_OF.values())


def test_self_times_of_hand_made_spans():
    spans = tracer.Tracer()
    spans.spans = [
        ["experiments.run_heuristics", 0.0, 10.0, -1],
        ["core.h.opt_lv", 1.0, 4.0, 0],
        ["bdd.gc", 2.0, 3.0, 1],
        ["core.cover_check", 5.0, 6.0, 0],
        ["bdd.gc", 7.0, 7.5, 0],
        ["wire.decode", 11.0, 11.5, -1],
    ]
    totals, residual = spans.self_times(0.0, 12.0)
    assert totals == pytest.approx({
        "experiments.harness_self_s": 5.5, "core.h.opt_lv_s": 2.0, "bdd.gc_s": 1.5,
        "core.cover_check_s": 1.0, "wire.decode_s": 0.5})
    assert residual == pytest.approx(1.5)
    # A window cuts spans at its edges.
    totals, residual = spans.self_times(2.5, 11.25)
    assert totals == pytest.approx({
        "experiments.harness_self_s": 4.5, "core.h.opt_lv_s": 1.0, "bdd.gc_s": 1.0,
        "core.cover_check_s": 1.0, "wire.decode_s": 0.25})
    assert residual == pytest.approx(1.0)
    assert spans.top_level_time(2.5, 11.25) == pytest.approx(7.75)


def _top_level_union(spans, start, end):
    """Time of ``[start, end]`` covered by the outermost spans, from the
    union of their intervals."""
    covered, reach = 0.0, start
    for low, high in sorted((s[1], s[2]) for s in spans if s[3] == -1):
        low, high = max(low, reach), min(high, end)
        if high > low:
            covered += high - low
            reach = high
    return covered


def test_layer_times_and_residual_sum_to_the_round(sweep, traverse, serve):
    for workload in (sweep, traverse, serve):
        probe = tracer.Tracer()
        measured = run._timed_round(workload, probe)
        metrics = measured["layers"]
        started, ended = measured["window"]
        paused = measured["result"].paused_s
        covered = _top_level_union(probe.spans, started, ended)
        # No instant is counted twice: the layer self times add up to
        # the time the outermost spans cover...
        assert _attributed(metrics) == pytest.approx(covered, rel=1e-9), workload.name
        # ...the residual is the rest of the round outside them (less
        # the untimed collections between traverse ops)...
        assert metrics["trace.residual_s"] == pytest.approx(
            ended - started - covered - paused, rel=1e-6, abs=1e-9), workload.name
        # ...and together they make up the round.
        whole = metrics["trace.round_s"]
        assert whole == measured["wall"]
        assert _attributed(metrics) + metrics["trace.residual_s"] == pytest.approx(whole, rel=1e-9)
        assert 0 <= metrics["trace.residual_s"] < 0.25 * whole, workload.name


def test_tracer_restores_every_patch(sweep):
    from repro.bdd import wire
    from repro.bdd.manager import Manager
    from repro.core.registry import HEURISTICS
    from repro.experiments import harness

    before = (Manager.gc, Manager.__init__, HEURISTICS["opt_lv"], harness.cube_lower_bound,
              wire.deserialize)
    _traced(sweep)
    after = (Manager.gc, Manager.__init__, HEURISTICS["opt_lv"], harness.cube_lower_bound,
             wire.deserialize)
    assert before == after


def test_rounds_probe_the_host_between_ops(sweep):
    measured = run._timed_round(sweep)
    probes = measured["result"].probe_ms
    # The first op is probed, then one op every PROBE_EVERY_S at most.
    assert 1 <= len(probes) <= len(measured["result"].op_s)
    assert len(probes) >= measured["wall"] / (4 * host.PROBE_EVERY_S)
    assert measured["scale"] == pytest.approx(host.REFERENCE_MS * len(probes) / sum(probes))


def _round_on_host(slowdown):
    """A made-up round on a host ``slowdown`` times the nominal's."""
    result = workloads.RoundResult(op_s=[0.010 * slowdown, 0.030 * slowdown],
                                   batch_s=[0.020 * slowdown],
                                   probe_ms=[host.REFERENCE_MS * slowdown] * 3)
    return {"wall": 0.05 * slowdown, "cpu": 0.04 * slowdown, "rss": 10.0,
            "scale": host.speed_scale(result.probe_ms), "result": result}


def test_a_slower_host_reports_the_same_times():
    nominal = layers.end_to_end([0.1], [_round_on_host(1.0)])
    slow = layers.end_to_end([0.1], [_round_on_host(1.5)])
    assert nominal["round_s"]["value"] == pytest.approx(0.05)
    assert nominal["op_ms_p90"]["value"] == pytest.approx(30.0)
    for name, entry in nominal.items():
        assert slow[name]["value"] == pytest.approx(entry["value"]), name


# ----------------------------------------------------------------------
# Planted faults
# ----------------------------------------------------------------------
def _non_cover(manager, f, c):
    return f ^ 1


def test_non_cover_fails_the_sweep_gate(sweep, monkeypatch):
    from repro.core.registry import HEURISTICS

    monkeypatch.setitem(HEURISTICS, "f_orig", _non_cover)
    result = run._timed_round(sweep)["result"]
    assert result.failed == result.attempted > 0


def test_non_cover_fails_the_serving_gate(monkeypatch):
    from repro.core.registry import HEURISTICS

    monkeypatch.setitem(HEURISTICS, "f_orig", _non_cover)
    workload = _ready(SmallServe)
    try:
        result = run._timed_round(workload)["result"]
    finally:
        workload.close()
    planted = [i for i, (_, method) in enumerate(workload.ops) if method in (None, "f_orig")]
    assert planted and result.failed == len(planted)


GC_DELAY = 0.002


def test_gc_delay_shows_on_the_sweep_only(sweep, traverse, monkeypatch):
    from repro.bdd.manager import Manager

    base = _traced(sweep)
    hits = []
    original = Manager.gc

    def slow_gc(self, *args, **kwargs):
        hits.append(1)
        time.sleep(GC_DELAY)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Manager, "gc", slow_gc)
    slow = _traced(sweep)
    injected = GC_DELAY * len(hits)
    assert slow["layers"]["bdd.gc_calls"] == len(hits) > 0
    assert slow["layers"]["bdd.gc_s"] - base["layers"]["bdd.gc_s"] > 0.8 * injected
    assert slow["wall"] - base["wall"] > 0.5 * injected
    del hits[:]
    assert _traced(traverse)["layers"]["bdd.gc_calls"] == 0
    assert not hits


POOL_DELAY = 0.03


def test_pool_delay_shows_on_serving_only(sweep, traverse, serve, monkeypatch):
    from repro.serve import MinimizationPool

    base = run._timed_round(serve)["result"]
    hits = []
    original = MinimizationPool.execute

    def slow_execute(self, *args, **kwargs):
        hits.append(1)
        time.sleep(POOL_DELAY)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(MinimizationPool, "execute", slow_execute)
    slow = run._timed_round(serve)["result"]
    assert hits and median(slow.op_s) - median(base.op_s) > 0.5 * POOL_DELAY
    del hits[:]
    run._timed_round(sweep)
    run._timed_round(traverse)
    assert not hits


# ----------------------------------------------------------------------
# The benchmark's contract
# ----------------------------------------------------------------------
def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == list(layers.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == layers.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
