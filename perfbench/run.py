"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_sweep --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from
``src/``.  The inputs are generated from ``--seed``, the workload is
set up from cold, and whole rounds of fixed work run on it; then it is
set up ``SETUP_REPEATS - 1`` more times (the median set-up is
reported), all within ``--seconds``.  Times are reported at a nominal
host speed, from a host-speed probe run between ops (see host.py).
Every round's outputs
are checked against golden digests.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced
rounds and reports the per-layer metrics (see README.md).  The last
line of standard output is one JSON object; the exit code is 0 only if
every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run
    against anything else (an installed copy, or no program at all)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit("perfbench: no program at %s; run from a checkout of the repository" % src)
    sys.path[:0] = [src, ROOT]
    os.environ["PYTHONPATH"] = os.pathsep.join([src, ROOT, os.environ.get("PYTHONPATH", "")])
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.exit("perfbench: imported repro from %s, not %s" % (repro.__file__, src))


def _timed_round(workload, tracer=None) -> dict:
    """One round: wall and CPU time (workers included, untimed pauses
    between ops left out), the peak resident set of the round and, when
    ``tracer`` is given, the per-layer figures of that round."""
    import gc

    from perfbench import host

    # Every round starts from the same heap: without this, garbage
    # cycles left by the previous round slow the next one's first ops.
    gc.collect()
    host.reset_peak_rss(workload.pids())
    baseline = {id(m): (m, m.statistics()) for m in workload.managers()}
    before = workload.serve_state() if tracer is not None else None
    if tracer is not None:
        tracer.reset()
        tracer.install()
        workload.tracer = tracer
    pids = workload.pids()
    worker_cpu = host.process_cpu_s(pids)
    cpu = time.process_time()
    started = time.perf_counter()
    try:
        result = workload.run_round()
        ended = time.perf_counter()
        cpu = time.process_time() - cpu - result.paused_cpu_s
        cpu += host.cpu_delta(worker_cpu, host.process_cpu_s(workload.pids()))
        rss = host.peak_rss_mb(workload.pids())
    finally:
        if tracer is not None:
            tracer.uninstall()
            workload.tracer = None
    # "wall" and "cpu" are as measured; the reported figures are scaled
    # to the nominal host's speed by "scale".
    measured = {"wall": ended - started - result.paused_s, "cpu": cpu, "rss": rss,
                "scale": host.speed_scale(result.probe_ms), "result": result}
    if tracer is not None:
        from perfbench import layers

        measured["window"] = (started, ended)
        measured["layers"] = layers.round_metrics(
            workload, tracer, result, started, ended, baseline, before)
    workload.check(result)
    return measured


def _timed_setup(workload) -> float:
    """Seconds to set ``workload`` up from cold, at the nominal host's
    speed (probed just before and just after)."""
    from perfbench import host

    workload.discard_setup()
    probes = [host.calibrate_ms() for _ in range(host.SETUP_PROBES)]
    started = time.perf_counter()
    workload.setup()
    elapsed = time.perf_counter() - started
    probes.extend(host.calibrate_ms() for _ in range(host.SETUP_PROBES))
    return elapsed * host.speed_scale(probes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from perfbench import golden, host, layers, workloads
    from perfbench.tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r; known: %s" % (args.workload, ", ".join(workloads.WORKLOADS)))
    workload = workloads.WORKLOADS[args.workload](args.seed, golden.load())
    tracer = Tracer() if args.trace else None
    try:
        budget_start = time.perf_counter()
        setup_s = [_timed_setup(workload)]
        setup_layers = None
        if tracer is not None and workload.trace_setup:
            setup_layers = layers.traced_setup(workload, tracer)
        # The other set-ups come after the rounds: each leaves freed
        # heap behind, under which a round's own memory use would not
        # show in peak_rss_mb.
        reserve = (SETUP_REPEATS - 1) * setup_s[0]
        rounds = {False: [], True: []}
        longest = 0.0
        while True:
            began = time.perf_counter()
            traced = tracer is not None and len(rounds[True]) < len(rounds[False])
            rounds[traced].append(_timed_round(workload, tracer if traced else None))
            done = len(rounds[False]) + len(rounds[True])
            longest = max(longest, time.perf_counter() - began)
            enough = rounds[False] and (tracer is None or rounds[True])
            if enough and time.perf_counter() - budget_start + longest + reserve > args.seconds:
                break
        setup_s.extend(_timed_setup(workload) for _ in range(SETUP_REPEATS - 1))
    finally:
        workload.close()
    every = rounds[False] + rounds[True]
    calibration = [probe for r in every for probe in r["result"].probe_ms]
    attempted = sum(r["result"].attempted for r in every)
    failed = sum(r["result"].failed for r in every)
    for r in every:
        for problem in r["result"].problems:
            print("perfbench: %s: %s" % (args.workload, problem), file=sys.stderr)
    if tracer is None:
        metrics = layers.end_to_end(setup_s, rounds[False])
    else:
        metrics = layers.per_layer(rounds[False], rounds[True], setup_layers, calibration)
    for name, entry in metrics.items():
        print("%-32s %14.6g %s" % (name, entry["value"], entry["unit"]))
    print("%-32s %14d rounds (%d traced), %d ops, %d failed, host.calib_ms %.3f"
          % ("#", done, len(rounds[True]), attempted, failed, host.median(calibration)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
