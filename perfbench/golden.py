"""Golden digests of the suite machines, which every round is checked against.

For each machine of the paper suite (``repro.circuits.BENCHMARK_SUITE``)
``golden.json`` records the fingerprint of its collected call stream;
for the three swept machines it also records the §4 sweep: its work
counts and the per-heuristic size totals and failed-cell count.  The
digests cover sizes, counts and verdicts only, never node numbering,
so they are the same on every host and under every ``PYTHONHASHSEED``.
Rewrite the file only when a change is meant to alter the program's
outputs:

    PYTHONPATH=src python3 perfbench/golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, List, Tuple

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

#: The three machines of the §4 sweep (and of the serving mix).
SWEEP_MACHINES: Tuple[str, ...] = ("s344", "tbk", "cbp.32.4")


def suite_names() -> List[str]:
    from repro.circuits import BENCHMARK_SUITE

    return list(BENCHMARK_SUITE)


def load(path: str = PATH) -> Dict[str, dict]:
    with open(path) as handle:
        return json.load(handle)


def call_fingerprint(record) -> Dict[str, object]:
    """Count and digest of a collected call stream.

    Covers each call's kind, ``f`` size and care-onset fraction, in
    order, plus the traversal verdict and iteration count.
    """
    digest = hashlib.sha256()
    kinds: Dict[str, int] = {}
    for call in record.calls:
        kinds[call.kind] = kinds.get(call.kind, 0) + 1
        digest.update(("%s:%d:%r;" % (call.kind, call.f_size, call.onset_fraction)).encode())
    digest.update(("%s:%d" % (record.equivalent, record.iterations)).encode())
    return {
        "calls": len(record.calls),
        "kinds": dict(sorted(kinds.items())),
        "digest": digest.hexdigest()[:16],
    }


def sweep_digest(call_results) -> Dict[str, object]:
    """Per-heuristic size totals and failed-cell count of sweep rows."""
    totals: Dict[str, int] = {}
    failed = 0
    for result in call_results:
        failed += len(result.failures)
        for name, size in result.sizes.items():
            if size is not None:
                totals[name] = totals.get(name, 0) + size
    return {"sizes": dict(sorted(totals.items())), "failed": failed}


def measure(name: str) -> dict:
    """The golden entry of one suite machine."""
    from repro.experiments import collect_benchmark_calls, run_heuristics

    record = collect_benchmark_calls(name)
    entry = {"fingerprint": call_fingerprint(record)}
    if name in SWEEP_MACHINES:
        before = record.manager.statistics()
        results = run_heuristics([record])
        after = record.manager.statistics()
        entry["sweep"] = {
            key: after[key] - before[key] for key in ("ite_calls", "nodes_created")
        }
        entry["digest"] = sweep_digest(results.results)
    return entry


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src")]
    table = {name: measure(name) for name in suite_names()}
    with open(PATH, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
