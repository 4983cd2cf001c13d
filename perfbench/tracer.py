"""Outside-in tracing: spans around the public functions of each layer.

Nothing inside ``repro`` is edited.  :class:`Tracer` replaces each
traced function by a wrapper wherever a module has bound it (so
``from x import f`` call sites are covered too) and replaces traced
methods on their classes; :meth:`Tracer.uninstall` puts every original
back.  Each call records one span ``(name, start, end, parent)`` in
memory; the parent is the innermost open span of the same thread.

A layer's time is the sum of its spans' self times: duration minus
the part covered by the span's children.  Every workload keeps one
request outstanding at a time, so spans of different threads never
overlap and the self times of a window plus the time outside every
top-level span add up to the window.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Callable, Dict, List, Sequence, Tuple

#: Span name -> per-layer time metric (``core.h.<name>`` spans map to
#: ``core.h.<name>_s``).
_HEURISTIC_PREFIX = "core.h."
METRIC_OF: Dict[str, str] = {
    "core.lower_bound": "core.lower_bound_s",
    "core.cover_check": "core.cover_check_s",
    "bdd.gc": "bdd.gc_s",
    "bdd.clear_caches": "bdd.gc_s",
    "fsm.compile": "fsm.compile_s",
    "fsm.image": "fsm.image_s",
    "fsm.reach": "fsm.reach_s",
    "wire.encode": "wire.encode_s",
    "wire.decode": "wire.decode_s",
    "experiments.collect": "experiments.collect_s",
    "experiments.run_heuristics": "experiments.harness_self_s",
    "pool.execute": "pool.execute_s",
    "pool.execute_batch": "pool.execute_batch_s",
}


def metric_of(span_name: str) -> str:
    if span_name.startswith(_HEURISTIC_PREFIX):
        return span_name + "_s"
    return METRIC_OF[span_name]


def _clipped(span: list, start: float, end: float) -> float:
    return max(0.0, min(span[2], end) - max(span[1], start))


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        # name, start, end, parent index
        self.spans: List[list] = []
        self.managers: List[object] = []
        self._retired: Dict[str, int] = {}
        # id(manager) -> largest live-node count seen at a gc entry
        self._live_peak: Dict[int, int] = {}
        self.bytes_sent = 0
        self.bytes_received = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, function: Callable, after=None) -> Callable:
        """``function`` recording a span; ``after(args, result)`` runs
        on return."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = function
        return traced

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def patch_function(self, original: Callable, name: str, after=None) -> None:
        """Wrap ``original`` in every ``repro`` module that binds it."""
        wrapper = self.wrap(name, original, after)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def patch_method(self, cls: type, attr: str, name: str, after=None) -> None:
        self._set(cls, attr, self.wrap(name, vars(cls)[attr], after))

    def patch_mapping(self, mapping: dict, keys: Sequence[str], prefix: str) -> None:
        for key in keys:
            original = mapping[key]
            mapping[key] = self.wrap(prefix + key, original)
            self._restore.append((mapping, key, original))

    def install(self) -> "Tracer":
        """Wrap every traced layer boundary."""
        import repro.experiments as experiments
        from repro.bdd import wire
        from repro.bdd.manager import Manager
        from repro.core import lower_bound
        from repro.core.ispec import ISpec
        from repro.core.registry import HEURISTICS, PAPER_HEURISTICS
        from repro.fsm import image, product, reachability
        from repro.serve.pool import MinimizationPool

        self.patch_function(experiments.collect_benchmark_calls, "experiments.collect")
        self.patch_function(experiments.run_heuristics, "experiments.run_heuristics")
        self.patch_function(product.compile_product, "fsm.compile")
        self.patch_function(image.image_by_constrain_range, "fsm.image")
        self.patch_function(reachability.check_equivalence, "fsm.reach")
        self.patch_function(lower_bound.cube_lower_bound, "core.lower_bound")
        self.patch_mapping(HEURISTICS, PAPER_HEURISTICS, _HEURISTIC_PREFIX)
        self.patch_method(ISpec, "is_cover", "core.cover_check")
        self.patch_method(Manager, "clear_caches", "bdd.clear_caches")
        for function in (wire.serialize, wire.serialize_instance, wire.encode_batch):
            self.patch_function(function, "wire.encode")
        for function in (wire.deserialize, wire.deserialize_instance, wire.decode_batch):
            self.patch_function(function, "wire.decode")

        def sent_one(args, outcome) -> None:
            self._count_bytes(len(args[1]), [outcome])

        def sent_batch(args, outcomes) -> None:
            self._count_bytes(len(args[1]), outcomes or [])

        self.patch_method(MinimizationPool, "execute", "pool.execute", sent_one)
        self.patch_method(MinimizationPool, "execute_batch", "pool.execute_batch", sent_batch)

        # The live-node count just before a collection is the peak
        # since the previous one; it is read outside the gc span.
        traced_gc = self.wrap("bdd.gc", vars(Manager)["gc"])
        original_init = vars(Manager)["__init__"]
        tracer = self

        def gc(manager, *args, **kwargs):
            tracer._note_live(manager)
            return traced_gc(manager, *args, **kwargs)

        def init(manager, *args, **kwargs):
            original_init(manager, *args, **kwargs)
            tracer.managers.append(manager)

        self._set(Manager, "gc", gc)
        self._set(Manager, "__init__", init)
        return self

    def _note_live(self, manager) -> None:
        live = manager.statistics()["live_nodes"]
        key = id(manager)
        if live > self._live_peak.get(key, 0):
            self._live_peak[key] = live

    def _count_bytes(self, sent: int, outcomes) -> None:
        received = sum(len(o.payload) for o in outcomes if o is not None and o.payload)
        with self._lock:
            self.bytes_sent += sent
            self.bytes_received += received

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def reset(self) -> None:
        with self._lock:
            self.spans = []
            self.managers = []
            self._retired = {}
            self._live_peak = {}
            self.bytes_sent = 0
            self.bytes_received = 0

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for span in self.spans:
            counts[span[0]] = counts.get(span[0], 0) + 1
        return counts

    def top_level_time(self, start: float, end: float) -> float:
        """Summed duration of the outermost spans within ``[start, end]``."""
        return sum(_clipped(span, start, end) for span in self.spans if span[3] == -1)

    def self_times(self, start: float, end: float) -> Tuple[Dict[str, float], float]:
        """Per-layer self time in ``[start, end]`` and the rest of the
        window, which no span covers."""
        covered = [_clipped(span, start, end) for span in self.spans]
        own = list(covered)
        for index, span in enumerate(self.spans):
            if span[3] >= 0:
                own[span[3]] -= covered[index]
        totals: Dict[str, float] = {}
        for span, seconds in zip(self.spans, own):
            metric = metric_of(span[0])
            totals[metric] = totals.get(metric, 0.0) + seconds
        residual = (end - start) - sum(totals.values())
        return totals, residual

    def retire(self, manager) -> None:
        """Fold a manager created in the window into the totals and let
        it go (rounds that build many managers stay small)."""
        stats = manager.statistics()
        self._fold(self._retired, None, stats, stats["peak_nodes"])
        self.managers = [m for m in self.managers if m is not manager]

    @staticmethod
    def _fold(total: Dict[str, int], before, now: Dict[str, int], peak: int) -> None:
        from repro.obs.metrics import diff_statistics

        delta = diff_statistics(before, now) if before is not None else now
        for name in _BDD_COUNTS:
            total[name] = total.get(name, 0) + delta[name]
        total["peak_nodes"] = max(total.get("peak_nodes", 0), peak)

    def bdd_statistics(self, baseline: Dict[int, tuple]) -> Dict[str, int]:
        """Summed ``Manager.statistics()`` deltas over the window.

        ``baseline`` maps ``id(manager)`` to ``(manager, snapshot)`` for
        managers that predate the window; managers created inside it
        (registered by the ``Manager.__init__`` wrapper) count from zero.
        ``peak_nodes`` is the window's own: a new manager's node
        high-water mark, or for an older one the largest live-node count
        at the window's ends and at every gc entry in between.
        """
        total = dict(self._retired)
        for manager in self.managers:
            if id(manager) not in baseline:
                stats = manager.statistics()
                self._fold(total, None, stats, stats["peak_nodes"])
        for key, (manager, before) in baseline.items():
            now = manager.statistics()
            peak = max(before["live_nodes"], now["live_nodes"], self._live_peak.get(key, 0))
            self._fold(total, before, now, peak)
        for name in _BDD_COUNTS + ("peak_nodes",):
            total.setdefault(name, 0)
        return total


_BDD_COUNTS = ("ite_calls", "ite_cache_hits", "ite_cache_misses",
               "nodes_created", "gc_runs", "nodes_reclaimed")
