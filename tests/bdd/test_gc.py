"""Mark-and-sweep collection, protection, free lists and compaction."""

import pytest
from hypothesis import given, settings, strategies as st

import repro.bdd.manager as manager_module
from repro.analysis.checked import CheckedManager
from repro.analysis.errors import InvariantError
from repro.bdd.manager import Manager, ONE, ZERO
from repro.bdd.wire import deserialize, serialize


def _manager(num_vars=8):
    manager = Manager()
    manager.ensure_vars(num_vars)
    return manager


def _build_garbage(manager, rounds=6):
    """Create, then abandon, a pile of distinct intermediate nodes."""
    for offset in range(rounds):
        acc = manager.var(offset % manager.num_vars)
        for level in range(manager.num_vars):
            acc = manager.xor(acc, manager.and_(
                manager.var(level), manager.var((level + offset + 1) % manager.num_vars)
            ))
    return acc


class TestProtection:
    def test_protect_is_refcounted(self):
        manager = _manager()
        f = manager.and_(manager.var(0), manager.var(1))
        assert manager.protect(f) == f
        manager.protect(f)
        assert manager.protected_refs() == (f,)
        manager.unprotect(f)
        assert manager.protected_refs() == (f,)
        manager.unprotect(f)
        assert manager.protected_refs() == ()

    def test_unprotect_unknown_ref_raises(self):
        manager = _manager()
        with pytest.raises(ValueError):
            manager.unprotect(manager.var(0))

    def test_protecting_context(self):
        manager = _manager()
        f = manager.and_(manager.var(0), manager.var(1))
        with manager.protecting(f):
            assert f in manager.protected_refs()
            manager.gc()
            assert manager.size(f) == 3
        assert manager.protected_refs() == ()

    def test_function_protect_chains(self):
        from repro.bdd.function import Function

        manager = _manager()
        func = Function(manager, manager.or_(manager.var(0), manager.var(1)))
        assert func.protect() is func
        assert func.ref in manager.protected_refs()
        assert func.unprotect() is func
        assert manager.protected_refs() == ()


class TestSweep:
    def test_reclaims_dead_nodes(self):
        manager = _manager()
        keep = manager.and_(manager.var(0), manager.var(1))
        _build_garbage(manager)
        before = manager.num_nodes
        manager.gc((keep,))
        stats = manager.statistics()
        assert stats["gc_runs"] == 1
        assert stats["nodes_reclaimed"] > 0
        # Non-compacting: the table length is unchanged, the dead
        # slots went onto the free list.
        assert manager.num_nodes == before
        assert stats["free_list"] == stats["nodes_reclaimed"]
        assert stats["live_nodes"] == before - stats["nodes_reclaimed"]

    def test_roots_and_their_cones_survive(self):
        manager = _manager()
        f = _build_garbage(manager)
        g = manager.xor(manager.var(2), manager.var(5))
        manager.gc((f, g))
        assert manager.eval(g, {2: True, 5: False})
        manager.validate((f, g))

    def test_refs_stay_canonical_after_sweep(self):
        manager = _manager()
        f = manager.and_(manager.var(0), manager.var(1))
        _build_garbage(manager)
        manager.gc((f,))
        # Rebuilding the same function must return the same ref — the
        # unique table was rebuilt consistently.
        assert manager.and_(manager.var(0), manager.var(1)) == f

    def test_free_slots_are_reused(self):
        manager = _manager()
        keep = manager.var(0)
        _build_garbage(manager)
        manager.gc((keep,))
        table_len = manager.num_nodes
        free_before = manager.statistics()["free_list"]
        assert free_before > 0
        rebuilt = _build_garbage(manager)
        assert manager.num_nodes == table_len  # grew into free slots
        assert manager.statistics()["free_list"] < free_before
        manager.validate(rebuilt)

    def test_gc_clears_caches(self):
        manager = _manager()
        f = manager.and_(manager.var(0), manager.var(1))
        assert manager.statistics()["ite_cache"] > 0
        manager.gc((f,))
        assert manager.statistics()["ite_cache"] == 0

    def test_validate_passes_after_sweep(self):
        manager = _manager()
        f = _build_garbage(manager)
        manager.protect(f)
        manager.gc()
        manager.validate(manager.protected_refs())

    def test_terminal_and_constants_survive_empty_root_set(self):
        manager = _manager()
        _build_garbage(manager)
        manager.gc()
        assert manager.statistics()["live_nodes"] == 1  # just the terminal
        # The manager is still fully usable afterwards.
        assert manager.and_(manager.var(0), manager.var(1)) not in (ONE, ZERO)


class TestCompaction:
    def test_remap_translates_live_refs(self):
        manager = _manager()
        _build_garbage(manager)
        f = manager.and_(manager.var(0), manager.var(1))
        size = manager.size(f)
        remap = manager.gc((f,), compact=True)
        assert remap is not None
        new_f = remap(f)
        assert manager.size(new_f) == size
        assert manager.eval(new_f, {0: True, 1: True})
        manager.validate(new_f)

    def test_remap_preserves_complement_bit(self):
        manager = _manager()
        _build_garbage(manager)
        f = manager.and_(manager.var(0), manager.var(1))
        remap = manager.gc((f,), compact=True)
        assert remap(f) & 1 == f & 1
        assert remap(f ^ 1) == remap(f) ^ 1

    def test_remap_rejects_dead_refs(self):
        manager = _manager()
        dead = _build_garbage(manager)
        f = manager.var(0)
        remap = manager.gc((f,), compact=True)
        if dead not in remap:
            with pytest.raises(InvariantError):
                remap(dead)

    def test_compaction_shrinks_the_table(self):
        manager = _manager()
        f = manager.and_(manager.var(0), manager.var(1))
        _build_garbage(manager)
        before = manager.num_nodes
        remap = manager.gc((f,), compact=True)
        assert manager.num_nodes < before
        assert manager.statistics()["free_list"] == 0
        assert manager.num_nodes == manager.statistics()["live_nodes"]
        manager.validate(remap(f))

    def test_protected_refs_are_remapped_automatically(self):
        manager = _manager()
        _build_garbage(manager)
        f = manager.and_(manager.var(0), manager.var(1))
        manager.protect(f)
        remap = manager.gc(compact=True)
        (new_f,) = manager.protected_refs()
        assert new_f == remap(f)
        manager.unprotect(new_f)

    def test_wire_bytes_unchanged_by_compaction(self):
        # The wire format emits canonically, so compaction — which
        # renames node indices but not the function — must not change
        # a single byte.
        manager = _manager()
        _build_garbage(manager)
        f = manager.xor(manager.and_(manager.var(0), manager.var(1)),
                        manager.var(3))
        before = serialize(manager, (f,))
        remap = manager.gc((f,), compact=True)
        after = serialize(manager, (remap(f),))
        assert before == after

    def test_wire_round_trip_after_compaction(self):
        manager = _manager()
        _build_garbage(manager)
        f = manager.or_(manager.var(2), manager.and_(manager.var(4),
                                                     manager.var(5)))
        remap = manager.gc((f,), compact=True)
        fresh, roots = deserialize(serialize(manager, (remap(f),)))
        assert fresh.size(roots[0]) == manager.size(remap(f))

    def test_function_remapped_helper(self):
        from repro.bdd.function import Function

        manager = _manager()
        _build_garbage(manager)
        func = Function(manager, manager.and_(manager.var(0),
                                              manager.var(1)))
        remap = manager.gc((func.ref,), compact=True)
        moved = func.remapped(remap)
        assert moved.ref == remap(func.ref)
        assert moved.manager.eval(moved.ref, {0: True, 1: True})


class TestCountersAndChecked:
    def test_statistics_counters_accumulate(self):
        manager = _manager()
        f = manager.var(0)
        _build_garbage(manager)
        manager.gc((f,))
        first = manager.statistics()["nodes_reclaimed"]
        _build_garbage(manager)
        manager.gc((f,), compact=True)
        stats = manager.statistics()
        assert stats["gc_runs"] == 2
        assert stats["nodes_reclaimed"] > first

    def test_checked_manager_validates_after_gc(self):
        manager = CheckedManager(check=True)
        manager.ensure_vars(8)
        f = manager.and_(manager.var(0), manager.var(1))
        _build_garbage(manager)
        checks = manager.checks_run
        remap = manager.gc((f,), compact=True)
        assert manager.checks_run > checks
        assert manager.size(remap(f)) == 3

    def test_peak_nodes_is_a_table_watermark(self):
        manager = _manager()
        keep = manager.var(0)
        _build_garbage(manager)
        peak = manager.statistics()["peak_nodes"]
        manager.gc((keep,))
        _build_garbage(manager)
        # Regrowth into free slots does not raise the watermark.
        assert manager.statistics()["peak_nodes"] == peak


class TestScheduleGc:
    def test_gc_interval_does_not_change_results(self):
        from repro.core.schedule import Schedule, scheduled_minimize

        def build(manager):
            a, b, c, d = (manager.var(level) for level in range(4))
            f = manager.or_(manager.and_(a, b), manager.and_(c, d))
            care = manager.or_many((a, b, manager.xor(c, d)))
            return f, care

        plain = Manager(var_names=list("abcd"))
        f, c = build(plain)
        expected = scheduled_minimize(plain, f, c, Schedule(window_size=1))

        collected = Manager(var_names=list("abcd"))
        f, c = build(collected)
        result = scheduled_minimize(
            collected, f, c, Schedule(window_size=1, gc_interval=1)
        )
        assert collected.statistics()["gc_runs"] > 0
        # Same function, even though the managers differ internally.
        assert collected.size(result) == plain.size(expected)
        for point in range(16):
            assignment = {
                level: bool(point >> level & 1) for level in range(4)
            }
            assert collected.eval(result, assignment) == plain.eval(
                expected, assignment
            )

    def test_gc_interval_validation(self):
        from repro.core.schedule import Schedule

        with pytest.raises(ValueError):
            Schedule(gc_interval=0)


# ----------------------------------------------------------------------
# Young-generation collection: exact against the full mark-and-sweep
# ----------------------------------------------------------------------

def _full_path_class(base):
    """``base`` with every collection forced down the full path.

    Forgetting the recorded root set before each call is exactly the
    state of a manager that never collected, so the reference is the
    unmodified full mark-and-sweep.
    """
    class FullPath(base):
        def gc(self, roots=(), compact=False):
            self._gc_roots = None
            return super().gc(roots, compact=compact)

    return FullPath


def _manager_classes():
    from repro.analysis.sanitize import SanitizedManager

    # manager_module.Manager is CheckedManager under --repro-check and
    # SanitizedManager under REPRO_SANITIZE=1; both are covered
    # explicitly too.
    return [manager_module.Manager, CheckedManager, SanitizedManager]


def _state(manager):
    """Everything a collection can change, in comparable form."""
    return (
        list(manager._level),
        list(manager._high),
        list(manager._low),
        list(manager._free),
        list(manager._unique.items()),
        manager.statistics(),
    )


def _young_collections(manager):
    """Count the collections that take the young-generation path."""
    calls = []
    original = manager._mark_young

    def spy(*args):
        calls.append(1)
        return original(*args)

    manager._mark_young = spy
    return calls


_OPS = ("and", "xor", "ite")
# Root sets that only grow are weighted up: they take the young path.
_GC_KINDS = ("same", "grow", "protect", "same", "grow", "protect",
             "unprotect", "drop", "compact")

_programs = st.lists(
    st.one_of(
        st.tuples(st.just("op"), st.sampled_from(_OPS),
                  st.integers(0, 63), st.integers(0, 63),
                  st.integers(0, 63)),
        st.tuples(st.just("gc"), st.sampled_from(_GC_KINDS),
                  st.integers(0, 63)),
    ),
    min_size=4,
    max_size=60,
)


def _run_program(cls, program):
    """Replay ``program``; return the state after every collection."""
    manager = cls()
    manager.ensure_vars(6)
    roots = [manager.var(level) for level in range(2)]
    protected = []
    young = []
    states = []
    for step in program:
        if step[0] == "op":
            _, op, i, j, k = step
            pool = roots + protected + young + [
                manager.var(level) for level in range(6)
            ]
            f, g, h = (pool[n % len(pool)] for n in (i, j, k))
            if op == "and":
                young.append(manager.and_(f, g))
            elif op == "xor":
                young.append(manager.xor(f, g))
            else:
                young.append(manager.ite(f, g, h))
            continue
        _, kind, n = step
        compact = kind == "compact"
        if kind == "grow" and young:
            roots.append(young[n % len(young)])
        elif kind == "protect" and young:
            protected.append(manager.protect(young[n % len(young)]))
        elif kind == "unprotect" and protected:
            manager.unprotect(protected.pop(n % len(protected)))
        elif kind == "drop" and roots:
            roots.pop(n % len(roots))
        remap = manager.gc(tuple(roots), compact=compact)
        if remap is not None:
            roots = [remap(ref) for ref in roots]
            protected = [remap(ref) for ref in protected]
        young = []
        states.append(_state(manager))
    return states


class TestYoungGeneration:
    @pytest.mark.parametrize("base", _manager_classes(),
                             ids=lambda cls: cls.__name__)
    @settings(max_examples=60, deadline=None)
    @given(program=_programs)
    def test_matches_full_collection(self, base, program):
        assert _run_program(base, program) == _run_program(
            _full_path_class(base), program
        )

    def test_constant_roots_take_the_young_path(self):
        manager = _manager()
        keep = manager.protect(manager.and_(manager.var(0), manager.var(1)))
        young = _young_collections(manager)
        manager.gc((keep,))
        assert young == []  # the first collection is a full one
        for _ in range(3):
            _build_garbage(manager)
            manager.gc((keep,))
        assert len(young) == 3
        assert manager.statistics()["gc_runs"] == 4

    def test_added_young_root_takes_the_young_path(self):
        manager = _manager()
        manager.gc()
        young = _young_collections(manager)
        f = _build_garbage(manager)
        manager.gc((f,))
        manager.protect(manager.xor(f, manager.var(7)))
        manager.gc((f,))
        assert len(young) == 2
        manager.validate((f,) + manager.protected_refs())

    @pytest.mark.parametrize("trigger", ["drop", "unprotect", "compact"])
    def test_fall_back_to_full_collection(self, trigger):
        manager = _manager()
        f = manager.and_(manager.var(0), manager.var(1))
        g = manager.protect(manager.xor(manager.var(2), manager.var(3)))
        manager.gc((f,))
        young = _young_collections(manager)
        _build_garbage(manager)
        roots = (f,)
        if trigger == "drop":
            roots = ()
        elif trigger == "unprotect":
            manager.unprotect(g)
        manager.gc(roots, compact=trigger == "compact")
        assert young == []
        if trigger == "compact":
            # Compaction renumbers the table: the recorded roots are
            # gone, so the next collection is a full one as well.
            manager.gc(manager.protected_refs())
            assert young == []

    def test_collection_cut_short_falls_back(self):
        manager = _manager()
        f = manager.protect(manager.var(0))
        manager.gc()

        def interrupted(*args):
            raise KeyboardInterrupt

        manager._mark_young = interrupted
        _build_garbage(manager)
        with pytest.raises(KeyboardInterrupt):
            manager.gc()
        del manager._mark_young
        young = _young_collections(manager)
        manager.gc()
        assert young == []
        assert manager.statistics()["live_nodes"] == 2
        manager.validate(f)

    def test_sanitized_roots_index_like_plain_ints(self):
        from repro.analysis.sanitize import SanitizedManager, SanitizedRef

        manager = SanitizedManager()
        manager.ensure_vars(8)
        f = manager.and_(manager.var(0), manager.var(1))
        assert type(f) is SanitizedRef
        manager.gc((f,))
        young = _young_collections(manager)
        g = manager.xor(f, manager.var(4))
        _build_garbage(manager)
        manager.gc((f, g))  # tagged roots, same indices as plain ints
        manager.gc((int(f), int(g)))
        assert len(young) == 2
        assert manager.size(g) == manager.size(int(g))
        manager.validate((f, g))

    def test_checked_manager_revalidates_after_young_sweep(self):
        manager = CheckedManager(check=True)
        manager.ensure_vars(8)
        f = manager.and_(manager.var(0), manager.var(1))
        manager.gc((f,))
        young = _young_collections(manager)
        _build_garbage(manager)
        checks = manager.checks_run
        manager.gc((f,))
        assert len(young) == 1
        assert manager.checks_run == checks + 1
