"""Shared-memory arena transport: round-trip, lifecycle, leak safety.

The :mod:`repro.runtime.shm` layer must (a) round-trip an arena through
a named segment bit-for-bit and zero-copy, (b) never strand a
``/dev/shm/repro-arena-*`` segment — normal exit, exceptions,
``KeyboardInterrupt`` and double-close all end clean — and (c) degrade
gracefully (descriptor attach failures are loud and precise, missing
platform support falls back to pickling with a counted warning).
"""

import glob
import pickle

import numpy as np
import pytest

from repro.core.study import EnergyPerformanceStudy, StudyConfig
from repro.runtime import shm as shm_mod
from repro.runtime.arena import TaskArena
from repro.runtime.shm import (
    ArenaDescriptor,
    ArenaPool,
    attach_arena,
    detach_arena,
    shm_available,
)
from repro.runtime.task import TaskGraph
from repro.runtime.cost import TaskCost
from repro.sim.engine import Engine
from repro.util.errors import ConfigurationError, StudyCellError, ValidationError


def _leaked_segments() -> list[str]:
    return glob.glob("/dev/shm/repro-arena-*")


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test in this module must leave /dev/shm clean."""
    before = set(_leaked_segments())
    yield
    leaked = set(_leaked_segments()) - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


def _small_arena(tasks: int = 20) -> TaskArena:
    g = TaskGraph("shm-test")
    for i in range(tasks):
        deps = (i - 1,) if i else ()
        g.add(
            f"t{i % 3}",
            TaskCost(flops=1e6 * (i + 1), bytes_dram=1e3 * i),
            deps=deps,
        )
    return TaskArena.from_graph(g)


def test_round_trip_is_structurally_identical():
    arena = _small_arena()
    with ArenaPool() as pool:
        att = attach_arena(arena.to_shm(pool))
        try:
            assert att.structural_diff(arena) == []
        finally:
            detach_arena(att)


def test_attached_columns_are_read_only_views():
    arena = _small_arena()
    with ArenaPool() as pool:
        att = attach_arena(arena.to_shm(pool))
        try:
            for attr, _ in shm_mod._COLUMN_SCHEMA:
                col = getattr(att, attr)
                assert not col.flags.writeable, attr
                assert not col.flags.owndata, f"{attr} was copied, not viewed"
            with pytest.raises((ValueError, RuntimeError)):
                att.flops[0] = 1.0
        finally:
            detach_arena(att)


def test_descriptor_is_compact_and_picklable():
    arena = _small_arena(200)
    with ArenaPool() as pool:
        desc = arena.to_shm(pool)
        blob = pickle.dumps(desc)
        assert len(blob) < 2048
        assert pickle.loads(blob) == desc


def test_put_deduplicates_by_arena_identity():
    arena = _small_arena()
    with ArenaPool() as pool:
        d1 = arena.to_shm(pool)
        d2 = arena.to_shm(pool)
        assert d1.segment == d2.segment
        assert len(pool) == 1


def test_release_refcounts_and_unlinks_at_zero():
    arena = _small_arena()
    pool = ArenaPool()
    try:
        d1 = pool.put(arena)
        pool.put(arena)  # refcount -> 2
        pool.release(d1)
        assert pool.active_segments() == (d1.segment,)
        pool.release(d1)
        assert pool.active_segments() == ()
        # releasing an already-unlinked descriptor is a no-op
        pool.release(d1)
    finally:
        pool.close()


def test_close_is_idempotent_and_unlinks_everything():
    pool = ArenaPool()
    pool.put(_small_arena())
    pool.put(_small_arena(7))
    assert len(pool) == 2
    pool.close()
    assert len(pool) == 0
    pool.close()  # second close: no-op, no error


def test_unlink_with_live_attachment_keeps_pages_alive():
    """POSIX semantics: the parent may unlink while a reader still maps
    the segment; the reader's view stays valid until it detaches."""
    arena = _small_arena()
    pool = ArenaPool()
    desc = pool.put(arena)
    att = attach_arena(desc)
    pool.close()  # unlink while attached
    try:
        assert att.structural_diff(arena) == []
        assert float(att.flops.sum()) == float(arena.flops.sum())
    finally:
        detach_arena(att)


def test_attach_after_unlink_raises_file_not_found():
    arena = _small_arena()
    pool = ArenaPool()
    desc = pool.put(arena)
    pool.close()
    with pytest.raises(FileNotFoundError):
        attach_arena(desc)


def test_schema_version_mismatch_rejected():
    with pytest.raises(ValidationError, match="schema v99"):
        ArenaDescriptor(
            segment="repro-arena-x",
            arena_name="x",
            names=("t",),
            columns=(),
            nbytes=0,
            schema=99,
        )


def test_detach_is_idempotent_and_releases_columns():
    arena = _small_arena()
    with ArenaPool() as pool:
        att = attach_arena(pool.put(arena))
        detach_arena(att)
        assert not hasattr(att, "flops")  # column views dropped
        detach_arena(att)  # second detach: no-op


def test_exception_inside_pool_context_still_unlinks():
    with pytest.raises(RuntimeError, match="boom"):
        with ArenaPool() as pool:
            pool.put(_small_arena())
            raise RuntimeError("boom")


def test_keyboard_interrupt_between_put_and_close_is_recoverable():
    """The study driver wraps pool usage in try/finally, so a Ctrl-C
    mid-sweep still reaches ``close`` — simulate exactly that contract."""
    pool = ArenaPool()
    try:
        pool.put(_small_arena())
        with pytest.raises(KeyboardInterrupt):
            try:
                raise KeyboardInterrupt
            finally:
                pool.close()
    finally:
        pool.close()
    assert len(pool) == 0


def test_shm_available_here():
    ok, reason = shm_available()
    assert ok, reason


def test_shm_available_rejects_absurd_sizes():
    ok, reason = shm_available(min_bytes=1 << 62)
    assert not ok
    assert "too small" in reason


def test_record_fallback_warns_once_and_counts(monkeypatch):
    monkeypatch.setattr(shm_mod, "_fallback_warned", False)
    before = shm_mod._SHM_FALLBACKS.value
    with pytest.warns(RuntimeWarning, match="falling back to pickling"):
        shm_mod.record_fallback("test reason")
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a second warning would raise
        shm_mod.record_fallback("test reason again")
    assert shm_mod._SHM_FALLBACKS.value == before + 2


def test_reset_fallback_warning_rearms_the_latch():
    """Regression: the warn-once latch is process-global state.  Before
    the reset hook existed, one early fallback silenced the warning for
    every later study in the process (and leaked between tests);
    reset_fallback_warning() must re-arm it without touching the
    counter."""
    before = shm_mod._SHM_FALLBACKS.value
    with pytest.warns(RuntimeWarning, match="falling back to pickling"):
        shm_mod.record_fallback("first unit of work")
    assert shm_mod._fallback_warned is True
    shm_mod.reset_fallback_warning()
    assert shm_mod._fallback_warned is False
    with pytest.warns(RuntimeWarning, match="falling back to pickling"):
        shm_mod.record_fallback("next unit of work")
    assert shm_mod._SHM_FALLBACKS.value == before + 2


def test_auto_transport_falls_back_when_unavailable(machine, monkeypatch):
    """transport='auto' on a host without shared memory must run the
    pickling path (warning once, counting the fallback) and still
    produce the full matrix."""
    monkeypatch.setattr(
        shm_mod, "shm_available", lambda min_bytes=0: (False, "forced off")
    )
    monkeypatch.setattr(shm_mod, "_fallback_warned", False)
    cfg = StudyConfig(sizes=(256,), threads=(1, 2), execute_max_n=0, verify=False)
    study = EnergyPerformanceStudy(
        machine, config=cfg, _engine=Engine(machine, engine="fast")
    )
    with pytest.warns(RuntimeWarning, match="forced off"):
        result = study._run(2, transport="auto")
    assert len(result.runs) == 3 * 1 * 2


def test_forced_shm_transport_errors_when_unavailable(machine, monkeypatch):
    monkeypatch.setattr(
        shm_mod, "shm_available", lambda min_bytes=0: (False, "forced off")
    )
    cfg = StudyConfig(sizes=(256,), threads=(1,), execute_max_n=0, verify=False)
    study = EnergyPerformanceStudy(
        machine, config=cfg, _engine=Engine(machine, engine="fast")
    )
    with pytest.raises(ConfigurationError, match="forced off"):
        study._run(2, transport="shm")


def test_unknown_transport_rejected(machine):
    cfg = StudyConfig(sizes=(256,), threads=(1,), execute_max_n=0, verify=False)
    study = EnergyPerformanceStudy(machine, config=cfg)
    with pytest.raises(ConfigurationError, match="carrier-pigeon"):
        study._run(2, transport="carrier-pigeon")


def test_stale_descriptor_in_cell_raises_study_cell_error(machine):
    """A worker whose segment vanished (unlinked early) must surface a
    StudyCellError carrying the cell coordinates, not a bare
    FileNotFoundError — exercised in-process through _run_cell."""
    from repro.algorithms.registry import make_algorithm
    from repro.core.study import _ShmBuild, _run_cell

    arena = _small_arena()
    pool = ArenaPool()
    desc = pool.put(arena)
    pool.close()  # segment gone; descriptor now stale
    alg = make_algorithm("strassen", machine)
    payload = (
        Engine(machine, engine="fast"),
        alg,
        2048,
        3,
        2015,
        False,
        _ShmBuild(descriptor=desc, n=2048, variant="winograd", cutoff=64),
    )
    with pytest.raises(StudyCellError) as exc_info:
        _run_cell(payload)
    err = exc_info.value
    assert (err.algorithm, err.size, err.threads) == (alg.name, 2048, 3)
    assert isinstance(err.__cause__, FileNotFoundError)


def test_pickling_attached_arena_deep_copies():
    """An shm-attached arena must survive pickling (the descriptor's
    __getstate__ drops the handle and copies the columns out)."""
    arena = _small_arena()
    with ArenaPool() as pool:
        att = attach_arena(arena.to_shm(pool))
        try:
            clone = pickle.loads(pickle.dumps(att))
        finally:
            detach_arena(att)
    assert clone.structural_diff(arena) == []
    assert getattr(clone, "_shm", None) is None
    assert clone.flops.flags.owndata
