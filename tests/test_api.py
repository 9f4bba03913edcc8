"""The ``repro.api`` facade."""

import pickle

import pytest

from repro.api import RunOptions, Study, StudyRun
from repro.core.study import StudyConfig
from repro.sim.engine import Engine
from repro.util.errors import ConfigurationError

CFG = dict(sizes=(128,), threads=(1, 2), execute_max_n=0, verify=False)


class TestRunOptions:
    def test_defaults(self):
        opts = RunOptions()
        assert opts.engine is None  # the platform picks at run time
        assert opts.parallel is None
        assert opts.trace is False

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            RunOptions(engine="warp")

    def test_negative_parallel_rejected(self):
        with pytest.raises(ConfigurationError):
            RunOptions(parallel=-1)

    def test_engine_instance_accepted(self, machine):
        opts = RunOptions(engine=Engine(machine))
        assert isinstance(opts.engine, Engine)

    def test_run_with_checkpoint_and_resume(self, machine, tmp_path):
        """The facade plumbs the store through to the driver: a rerun
        against it serves every cell and reproduces the result exactly."""
        store = tmp_path / "store"
        first = Study(machine, **CFG).run(RunOptions(store=store))
        assert store.is_dir()
        resumed = Study(machine, **CFG).run(RunOptions(store=store))
        assert list(first.result.runs) == list(resumed.result.runs)
        for key in first.result.runs:
            a, b = first.result.runs[key], resumed.result.runs[key]
            assert a.elapsed_s == b.elapsed_s, key
            assert a.energy.package == b.energy.package, key

    def test_parallel_matches_serial(self, machine):
        serial = Study(machine, **CFG).run(RunOptions())
        par = Study(machine, **CFG).run(RunOptions(parallel=2))
        assert list(serial.result.runs) == list(par.result.runs)
        for key in serial.result.runs:
            a, b = serial.result.runs[key], par.result.runs[key]
            assert a.elapsed_s == b.elapsed_s, key
            assert a.energy.package == b.energy.package, key


class TestStudy:
    def test_defaults_to_paper_platform_and_matrix(self):
        study = Study()
        assert study.machine.name == "haswell-e3-1225"
        assert study.config == StudyConfig()

    def test_kwargs_override_config(self, machine):
        study = Study(machine, **CFG)
        assert study.config.sizes == (128,)
        assert study.config.execute_max_n == 0
        assert study.config.verify is False

    def test_config_object_plus_overrides(self, machine):
        study = Study(machine, config=StudyConfig(seed=7), sizes=(64,))
        assert study.config.seed == 7
        assert study.config.sizes == (64,)

    def test_run_returns_studyrun(self, machine):
        run = Study(machine, **CFG).run()
        assert isinstance(run, StudyRun)
        assert len(run.result.runs) == 6
        assert not run.traced
        assert run.tracer is None

    def test_run_options_hold_only_per_run_policy(self):
        """The matrix (execute bound, verification) is the study's
        configuration; a run's options cannot override it."""
        import dataclasses

        fields = [f.name for f in dataclasses.fields(RunOptions)]
        assert fields == ["engine", "parallel", "trace", "store"]
        with pytest.raises(TypeError):
            RunOptions(execute_max_n=0)

    def test_untraced_run_rejects_trace_accessors(self, machine):
        run = Study(machine, **CFG).run()
        with pytest.raises(ConfigurationError):
            run.write_trace("nope.json")
        with pytest.raises(ConfigurationError):
            run.phase_summary()
        with pytest.raises(ConfigurationError):
            run.metrics_summary()

    def test_engine_choice_does_not_change_results(self, machine):
        fast = Study(machine, **CFG).run(RunOptions(engine="fast"))
        ref = Study(machine, **CFG).run(RunOptions(engine="reference"))
        for key in fast.result.runs:
            f = fast.result.runs[key]
            r = ref.result.runs[key]
            assert f.elapsed_s == pytest.approx(r.elapsed_s, rel=1e-9)
            assert f.energy.package == pytest.approx(r.energy.package, rel=1e-9)

    def test_config_object_matches_keywords(self, machine):
        by_keywords = Study(machine, **CFG).run().result
        by_config = Study(machine, config=StudyConfig(**CFG)).run().result
        assert list(by_keywords.runs) == list(by_config.runs)
        for key in by_keywords.runs:
            a, b = by_keywords.runs[key], by_config.runs[key]
            assert a.elapsed_s == b.elapsed_s, key
            assert a.energy.package == b.energy.package, key


class TestTracedFacade:
    def test_trace_true_populates_run(self, machine):
        run = Study(machine, **CFG).run(RunOptions(trace=True))
        assert run.traced
        assert run.wall_s > 0.0
        assert len(run.tracer.find("cell")) == 6
        assert run.metrics  # at least the lowering counters moved
        assert "phase" in run.phase_summary().to_ascii()
        assert "metric" in run.metrics_summary().to_ascii()

    def test_trace_path_writes_file_with_meta(self, machine, tmp_path):
        from repro.observability.export import read_trace_json, validate_chrome_trace

        out = tmp_path / "trace.json"
        run = Study(machine, **CFG).run(RunOptions(trace=out))
        assert run.trace_path == out
        data = read_trace_json(out)
        assert validate_chrome_trace(data) == []
        meta = data["otherData"]["meta"]
        assert meta["command"] == "repro.api.Study.run"
        assert meta["parallel"] == 0
        assert meta["wall_s"] == pytest.approx(run.wall_s)

    def test_facade_never_warns(self, machine, recwarn):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Study(machine, **CFG).run(RunOptions(parallel=1, trace=True))


class TestDeprecationShims:
    def test_plain_usage_does_not_warn(self, machine, recwarn):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Study(machine, config=StudyConfig(**CFG)).run()


class TestAvailableEngines:
    def test_probe_covers_the_registry(self):
        from repro.api import available_engines

        probes = available_engines()
        assert set(probes) == {"reference", "fast", "compiled"}
        assert probes["reference"] == (True, "scalar oracle (pure Python)")
        assert probes["fast"] == (True, "vectorized numpy kernel")
        ok, detail = probes["compiled"]
        assert isinstance(ok, bool) and detail

    def test_compiled_probe_honours_toolchain_override(self, monkeypatch):
        from repro.api import available_engines

        monkeypatch.setenv("REPRO_COMPILED_TOOLCHAIN", "none")
        ok, detail = available_engines()["compiled"]
        assert not ok
        assert "REPRO_COMPILED_TOOLCHAIN=none" in detail

    def test_run_options_accept_compiled(self):
        assert RunOptions(engine="compiled").engine == "compiled"

    def test_default_study_runs_compiled_bit_identical_to_fast(self, machine):
        """On a toolchain host a bare study picks ``compiled``: no
        fallback, every ``schedule`` span names it, and every cell is
        bit-identical to the same study pinned to ``fast``."""
        from repro.runtime import compiledpath as cp

        if not cp.compiled_available()[0]:
            pytest.skip("compiled engine unavailable")
        study = Study(machine, sizes=(128, 256), threads=(1, 2))
        before = cp._COMPILED_FALLBACKS.value
        default = study.run(RunOptions(trace=True))
        assert cp._COMPILED_FALLBACKS.value == before
        schedules = default.tracer.find("schedule")
        assert schedules
        assert {sp.attrs["engine"] for sp in schedules} == {"compiled"}
        fast = study.run(RunOptions(engine="fast"))
        assert list(default.result.runs) == list(fast.result.runs)
        for key, run in default.result.runs.items():
            assert pickle.dumps(run) == pickle.dumps(fast.result.runs[key]), key

    def test_default_study_without_toolchain_falls_back(self, machine, monkeypatch):
        """Without a toolchain the default degrades to ``fast``: same
        numbers, the fallback counted, while naming ``compiled`` stays
        a :class:`ConfigurationError`."""
        from repro.runtime import compiledpath as cp

        monkeypatch.setenv("REPRO_COMPILED_TOOLCHAIN", "none")
        before = cp._COMPILED_FALLBACKS.value
        with pytest.warns(RuntimeWarning, match="compiled event kernel"):
            default = Study(machine, **CFG).run(RunOptions(trace=True))
        assert cp._COMPILED_FALLBACKS.value > before
        schedules = default.tracer.find("schedule")
        assert {sp.attrs["engine"] for sp in schedules} == {"fast"}
        fast = Study(machine, **CFG).run(RunOptions(engine="fast"))
        for key, run in default.result.runs.items():
            assert pickle.dumps(run) == pickle.dumps(fast.result.runs[key]), key
        with pytest.raises(ConfigurationError, match="engine 'compiled'"):
            Study(machine, **CFG).run(RunOptions(engine="compiled"))

    def test_compiled_study_matches_fast(self, machine):
        from repro.runtime.compiledpath import compiled_available

        if not compiled_available()[0]:
            pytest.skip("compiled engine unavailable")
        fast = Study(machine, **CFG).run(RunOptions(engine="fast"))
        comp = Study(machine, **CFG).run(RunOptions(engine="compiled"))
        for key in fast.result.runs:
            f, c = fast.result.runs[key], comp.result.runs[key]
            assert f.elapsed_s == c.elapsed_s
            assert f.energy.package == c.energy.package
