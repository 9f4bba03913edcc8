"""The ``repro.api`` facade and the deprecation shims it supersedes."""

import pickle

import pytest

from repro.api import RunOptions, Study, StudyRun
from repro.core.study import EnergyPerformanceStudy, StudyConfig
from repro.sim.engine import Engine
from repro.util.errors import ConfigurationError

CFG = dict(sizes=(128,), threads=(1, 2), execute_max_n=0, verify=False)


class TestRunOptions:
    def test_defaults(self):
        opts = RunOptions()
        assert opts.engine == "fast"
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

    def test_transport_default_defers_to_environment(self):
        assert RunOptions().transport is None

    def test_known_transports_accepted(self):
        for transport in ("auto", "shm", "pickle"):
            assert RunOptions(transport=transport).transport == transport

    def test_unknown_transport_rejected(self):
        with pytest.raises(ConfigurationError, match="transport"):
            RunOptions(transport="osmosis")

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

    def test_parallel_transports_match_serial(self, machine):
        serial = Study(machine, **CFG).run(RunOptions())
        for transport in ("shm", "pickle"):
            par = Study(machine, **CFG).run(
                RunOptions(parallel=2, transport=transport)
            )
            for key in serial.result.runs:
                a, b = serial.result.runs[key], par.result.runs[key]
                assert a.elapsed_s == b.elapsed_s, (transport, key)
                assert a.energy.package == b.energy.package, (transport, key)


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

    def test_run_options_execute_overrides(self, machine):
        run = Study(machine, sizes=(128,), threads=(1,), verify=False).run(
            RunOptions(execute_max_n=0)
        )
        assert run.result.measurement("openblas", 128, 1) is not None

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

    def test_facade_matches_legacy_driver(self, machine):
        new = Study(machine, **CFG).run().result
        legacy = EnergyPerformanceStudy(
            machine, config=StudyConfig(**CFG)
        ).run()
        assert set(new.runs) == set(legacy.runs)
        for key in new.runs:
            assert new.runs[key].elapsed_s == legacy.runs[key].elapsed_s
            assert new.runs[key].energy.package == legacy.runs[key].energy.package


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
    def test_engine_kwarg_warns_but_works(self, machine):
        with pytest.warns(DeprecationWarning, match="RunOptions"):
            study = EnergyPerformanceStudy(
                machine, config=StudyConfig(**CFG), engine=Engine(machine)
            )
        assert len(study.run().runs) == 6

    def test_run_parallel_kwarg_warns_but_works(self, machine):
        study = EnergyPerformanceStudy(machine, config=StudyConfig(**CFG))
        with pytest.warns(DeprecationWarning, match="RunOptions"):
            result = study.run(parallel=1)
        assert len(result.runs) == 6

    def test_checkpoint_resume_kwargs_warn_and_delegate(self, machine, tmp_path):
        store = tmp_path / "store"
        for name in ("checkpoint", "resume"):
            with pytest.warns(DeprecationWarning, match=r"RunOptions\(store="):
                opts = RunOptions(**{name: store})
            assert opts.store == store
            run = Study(machine, **CFG).run(opts)
            assert len(run.result.runs) == 6
        assert len(list(store.glob("*/*.json"))) == 6

    def test_avg_power_alias_warns_and_delegates(self, machine):
        result = Study(machine, **CFG).run().result
        with pytest.warns(DeprecationWarning, match="avg_power_w"):
            legacy = result.avg_power("openblas")
        assert legacy == result.avg_power_w("openblas")

    def test_engine_run_execute_warns_and_replays(self, machine):
        from repro.algorithms import StrassenWinograd

        build = StrassenWinograd(machine, cutoff=32, grain=32).build(128, 2)
        with pytest.warns(DeprecationWarning, match=r"Engine\.run\(execute="):
            legacy = Engine(machine).run(build.graph, 2, execute=True)
        assert build.verify().ok  # the closures were replayed
        plain = Engine(machine).run(build.graph, 2)
        assert pickle.dumps(legacy) == pickle.dumps(plain)

    def test_build_cached_execute_warns_and_delegates(self, machine):
        from repro.algorithms import StrassenWinograd

        alg = StrassenWinograd(machine)
        with pytest.warns(DeprecationWarning, match=r"build_cached\(execute="):
            cost_only = alg.build_cached(128, 2, execute=False)
        assert cost_only is alg.build_cached(128, 2)
        with pytest.warns(DeprecationWarning, match=r"build_cached\(execute="):
            executed = alg.build_cached(128, 2, execute=True)
        assert not executed.cost_only

    def test_plain_usage_does_not_warn(self, machine, recwarn):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            EnergyPerformanceStudy(machine, config=StudyConfig(**CFG)).run()


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
