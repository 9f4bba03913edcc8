"""Study serialization."""

import json

import pytest

from repro.core.study import Study
from repro.reporting.emit import (
    study_to_dict,
    study_to_markdown,
    write_study_csv,
    write_study_json,
)


@pytest.fixture(scope="module")
def study(machine):
    return Study(
        machine, sizes=(128,), threads=(1, 2), execute_max_n=0, verify=False
    ).run().result


def test_dict_structure(study):
    d = study_to_dict(study)
    assert d["machine"] == "haswell-e3-1225"
    assert len(d["runs"]) == 6
    run = d["runs"][0]
    assert {"algorithm", "n", "threads", "elapsed_s", "avg_package_w"} <= set(run)
    assert set(d["table2_avg_slowdown"]) == {"strassen", "caps"}


def test_dict_json_serializable(study):
    json.dumps(study_to_dict(study))


def test_markdown_contains_three_tables(study):
    md = study_to_markdown(study)
    assert md.count("## Table") == 3
    assert "OpenBLAS" in md


def test_write_csv(study, tmp_path):
    path = write_study_csv(study, tmp_path / "runs.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("algorithm,")
    assert len(lines) == 7  # header + 6 runs


def test_write_json(study, tmp_path):
    path = write_study_json(study, tmp_path / "study.json")
    data = json.loads(path.read_text())
    assert data["sizes"] == [128]


class TestFrozenStudy:
    def test_roundtrip_matches_live_study(self, study, tmp_path):
        from repro.reporting.emit import load_study_json, write_study_json

        path = write_study_json(study, tmp_path / "s.json")
        frozen = load_study_json(path)
        assert frozen.machine_name == study.machine.name
        for alg in study.algorithm_names:
            for n in study.config.sizes:
                for p in study.config.threads:
                    assert frozen.time_s(alg, n, p) == pytest.approx(
                        study.time_s(alg, n, p)
                    )
                    assert frozen.ep(alg, n, p) == pytest.approx(study.ep(alg, n, p))
            assert frozen.avg_slowdown(alg) == pytest.approx(study.avg_slowdown(alg))

    def test_scaling_from_dump(self, study, tmp_path):
        from repro.reporting.emit import load_study_json, write_study_json

        frozen = load_study_json(write_study_json(study, tmp_path / "s.json"))
        pts = frozen.scaling_s("openblas", 128)
        assert pts[0] == (1, pytest.approx(1.0))

    def test_missing_keys_rejected(self):
        from repro.reporting.emit import FrozenStudy
        from repro.util.errors import ValidationError

        with pytest.raises(ValidationError):
            FrozenStudy({"machine": "x"})

    def test_missing_run_rejected(self, study, tmp_path):
        from repro.reporting.emit import load_study_json, write_study_json
        from repro.util.errors import ValidationError

        frozen = load_study_json(write_study_json(study, tmp_path / "s.json"))
        with pytest.raises(ValidationError):
            frozen.time_s("openblas", 9999, 1)


@pytest.fixture(scope="module")
def measured(machine):
    """One cost-only run's measurements, re-read under each definition."""
    return Study(
        machine, sizes=(256,), threads=(1, 2), execute_max_n=0, verify=False
    ).run().result


@pytest.mark.parametrize("convention", ["power", "energy"])
@pytest.mark.parametrize("plane", ["PACKAGE", "PP0", "DRAM"])
def test_dump_answers_the_live_ep_for_every_definition(measured, plane, convention):
    """A dumped-and-reloaded study answers the EP, power and scaling of
    the live study it came from, whatever its plane and convention."""
    from dataclasses import replace

    from repro.power.planes import Plane
    from repro.reporting.emit import FrozenStudy

    config = replace(measured.config, plane=Plane(plane), convention=convention)
    live = replace(measured, config=config)
    frozen = FrozenStudy(json.loads(json.dumps(study_to_dict(live))))
    assert (frozen.plane, frozen.convention) == (Plane(plane), convention)
    assert frozen.definition_recorded
    for alg in live.algorithm_names:
        for p in config.threads:
            assert frozen.ep(alg, 256, p) == live.ep(alg, 256, p), (alg, p)
            assert frozen.power_w(alg, 256, p) == live.power_w(alg, 256, p), (alg, p)
        got = frozen.scaling_s(alg, 256)
        want = [(pt.parallelism, pt.s) for pt in live.scaling_curve(alg, 256)]
        assert got == want, alg


def test_dump_without_a_definition_reads_as_the_papers(measured):
    from repro.reporting.emit import FrozenStudy

    data = study_to_dict(measured)
    del data["plane"], data["convention"]
    frozen = FrozenStudy(data)
    assert not frozen.definition_recorded
    for alg in measured.algorithm_names:
        assert frozen.ep(alg, 256, 2) == measured.ep(alg, 256, 2)
