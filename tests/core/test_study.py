"""The study driver on a reduced matrix."""

import pytest

from repro.core.study import PAPER_SIZES, PAPER_THREADS, Study, StudyConfig
from repro.util.errors import ConfigurationError, ValidationError


@pytest.fixture(scope="module")
def small_result(machine):
    study = Study(machine, sizes=(128, 256), threads=(1, 2, 4), execute_max_n=128)
    return study.run().result


def test_paper_matrix_constants():
    assert PAPER_SIZES == (512, 1024, 2048, 4096)
    assert PAPER_THREADS == (1, 2, 3, 4)


def test_all_runs_recorded(small_result):
    assert len(small_result.runs) == 3 * 2 * 3  # algs x sizes x threads


def test_baseline_is_fastest_everywhere(small_result):
    """Paper §VI-B: OpenBLAS wins at every tested configuration."""
    for n in small_result.config.sizes:
        for p in small_result.config.threads:
            for alg in ("strassen", "caps"):
                assert small_result.slowdown(alg, n, p) > 1.0


def test_slowdown_baseline_is_one(small_result):
    assert small_result.slowdown("openblas", 128, 1) == 1.0


def test_avg_slowdown_consistency(small_result):
    by_size = small_result.avg_slowdown_by_size("strassen")
    assert small_result.avg_slowdown("strassen") == pytest.approx(
        sum(by_size.values()) / len(by_size)
    )


def test_power_grows_with_threads(small_result):
    for alg in small_result.algorithm_names:
        watts = small_result.avg_power_by_threads(alg)
        values = [watts[p] for p in sorted(watts)]
        assert values == sorted(values)


def test_ep_falls_with_problem_size(small_result):
    """Table IV: EP = W/T plummets as T grows with n^3."""
    for alg in small_result.algorithm_names:
        by_size = small_result.avg_ep_by_size(alg)
        assert by_size[128] > by_size[256]


def test_scaling_curve_starts_at_one(small_result):
    pts = small_result.scaling_curve("openblas", 256)
    assert pts[0].s == pytest.approx(1.0)
    assert pts[0].parallelism == 1


def test_speedup(small_result):
    assert small_result.speedup("openblas", 256, 1) == 1.0
    assert small_result.speedup("openblas", 256, 4) > 1.5


def test_missing_run_raises(small_result):
    with pytest.raises(ValidationError):
        small_result.measurement("openblas", 9999, 1)


def test_verification_runs_for_executed_sizes(machine):
    study = Study(machine, sizes=(64,), threads=(2,), execute_max_n=64, verify=True)
    result = study.run().result
    assert result.measurement("strassen", 64, 2).flops > 0


def test_unknown_baseline_rejected(machine):
    with pytest.raises(ConfigurationError):
        Study(machine, baseline="mkl")


def test_duplicate_algorithms_rejected(machine):
    from repro.algorithms import BlockedGemm

    with pytest.raises(ConfigurationError):
        Study(machine, algorithms=[BlockedGemm(machine), BlockedGemm(machine)])


def test_empty_algorithm_set_rejected(machine):
    with pytest.raises(ConfigurationError, match="at least one algorithm"):
        Study(machine, algorithms=[])


def test_config_validation():
    with pytest.raises(ValidationError):
        StudyConfig(sizes=())
    with pytest.raises(ValidationError):
        StudyConfig(threads=(0,))


def test_peak_and_min_power(small_result):
    for alg in small_result.algorithm_names:
        assert small_result.peak_power_w(alg) >= small_result.min_power_w(alg)


class TestPowerPlanes:
    """The paper reads PACKAGE and PP0 (§V-C); both must be consistent."""

    def test_pp0_below_package_everywhere(self, small_result):
        from repro.power.planes import Plane

        for (alg, n, p) in small_result.runs:
            pp0 = small_result.power_w(alg, n, p, Plane.PP0)
            pkg = small_result.power_w(alg, n, p, Plane.PACKAGE)
            assert 0 < pp0 < pkg

    def test_compute_dense_kernel_has_higher_pp0_share(self, small_result):
        """Blocked DGEMM burns its watts in the cores; the Strassen
        family's additions push more of theirs through the uncore."""
        n, p = 256, 4
        assert small_result.pp0_fraction("openblas", n, p) > small_result.pp0_fraction(
            "strassen", n, p
        )
