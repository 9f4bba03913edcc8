"""Machine specs: the Haswell platform and generic SMPs."""

import pytest

from repro.machine.energy import EnergyModel
from repro.machine.specs import generic_smp, haswell_e3_1225
from repro.util.units import GiB, MiB


def test_haswell_matches_paper_platform():
    m = haswell_e3_1225()
    assert m.cores == 4
    assert m.frequency.frequency_hz == pytest.approx(3.2e9)
    assert m.caches.last_level_capacity == 8 * MiB
    assert m.dram.capacity_bytes == 4 * GiB
    assert m.dram.channels == 1
    assert not m.frequency.power_saving_enabled  # BIOS power saving off


def test_haswell_peak_flops():
    m = haswell_e3_1225()
    assert m.core_peak_flops == pytest.approx(51.2e9)
    assert m.machine_peak_flops == pytest.approx(204.8e9)


def test_compute_to_memory_ratio_is_high():
    # The paper: "relatively high compute-to-memory ratio" — the single
    # DDR3 channel gives ~20 flop per DRAM byte.
    m = haswell_e3_1225()
    assert m.compute_to_memory_ratio() > 15


def test_with_cores():
    m = haswell_e3_1225().with_cores(8)
    assert m.cores == 8
    assert m.machine_peak_flops == pytest.approx(2 * 204.8e9)
    assert haswell_e3_1225().cores == 4


def test_with_energy():
    custom = EnergyModel(package_static_w=42.0)
    m = haswell_e3_1225().with_energy(custom)
    assert m.energy.package_static_w == 42.0


def test_generic_smp():
    m = generic_smp(cores=16, dram_channels=4)
    assert m.cores == 16
    assert m.dram.channels == 4
    assert m.name == "generic-smp-16c"


def test_dvfs_factor_nominal_is_one():
    assert haswell_e3_1225().dvfs_factor == pytest.approx(1.0)


def test_describe_mentions_key_figures():
    text = haswell_e3_1225().describe()
    assert "204.8" in text
    assert "8 MiB" in text
    assert "4 GiB" in text


class TestDualSocket:
    def test_topology(self):
        from repro.machine import dual_socket_haswell

        m = dual_socket_haswell()
        assert m.cores == 8
        assert len(m.topology.sockets) == 2
        assert m.topology.is_symmetric
        assert m.dram.channels == 2

    def test_scaling_study_runs(self):
        """The dual-socket sibling answers the §VIII 'larger platforms'
        question: eight threads on two sockets with two channels."""
        from repro import Study
        from repro.machine import dual_socket_haswell

        m = dual_socket_haswell()
        result = Study(
            m, sizes=(256,), threads=(1, 8), execute_max_n=0, verify=False
        ).run().result
        # Eight threads still scale the baseline well beyond four.
        assert result.speedup("openblas", 256, 8) > 5.0
