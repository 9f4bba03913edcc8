"""The benchmark's layer table (``perf/layers.py``) wraps entry points
that exist: a renamed or moved one would silently turn its per-layer
metrics into ``null``."""

import importlib.util
from pathlib import Path

from repro.core.study import Study


def _layers_module():
    path = Path(__file__).resolve().parents[1] / "perf" / "layers.py"
    spec = importlib.util.spec_from_file_location("perf_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_wraps_a_live_entry_point():
    layers = _layers_module()
    driver = vars(Study)["run"]
    handle = layers.install(layers.Recorder())
    try:
        assert handle.missing == set()
        # core.driver times the one study driver.
        assert vars(Study)["run"].__wrapped__ is driver
    finally:
        handle.restore()
    assert vars(Study)["run"] is driver
