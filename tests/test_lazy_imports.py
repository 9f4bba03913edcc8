"""Each command loads only the modules it runs.

Every package ``__init__`` and :mod:`repro.api` resolve their public
names lazily (:mod:`repro._lazy`).  The lazy tables must not rot: each
name resolves to the object its source module defines, and ``dir()``,
star-imports and unknown names behave as on an eager module.  The query
client must stay free of numpy and of the study stack, so a host
without the numeric stack can query a server; that is checked in fresh
interpreters, where ``sys.modules`` starts empty.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import socket
import subprocess
import sys
import textwrap
import threading
import types
from pathlib import Path

import pytest

import repro
from repro._lazy import EXPORTS

SRC = Path(repro.__file__).resolve().parents[1]

#: Every lazy module: the package, its facade and each subpackage.
LAZY_MODULES = ["repro", "repro.api"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


def _python(code: str, *args: str, timeout: float = 60.0) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


#: Runs ``python -m repro ARGS...`` in this interpreter, then prints the
#: loaded ``repro``/``numpy`` modules as the last stderr line.
_RUN_CLI = """
    import json, runpy, sys
    sys.argv = ["repro", *sys.argv[1:]]
    try:
        runpy.run_module("repro", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
    loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("repro", "numpy"))
    print(json.dumps({"rc": code, "modules": loaded}), file=sys.stderr)
"""


def _run_cli(*args: str) -> tuple[subprocess.CompletedProcess, dict]:
    proc = _python(_RUN_CLI, *args)
    return proc, json.loads(proc.stderr.strip().splitlines()[-1])


def test_lazy_modules_cover_every_package():
    for name in LAZY_MODULES:
        importlib.import_module(name)
        assert name in EXPORTS, f"{name} has no lazy export table"


@pytest.mark.parametrize("name", LAZY_MODULES)
def test_every_export_resolves_to_its_source(name):
    module = importlib.import_module(name)
    owners = EXPORTS[name]
    for export in module.__all__:
        value = getattr(module, export)
        if export in owners and owners[export] == name:  # a submodule exported as itself
            assert value is sys.modules[f"{name}.{export}"], export
        elif export in owners:
            source = importlib.import_module(owners[export])
            assert value is getattr(source, export), (export, owners[export])
            if isinstance(value, (type, types.FunctionType)):
                assert value.__module__ == owners[export], (export, value.__module__)
        else:  # defined by the lazy module itself
            assert export in vars(module), export


@pytest.mark.parametrize("name", LAZY_MODULES)
def test_dir_star_import_and_unknown_names(name):
    module = importlib.import_module(name)
    listing = dir(module)
    assert set(module.__all__) <= set(listing), set(module.__all__) - set(listing)
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    for export in module.__all__:
        assert namespace[export] is getattr(module, export), export
    with pytest.raises(AttributeError, match=name.replace(".", r"\.")):
        module.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {name} import no_such_name", {})


def test_submodules_resolve_as_attributes():
    proc = _python("""
        import repro
        assert repro.core.study.Study is repro.Study
        from repro.sparse import spgemm
        import repro.sparse.spgemm
        assert callable(spgemm) and repro.sparse.spgemm is spgemm
        print("ok")
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_import_repro_loads_only_the_package():
    proc = _python("""
        import sys
        import repro
        print(sorted(m for m in sys.modules if m.split(".")[0] in ("repro", "numpy")))
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['repro', 'repro._lazy']"


def test_query_help_loads_no_numpy_and_no_study_stack():
    proc, state = _run_cli("query", "--help")
    assert state["rc"] == 0, proc.stderr
    assert "--socket" in proc.stdout
    assert "numpy" not in state["modules"]
    assert "repro.core" not in state["modules"]


#: A served grid's reply, and the table ``repro query`` prints for it.
_REPLY = {
    "ok": True, "op": "query",
    "request": {"algorithms": ["caps"], "sizes": [256], "threads": [1, 2], "seed": 2015,
                "execute_max_n": 0},
    "sources": {"store": 1, "computed": 1, "inflight": 0},
    "cells": [
        {"algorithm": "caps", "n": 256, "threads": 1, "key": "k1", "source": "store",
         "elapsed_s": 0.012345678901234, "energy_package_j": 1.5, "energy_pp0_j": 1.0,
         "energy_dram_j": 0.25, "avg_power_w": 121.5, "flops": 33554432.0},
        {"algorithm": "caps", "n": 256, "threads": 2, "key": "k2", "source": "computed",
         "elapsed_s": 0.00625, "energy_package_j": 0.875, "energy_pp0_j": 0.5,
         "energy_dram_j": 0.125, "avg_power_w": 140.0, "flops": 33554432.0},
    ],
}
_TABLE = (
    "algorithm  n    threads  time (s)  package J  avg W       source  \n"
) + """\
---------  ---  -------  --------  ---------  ----------  --------
     caps  256        1  0.012346   1.500000  121.500000     store
     caps  256        2  0.006250   0.875000  140.000000  computed
cells: 2 (store 1, computed 1, deduped 0)
"""


def test_query_against_a_stub_socket_loads_no_numpy(tmp_path):
    path = tmp_path / "svc.sock"
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(str(path))
    listener.listen(1)
    listener.settimeout(60.0)
    requests = []

    def answer_once():
        conn, _ = listener.accept()
        with conn, conn.makefile("rwb") as stream:
            requests.append(json.loads(stream.readline()))
            stream.write(json.dumps(_REPLY).encode() + b"\n")
            stream.flush()

    stub = threading.Thread(target=answer_once, daemon=True)
    stub.start()
    try:
        proc, state = _run_cli("query", "--socket", str(path), "--algorithms", "caps",
                               "--sizes", "256", "--threads", "1", "2",
                               "--execute-max-n", "0")
    finally:
        stub.join(timeout=60.0)
        listener.close()
    assert not stub.is_alive()
    assert state["rc"] == 0, proc.stderr
    assert proc.stdout == _TABLE
    assert requests == [{"op": "query", "request": _REPLY["request"]}]
    assert "numpy" not in state["modules"]
    assert "repro.core" not in state["modules"]


def test_serve_loads_its_cell_driver_before_it_listens():
    """``repro serve`` imports the server module before it binds: that
    import must bring the study driver, so the first cold query pays no
    import."""
    proc = _python("""
        import sys
        import repro.service.server
        print("repro.core.study" in sys.modules, "repro.algorithms.registry" in sys.modules)
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True"]


def test_serial_study_loads_no_asyncio_and_no_process_pool():
    proc = _python("""
        import sys
        from repro.api import Study
        Study(sizes=(64,), threads=(1,), execute_max_n=0, verify=False).run()
        print("asyncio" in sys.modules, "concurrent.futures.process" in sys.modules)
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_request_threads_default_to_the_papers():
    from repro.core.study import PAPER_THREADS
    from repro.service.client import StudyRequest

    assert StudyRequest(("caps",), (256,)).threads == PAPER_THREADS


def test_a_compiled_study_loads_no_fast_kernel():
    """The C kernel prices each task at dispatch from the arena's
    columns, so a compiled study never imports the fast kernel or the
    plan bundle it seats from."""
    from repro.runtime.compiledpath import compiled_available

    if not compiled_available()[0]:
        pytest.skip("compiled engine unavailable")
    proc = _python("""
        import sys
        from repro.api import RunOptions, Study
        from repro.machine import haswell_e3_1225
        study = Study(haswell_e3_1225(), sizes=(128,), execute_max_n=0, verify=False)
        study.run(RunOptions(engine="compiled"))
        print(sorted(m for m in sys.modules if m.startswith("repro.runtime.")
                     and m.split(".")[-1] in ("compiledpath", "fastpath", "plans")))
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['repro.runtime.compiledpath']"


def test_network_simulation_loads_no_scheduler_and_no_study():
    """``repro distributed --simulate`` lowers events and runs the
    arena's longest-path pass: the compiled library is loaded without
    the event scheduler, the fast kernel or the study driver."""
    proc, state = _run_cli("distributed", "--simulate", "--alg", "caps-dist",
                           "--n", "1024", "--nodes", "7")
    assert state["rc"] in (0, None), proc.stderr
    assert "caps-dist" in proc.stdout
    for module in ("repro.runtime.scheduler", "repro.runtime.fastpath",
                   "repro.runtime.compiledpath", "repro.core.study"):
        assert module not in state["modules"], module
