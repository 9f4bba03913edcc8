"""Property-based tests of the content-addressed cell key.

The key (:func:`repro.core.resultstore.cell_key`) is the store's whole
correctness story — for the service and for resumed studies alike: two
cells share a key **iff** they would simulate to the same measurement.
So the key must be *stable* under every representation accident (dict
ordering, JSON whitespace, machine renames, fingerprint-vs-object
calling convention) and must *diverge* whenever any meaningful input
changes — machine, algorithm parameters, engine settings, cell
coordinates, whether the cell was verified — since a collision serves a
wrong answer and an instability wastes the store.  A cell's measurement
never depends on whether it ran numerics, so a numerics run nobody
verified keys exactly like a cost-only one.
"""

import dataclasses
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms.registry import make_algorithm
from repro.core.resultstore import (
    algorithm_fingerprint,
    canonical_json,
    cell_key,
    engine_fingerprint,
    machine_fingerprint,
    machine_payload,
)
from repro.machine.specs import dual_socket_haswell, haswell_e3_1225
from repro.sim.engine import Engine
from repro.testing.generators import gen_machine

ALGORITHMS = ("openblas", "strassen", "strassen-classic", "caps")

cell_args = st.fixed_dictionaries(
    {
        "algorithm": st.sampled_from(ALGORITHMS),
        "n": st.integers(min_value=1, max_value=1 << 14),
        "threads": st.integers(min_value=1, max_value=64),
        "seed": st.integers(min_value=0, max_value=2**31),
        "verified": st.booleans(),
        "engine": st.sampled_from(("fast", "reference")),
        "max_trace_segments": st.integers(min_value=1, max_value=4096),
    }
)


def _objects(machine, a):
    """The algorithm instance and engine *a* describes."""
    alg = make_algorithm(a["algorithm"], machine, **a.get("params", {}))
    engine = Engine(
        machine, engine=a["engine"], max_trace_segments=a["max_trace_segments"]
    )
    return alg, engine


def _key(machine, a, fingerprints=False):
    alg, engine = _objects(machine, a)
    if fingerprints:
        machine = machine_fingerprint(machine)
        alg, engine = algorithm_fingerprint(alg), engine_fingerprint(engine)
    return cell_key(
        machine,
        alg,
        a["n"],
        a["threads"],
        seed=a["seed"],
        verified=a["verified"],
        engine=engine,
    )


# ---------------------------------------------------------------------------
# stability


@given(cell_args, st.integers())
def test_key_is_deterministic_and_convention_independent(args, mseed):
    """Same inputs → same key, whether the caller passes the machine,
    algorithm and engine objects or their precomputed fingerprints (the
    service's hot path)."""
    machine = gen_machine(random.Random(mseed))
    k1 = _key(machine, args)
    k2 = _key(machine, args)
    k3 = _key(machine, args, fingerprints=True)
    assert k1 == k2 == k3
    assert len(k1) == 64 and set(k1) <= set("0123456789abcdef")


@given(cell_args)
def test_key_ignores_machine_name(args):
    """Renaming a spec is not physically meaningful."""
    machine = haswell_e3_1225()
    renamed = dataclasses.replace(machine, name="some other label")
    assert _key(machine, args) == _key(renamed, args)


@given(st.integers())
def test_fingerprint_stable_under_payload_permutation_and_whitespace(mseed):
    """The fingerprint hashes canonical JSON: key order and formatting
    of the underlying dict must not matter."""
    machine = gen_machine(random.Random(mseed))
    payload = machine_payload(machine)
    shuffled_items = list(payload.items())
    random.Random(mseed ^ 0xC0FFEE).shuffle(shuffled_items)
    assert canonical_json(dict(shuffled_items)) == canonical_json(payload)
    # Whitespace/indent choices never reach the hash either: canonical
    # form is the separators-pinned dump, not whatever a pretty-printer
    # produced.
    pretty = json.dumps(payload, indent=2, sort_keys=True)
    assert canonical_json(json.loads(pretty)) == canonical_json(payload)


def test_canonical_json_rejects_unhashable_objects():
    """Objects without a JSON form must raise, not hash their repr
    (reprs carry memory addresses — keys would be unstable across
    processes)."""
    with pytest.raises(TypeError):
        canonical_json({"machine": object()})


# ---------------------------------------------------------------------------
# divergence


@given(cell_args)
def test_key_diverges_when_any_field_changes(args):
    """Flipping any single meaningful field must change the key:
    algorithm, its constructor parameters, n, threads, seed, verified
    flag, event kernel, trace resolution."""
    machine = haswell_e3_1225()
    base = _key(machine, args)
    mutations = {
        "algorithm": next(a for a in ALGORITHMS if a != args["algorithm"]),
        "n": args["n"] + 1,
        "threads": args["threads"] + 1,
        "seed": args["seed"] + 1,
        "verified": not args["verified"],
        "engine": "reference" if args["engine"] == "fast" else "fast",
        "max_trace_segments": args["max_trace_segments"] + 1,
    }
    for field, new_value in mutations.items():
        mutated = {**args, field: new_value}
        assert _key(machine, mutated) != base, field
    # Same registry name, different constructor parameters.
    strassen = {**args, "algorithm": "strassen"}
    for param, value in (("cutoff", 16), ("classic", True), ("odd_strategy", "peel")):
        mutated = {**strassen, "params": {param: value}}
        assert _key(machine, mutated) != _key(machine, strassen), param


@given(cell_args)
def test_key_diverges_across_machines(args):
    assert _key(haswell_e3_1225(), args) != _key(dual_socket_haswell(), args)


@given(st.integers(), st.integers())
def test_fingerprint_separates_distinct_machines(seed_a, seed_b):
    """Random machine pairs: equal payloads iff equal fingerprints."""
    a = gen_machine(random.Random(seed_a))
    b = gen_machine(random.Random(seed_b))
    same_payload = machine_payload(a) == machine_payload(b)
    same_fp = machine_fingerprint(a) == machine_fingerprint(b)
    assert same_payload == same_fp


def test_key_tracks_engine_version(monkeypatch):
    """Bumping ENGINE_VERSION must orphan every cached entry."""
    import repro.sim.engine as engine_mod

    machine = haswell_e3_1225()
    args = dict(algorithm="caps", n=256, threads=4, seed=2015, verified=False,
                engine="fast", max_trace_segments=512)
    before = _key(machine, args)
    monkeypatch.setattr(engine_mod, "ENGINE_VERSION", engine_mod.ENGINE_VERSION + 1)
    assert _key(machine, args) != before


# ---------------------------------------------------------------------------
# the verified flag and the store version


def _study_keys(cfg):
    from repro.core.study import EnergyPerformanceStudy

    study = EnergyPerformanceStudy(haswell_e3_1225(), config=cfg)
    return {
        coords: key for coords, (key, _) in study._cell_records(study._cells()).items()
    }


def test_unverified_numerics_and_cost_only_cells_share_a_key():
    """execute without verify measures exactly what a cost-only cell
    measures, so both are one cell; a verified cell gets its own key."""
    from repro.core.study import StudyConfig

    grid = dict(sizes=(128,), threads=(1, 2))
    cost_only = _study_keys(StudyConfig(**grid, execute_max_n=0, verify=False))
    unverified = _study_keys(StudyConfig(**grid, execute_max_n=128, verify=False))
    no_numerics = _study_keys(StudyConfig(**grid, execute_max_n=0, verify=True))
    verified = _study_keys(StudyConfig(**grid, execute_max_n=128, verify=True))
    assert cost_only == unverified == no_numerics
    assert not set(verified.values()) & set(cost_only.values())


def test_service_keys_verified_cells_apart():
    """The service keys ``execute and verify`` the same way."""
    from repro.service import CellSpec, ServiceConfig, StudyService

    def key(spec, verify):
        service = StudyService(config=ServiceConfig(verify=verify))
        try:
            return service.key_for(spec)
        finally:
            service._executor.close()

    executed = CellSpec("openblas", 64, 1, execute=True)
    cost_only = CellSpec("openblas", 64, 1, execute=False)
    assert key(executed, verify=False) == key(cost_only, verify=False)
    assert key(cost_only, verify=True) == key(cost_only, verify=False)
    assert key(executed, verify=True) != key(cost_only, verify=True)


def test_v2_entry_is_not_served(tmp_path, monkeypatch):
    """A v2 store entry — which may hold an executed cell measured with
    the old ``unpad`` task — is a miss under v3 and later, even at the
    same key."""
    import repro.core.resultstore as resultstore
    from repro.core.resultstore import ResultStore
    from repro.sim.engine import Engine

    current = resultstore.STORE_VERSION
    assert current >= 3
    machine = haswell_e3_1225()
    measurement = Engine(machine).run(
        make_algorithm("openblas", machine).build_cached(64, 1).graph, 1
    )
    key = "ab" + "0" * 62
    monkeypatch.setattr(resultstore, "STORE_VERSION", 2)
    ResultStore(tmp_path).put(key, measurement)
    monkeypatch.setattr(resultstore, "STORE_VERSION", current)
    assert ResultStore(tmp_path).get(key) is None


# ---------------------------------------------------------------------------
# one store, two writers


def _entries(root):
    """Every entry file under *root*, parsed, by key."""
    return {path.stem: json.loads(path.read_text()) for path in root.glob("*/*.json")}


def _query(study, root):
    """``(response, cells computed)`` of a service over *root* asked the
    grid *study* runs."""
    import asyncio

    from repro.observability.metrics import registry
    from repro.service import StudyService

    async def drive():
        async with StudyService(study.machine, store=root) as svc:
            snap = registry().snapshot()
            response = await svc.query(study.request())
            return response, registry().delta_since(snap).get(
                "service.cells_computed", 0
            )

    return asyncio.run(drive())


def test_study_and_service_write_one_store(machine, tmp_path):
    """A store either side wrote answers the other in full, and an entry
    is the same file whichever side wrote it."""
    from repro.api import RunOptions, Study
    from repro.observability.metrics import registry

    study = Study(machine, sizes=(64, 128), threads=(1, 2), execute_max_n=64)
    fresh = study.run().result
    by_study, by_service = tmp_path / "study", tmp_path / "service"

    study.run(RunOptions(store=by_study))
    response, computed = _query(study, by_study)
    assert computed == 0
    assert {cell.source for cell in response.cells} == {"store"}
    assert len(response.cells) == len(fresh.runs)

    response, computed = _query(study, by_service)
    assert computed == len(fresh.runs)
    snap = registry().snapshot()
    resumed = study.run(RunOptions(store=by_service)).result
    assert registry().delta_since(snap).get("study.cells_resumed", 0) == len(
        fresh.runs
    )
    for coords, measurement in fresh.runs.items():
        assert resumed.runs[coords].elapsed_s == measurement.elapsed_s
        assert resumed.runs[coords].energy == measurement.energy

    study_entries, service_entries = _entries(by_study), _entries(by_service)
    assert study_entries.keys() == service_entries.keys()
    for key, entry in study_entries.items():
        assert set(entry["meta"]) == {
            "machine", "algorithm", "n", "threads", "seed", "execute", "engine"
        }
        assert entry["meta"] == service_entries[key]["meta"], key
        assert entry == service_entries[key], key
