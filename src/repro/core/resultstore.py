"""Persistent content-addressed store for study-cell results.

The study service (:mod:`repro.service`) answers "hot" cells from it,
and a checkpointed study resumes from it (a resumed cell is a store
hit).  That is only sound if the cache key captures *everything* the
measurement depends on, and nothing it doesn't.  This module owns that
key:

* :func:`machine_payload` — the physically meaningful content of a
  :class:`~repro.machine.specs.MachineSpec` as plain JSON types
  (topology, frequency domain, cache hierarchy, DRAM, energy-model
  coefficients).  The spec's *name* is deliberately excluded: renaming
  a machine does not change a single simulated number, so it must not
  change the key either.
* :func:`machine_fingerprint` — sha256 over the canonical JSON of that
  payload.  Canonical means ``sort_keys`` plus fixed separators, so
  dict insertion order and formatting whitespace cannot perturb the
  digest (``tests/service/test_store_keys.py`` proves both properties).
* :func:`algorithm_fingerprint` / :func:`engine_fingerprint` — the
  algorithm's registry name, class and every constructor parameter read
  back from the instance; the event kernel and ``max_trace_segments``
  of a plain :class:`~repro.sim.engine.Engine`.  Whatever cannot be
  read back (or a stateful wrapper such as
  :class:`~repro.sim.noise.NoisyEngine`) raises instead of being left
  out of the key.
* :func:`cell_key` — sha256 over those three fingerprints plus n,
  threads, seed, the ``verified`` flag (whether the cell replayed and
  checked its numerics — the measurement itself never depends on it),
  :data:`~repro.sim.engine.ENGINE_VERSION` and :data:`STORE_VERSION`.
  Bumping either version constant orphans every stored entry, which is
  exactly what a semantic change to the simulator must do.

:class:`ResultStore` is the durable side: one file per key under a
two-level fan-out directory (``root/ab/<key>.json``), each entry a
single JSON document carrying the cell coordinates plus the pickled
:class:`~repro.sim.measurement.RunMeasurement` (base64 — pickling is
the only encoding that round-trips its floats and numpy arrays
bit-for-bit) and a sha256 checksum of the payload.  Writes go through
a temp file that is fsynced before ``os.replace``, so a crash can
never leave a half-written entry under its final name; reads verify
the checksum and unpickle, and *any* defect — truncation, bit rot,
schema drift — degrades to a miss (the caller recomputes and
overwrites) with the ``store.corrupt`` counter bumped, never to a
wrong answer.  A small in-memory LRU fronts the files so hot-cell
lookups stay far under the service's 1 ms budget.
"""

from __future__ import annotations

import base64
import hashlib
import inspect
import json
import os
import pickle
from collections import OrderedDict
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping

from ..machine.specs import MachineSpec
from ..observability.metrics import counter
from ..runtime.scheduler import default_engine
from ..sim import engine as sim_engine
from ..util.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..algorithms.base import MatmulAlgorithm
    from ..sim.measurement import RunMeasurement

__all__ = [
    "STORE_VERSION",
    "ResultStore",
    "algorithm_fingerprint",
    "canonical_json",
    "cell_key",
    "engine_fingerprint",
    "machine_fingerprint",
    "machine_payload",
]

#: Schema version of stored entries *and* a component of every cell key;
#: bump on any format or key-derivation change so stale entries become
#: unreachable instead of silently misread.  4: power traces pickle as
#: columns, not ``PowerSegment`` lists.  3: one ``verified`` flag
#: replaces ``execute``/``verify``; v2 entries of executed cells at
#: non-power-of-two n measured an ``unpad`` task that no longer exists.
STORE_VERSION = 4

_STORE_HITS = counter(
    "store.hits", description="result-store lookups answered from a stored entry"
)
_STORE_MISSES = counter(
    "store.misses", description="result-store lookups with no stored entry"
)
_STORE_CORRUPT = counter(
    "store.corrupt",
    description="stored entries rejected (bad checksum/JSON/pickle) and "
    "degraded to a miss",
)
_STORE_PUTS = counter(
    "store.puts", description="cell results persisted to the result store"
)


# ---------------------------------------------------------------------------
# content addressing


def canonical_json(payload: object) -> str:
    """Canonical JSON text of *payload*: sorted keys, no whitespace.

    Only JSON-native types are accepted — an object that would need a
    lossy ``str()`` fallback raises ``TypeError`` instead of silently
    hashing its ``repr`` (which can embed memory addresses and would
    make keys irreproducible across processes).
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def machine_payload(machine: MachineSpec) -> dict:
    """The physically meaningful content of *machine* as plain JSON types.

    Every field of the nested spec dataclasses is included *except* the
    display ``name``: two specs that simulate identically must map to
    the same payload, and the name is the one field with no physical
    effect.
    """
    payload = asdict(machine)
    payload.pop("name", None)
    return payload


def _sha256(payload: object) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def machine_fingerprint(machine: MachineSpec) -> str:
    """sha256 hex digest of the canonical machine payload."""
    return _sha256(machine_payload(machine))


def algorithm_fingerprint(alg: "MatmulAlgorithm") -> str:
    """sha256 over the algorithm's registry name, class and every
    ``__init__`` parameter read back from the instance under the same
    name (a machine contributes its :func:`machine_fingerprint`).

    A parameter that is not readable, ``*args``/``**kwargs``, or a value
    without a canonical JSON form raises :class:`ConfigurationError`:
    skipping it would let differently configured instances share cells.
    """
    cls = type(alg)
    params: dict[str, object] = {}
    for name, param in list(inspect.signature(cls.__init__).parameters.items())[1:]:
        value = getattr(alg, name, param)  # the Parameter itself marks "absent"
        if value is param or param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
            raise ConfigurationError(
                f"cannot key algorithm {alg.name!r}: {cls.__qualname__}"
                f".__init__ parameter {param} is not readable back"
            )
        params[name] = (
            machine_fingerprint(value) if isinstance(value, MachineSpec) else value
        )
    try:
        return _sha256(
            {"name": alg.name, "class": f"{cls.__module__}.{cls.__qualname__}",
             "params": params}
        )
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"cannot key algorithm {alg.name!r}: {params!r} has no canonical "
            f"JSON form ({exc})"
        ) from None


def engine_fingerprint(engine: "sim_engine.Engine") -> str:
    """sha256 over a plain engine's event kernel (``None`` resolves via
    :func:`~repro.runtime.scheduler.default_engine`, as a run would) and
    ``max_trace_segments``.  Any other engine type — e.g. a
    :class:`~repro.sim.noise.NoisyEngine`, whose noise depends on the
    runs before it — is a :class:`ConfigurationError`."""
    if type(engine) is not sim_engine.Engine:
        raise ConfigurationError(
            f"cannot key cells simulated by {type(engine).__name__}: only a "
            f"plain Engine is described by its kernel and max_trace_segments"
        )
    return _sha256(
        {"kernel": str(engine.engine or default_engine()),
         "max_trace_segments": int(engine.max_trace_segments)}
    )


def cell_key(
    machine: "MachineSpec | str",
    algorithm: "MatmulAlgorithm | str",
    n: int,
    threads: int,
    *,
    seed: int,
    verified: bool,
    engine: "sim_engine.Engine | str",
) -> str:
    """Content address of one study cell.

    *machine*, *algorithm* and *engine* may each be the object or its
    precomputed fingerprint; the service and the study driver compute
    those once, so a per-cell key is one small hash.  *verified* is
    keyed so a verifying run is never served cells nobody verified.
    """
    if not isinstance(machine, str):
        machine = machine_fingerprint(machine)
    if not isinstance(algorithm, str):
        algorithm = algorithm_fingerprint(algorithm)
    if not isinstance(engine, str):
        engine = engine_fingerprint(engine)
    return _sha256(
        {
            "machine": machine,
            "algorithm": algorithm,
            "engine": engine,
            "n": int(n),
            "threads": int(threads),
            "seed": int(seed),
            "verified": bool(verified),
            "engine_version": sim_engine.ENGINE_VERSION,
            "store_version": STORE_VERSION,
        }
    )


# ---------------------------------------------------------------------------
# the durable store


def _encode(measurement: "RunMeasurement") -> str:
    return base64.b64encode(
        pickle.dumps(measurement, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def _checksum(payload: str) -> str:
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


class ResultStore:
    """Durable content-addressed map ``cell key -> RunMeasurement``.

    ``get`` returns ``None`` on a miss *or* on a corrupt entry (counted
    separately) — the caller's recovery is identical: recompute and
    ``put``, which atomically replaces whatever was on disk.  Entries
    are immutable by construction (same key ⇒ same bytes), so the LRU
    front cache never needs invalidation.

    *root* is a directory, created on first use; an existing file there
    (e.g. an old JSONL journal) is a :class:`ConfigurationError`.
    """

    def __init__(self, root: "str | Path", *, cache_entries: int = 1024):
        if cache_entries < 0:
            raise ConfigurationError(
                f"cache_entries must be >= 0, got {cache_entries}"
            )
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise ConfigurationError(
                f"{self.root} is a file; checkpoints are now store directories"
            )
        self.root.mkdir(parents=True, exist_ok=True)
        self._cache_entries = cache_entries
        self._cache: "OrderedDict[str, RunMeasurement]" = OrderedDict()

    # ---- paths ---------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # ---- reads ---------------------------------------------------------

    def get(self, key: str) -> "RunMeasurement | None":
        """The stored measurement for *key*, or ``None``.

        Hot keys come from the in-memory LRU; cold ones are read,
        checksum-verified and unpickled.  Every defect is a counted
        miss, never an exception — a service must not die because one
        cache file rotted.
        """
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            _STORE_HITS.add()
            return cached
        path = self._path(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            _STORE_MISSES.add()
            return None
        try:
            entry = json.loads(raw)
            if entry.get("kind") != "repro-cell-result":
                raise ValueError("not a cell-result entry")
            if entry.get("version") != STORE_VERSION:
                raise ValueError(f"store version {entry.get('version')!r}")
            if entry.get("key") != key:
                raise ValueError("entry key does not match its address")
            payload = entry["payload"]
            if _checksum(payload) != entry.get("checksum"):
                raise ValueError("payload checksum mismatch")
            measurement = pickle.loads(base64.b64decode(payload.encode("ascii")))
        except Exception:
            # Truncated JSON, flipped bits, schema drift, un-unpicklable
            # payload: degrade to recompute, loudly counted.
            _STORE_CORRUPT.add()
            return None
        self._remember(key, measurement)
        _STORE_HITS.add()
        return measurement

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def keys(self) -> Iterator[str]:
        """Every key currently on disk."""
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.json")):
                yield path.stem

    # ---- writes --------------------------------------------------------

    def put(
        self,
        key: str,
        measurement: "RunMeasurement",
        meta: Mapping[str, object] | None = None,
    ) -> Path:
        """Persist *measurement* under *key*: write a temp file, fsync
        it, then ``os.replace`` it over the final name — after a crash
        the entry is either absent or complete, never torn.

        *meta* rides along for humans (`repro query` shows cell
        coordinates without unpickling payloads); it is not part of the
        address and never read back into measurements.
        """
        payload = _encode(measurement)
        entry = {
            "kind": "repro-cell-result",
            "version": STORE_VERSION,
            "key": key,
            "checksum": _checksum(payload),
            "payload": payload,
            **({"meta": dict(meta)} if meta else {}),
        }
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{key}.tmp.{os.getpid()}"
        with tmp.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, sort_keys=True))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self._remember(key, measurement)
        _STORE_PUTS.add()
        return path

    # ---- LRU front cache ----------------------------------------------

    def _remember(self, key: str, measurement: "RunMeasurement") -> None:
        if self._cache_entries == 0:
            return
        self._cache[key] = measurement
        self._cache.move_to_end(key)
        while len(self._cache) > self._cache_entries:
            self._cache.popitem(last=False)
