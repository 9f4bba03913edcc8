"""The client side of the study service: requests, cell specs and the
blocking JSON-lines :class:`ServiceClient`.

A :class:`StudyRequest` is what a client asks for — the same
(algorithm × size × threads) grid :class:`~repro.core.study.StudyConfig`
describes, plus the knobs that change simulated numbers (operand seed,
execute bound).  The service never works on requests directly: it
splits them into :class:`CellSpec`\\ s — one per grid point, in the
study's serial (table) order — because cells, not requests, are the
unit of dedup, batching and content addressing.  Two requests that
overlap in 30 cells share 30 computations.

This module is everything ``repro query`` loads: it imports no numpy
and no part of the study stack, so a host without the numeric stack
can query a server that has it.
"""

from __future__ import annotations

import json
import socket
from dataclasses import dataclass
from pathlib import Path

from ..util.errors import ServiceError
from ..util.validation import require_nonempty, require_positive

__all__ = ["CellSpec", "ServiceClient", "StudyRequest"]


@dataclass(frozen=True, order=True)
class CellSpec:
    """One point of the study grid: the unit of dedup and caching.

    ``execute`` mirrors the study's ``n <= execute_max_n`` decision —
    it changes what the cell *does* (a numerics replay + verification
    when the service verifies), so it is part of the spec, and the
    content key records whether the cell was verified, even though the
    simulated timings and energies are identical either way.
    """

    algorithm: str
    n: int
    threads: int
    seed: int = 2015
    execute: bool = False

    def __post_init__(self) -> None:
        require_positive(self.n, "n")
        require_positive(self.threads, "threads")

    def describe(self) -> str:
        return (
            f"{self.algorithm}[n={self.n},p={self.threads},seed={self.seed}"
            f"{',execute' if self.execute else ''}]"
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "CellSpec":
        """Build a cell spec from a JSON-shaped dict (the wire format)."""
        return cls(
            algorithm=str(payload["algorithm"]),
            n=int(payload["n"]),
            threads=int(payload["threads"]),
            seed=int(payload.get("seed", 2015)),
            execute=bool(payload.get("execute", False)),
        )

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "threads": self.threads,
            "seed": self.seed,
            "execute": self.execute,
        }


@dataclass(frozen=True)
class StudyRequest:
    """One client's study grid (the service's query unit).

    ``threads`` defaults to the paper's thread counts,
    :data:`repro.core.study.PAPER_THREADS`, spelled out here so the
    client loads no study code.
    """

    algorithms: tuple[str, ...]
    sizes: tuple[int, ...]
    threads: tuple[int, ...] = (1, 2, 3, 4)
    seed: int = 2015
    execute_max_n: int = 1024

    def __post_init__(self) -> None:
        # Normalise sequences passed as lists so requests hash/compare
        # predictably and JSON round-trips cleanly.
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "sizes", tuple(self.sizes))
        object.__setattr__(self, "threads", tuple(self.threads))
        require_nonempty(self.algorithms, "algorithms")
        require_nonempty(self.sizes, "sizes")
        require_nonempty(self.threads, "threads")
        for n in self.sizes:
            require_positive(n, "size")
        for p in self.threads:
            require_positive(p, "threads")

    def cells(self) -> list[CellSpec]:
        """The grid as cell specs, in the study's serial (table) order."""
        return [
            CellSpec(
                algorithm=alg,
                n=n,
                threads=p,
                seed=self.seed,
                execute=n <= self.execute_max_n,
            )
            for alg in self.algorithms
            for n in self.sizes
            for p in self.threads
        ]

    @classmethod
    def from_dict(cls, payload: dict) -> "StudyRequest":
        """Build a request from a JSON-shaped dict (the wire format)."""
        kwargs = {}
        for name in ("algorithms", "sizes", "threads"):
            if name in payload:
                kwargs[name] = tuple(payload[name])
        for name in ("seed", "execute_max_n"):
            if name in payload:
                kwargs[name] = int(payload[name])
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return {
            "algorithms": list(self.algorithms),
            "sizes": list(self.sizes),
            "threads": list(self.threads),
            "seed": self.seed,
            "execute_max_n": self.execute_max_n,
        }


class ServiceClient:
    """Blocking JSON-lines client for a served socket.

    Deliberately synchronous: the consumers are the CLI and shell-ish
    CI steps, and a blocking socket keeps them dependency-free.
    """

    def __init__(self, path: "str | Path", timeout: float = 300.0):
        self.path = str(path)
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        try:
            self._sock.connect(self.path)
        except OSError as exc:
            self._sock.close()
            raise ServiceError(
                f"cannot connect to service socket {self.path}: {exc}"
            ) from exc
        self._file = self._sock.makefile("rwb")

    def request(self, message: dict) -> dict:
        self._file.write(json.dumps(message).encode() + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ServiceError(f"service at {self.path} closed the connection")
        reply = json.loads(line)
        if not reply.get("ok"):
            raise ServiceError(
                f"service error ({reply.get('kind', 'Error')}): "
                f"{reply.get('error', 'unknown')}"
            )
        return reply

    def ping(self) -> bool:
        return bool(self.request({"op": "ping"}).get("ok"))

    def stats(self) -> dict:
        return self.request({"op": "stats"})["stats"]

    def query(self, request: StudyRequest) -> dict:
        return self.request({"op": "query", "request": request.to_dict()})

    def query_cell(self, spec: CellSpec) -> dict:
        return self.request({"op": "cell", "cell": spec.to_dict()})["cell"]

    def shutdown(self) -> None:
        try:
            self.request({"op": "shutdown"})
        except (ServiceError, OSError):  # pragma: no cover - racy close
            pass

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
