"""Unix-socket JSON-lines front door for :class:`StudyService`.

One request per line, one JSON object per line back — the simplest
protocol that lets shell scripts, CI jobs and other processes share a
single warm service (one store, one dedup domain, one worker pool)::

    {"op": "query", "request": {"algorithms": ["caps"], "sizes": [256]}}
    {"op": "cell", "cell": {"algorithm": "caps", "n": 256, "threads": 4}}
    {"op": "stats"}
    {"op": "ping"}
    {"op": "shutdown"}

Responses carry ``{"ok": true, ...}`` or ``{"ok": false, "error": ...}``.
Cell measurements travel as :meth:`CellResult.summary` scalars — floats
serialise via ``repr`` and therefore round-trip bit-exactly through
JSON; full bit-identity of stored entries is the store's own business
(and the ``study_service`` verify family's).

``query`` and ``cell`` replies, cold or hot, are written by one
:class:`~repro.service.cells.ReplyEncoder` per server: each cell's
``summary()`` JSON is encoded once, split around its ``"source"``
value, and a reply is joined from those fragments as bytes equal to
``json.dumps`` of the reply dict.  A fragment is reused only for the
very measurement object it was built from, which a store LRU hit
returns again, so a re-query encodes no cell; a re-read, a recompute
or a store-less service yields a new object and a new fragment.  The
other replies are plain ``json.dumps``.

:func:`serve` runs a service behind a socket path until a client sends
``shutdown``; :class:`~repro.service.client.ServiceClient` is the
matching blocking client used by ``repro query`` and the CI smoke job.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
from pathlib import Path

from ..util.errors import ConfigurationError
from .cells import ReplyEncoder
from .client import CellSpec, StudyRequest
from .service import ServiceConfig, StudyService

__all__ = ["serve"]

#: Refuse absurd lines instead of buffering them (asyncio's default
#: readline limit is 64 KiB; a study grid request is a few hundred bytes).
_LIMIT = 1 << 20


def _dumps(reply: dict) -> bytes:
    return json.dumps(reply).encode()


async def _handle_request(
    service: StudyService, message: dict, encoder: ReplyEncoder
) -> bytes:
    """The encoded reply to one request *message* (no newline)."""
    op = message.get("op")
    if op == "ping":
        return _dumps({"ok": True, "op": "ping"})
    if op == "stats":
        return _dumps({"ok": True, "op": "stats", "stats": service.stats()})
    if op == "query":
        request = StudyRequest.from_dict(message.get("request") or {})
        return encoder.query_reply(await service.query(request))
    if op == "cell":
        spec = CellSpec.from_dict(message.get("cell") or {})
        return encoder.cell_reply(await service.query_cell(spec))
    raise ConfigurationError(f"unknown op {op!r}")


def _listening_socket(path: Path) -> socket.socket:
    """A unix socket that is already listening when *path* appears.

    Binding *path* itself creates the file before ``listen()``, and a
    client that connects in between is refused.  So the socket binds a
    temporary sibling name, listens, and is then renamed onto *path*:
    ``connect`` resolves the path to the listening inode.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}")
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        tmp.unlink(missing_ok=True)
        sock.bind(str(tmp))
        sock.listen(100)
        os.replace(tmp, path)
    except BaseException:
        sock.close()
        tmp.unlink(missing_ok=True)
        raise
    return sock


async def serve(
    path: "str | Path",
    service: StudyService | None = None,
    *,
    config: ServiceConfig | None = None,
    store: "str | Path | None" = None,
    machine=None,
    ready: "asyncio.Event | None" = None,
) -> None:
    """Serve *service* on the unix socket at *path* until ``shutdown``.

    Owns the service's lifecycle when it created it (the common case);
    a caller-provided service is left open for the caller to close.
    The socket path appears only once the server listens on it.
    """
    own_service = service is None
    if service is None:
        service = StudyService(machine=machine, store=store, config=config)
    encoder = ReplyEncoder(service.config.cache_entries)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    shutdown = asyncio.Event()

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                stop = False
                try:
                    message = json.loads(line)
                    if not isinstance(message, dict):
                        raise ConfigurationError("request must be a JSON object")
                    if message.get("op") == "shutdown":
                        reply = _dumps({"ok": True, "op": "shutdown"})
                        stop = True
                        shutdown.set()
                    else:
                        reply = await _handle_request(service, message, encoder)
                except Exception as exc:
                    reply = _dumps(
                        {"ok": False, "error": str(exc), "kind": type(exc).__name__}
                    )
                writer.write(reply + b"\n")
                await writer.drain()
                if stop:
                    break
        finally:
            writer.close()

    server = await asyncio.start_unix_server(
        handle, sock=_listening_socket(path), limit=_LIMIT
    )
    try:
        async with server:
            if ready is not None:
                ready.set()
            await shutdown.wait()
    finally:
        if own_service:
            await service.close()
        if path.exists():
            path.unlink()
