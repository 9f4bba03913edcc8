"""The unix-socket JSON-lines front door: round-trips, protocol errors,
multi-client sharing, shutdown, and the CLI entry points."""

import asyncio
import json
import socket as socket_mod
import threading
import time

import pytest

from repro.service import CellSpec, ServiceClient, StudyRequest, serve
from repro.util.errors import ServiceError


def _started(sock, target, *args) -> threading.Thread:
    """``target(*args)`` in a daemon thread, returned as soon as the
    socket file *sock* exists."""
    thread = threading.Thread(target=target, args=args, daemon=True)
    thread.start()
    deadline = time.monotonic() + 10
    while not sock.exists():
        assert time.monotonic() < deadline, "server socket never appeared"
        time.sleep(0.001)
    return thread


def _serve(sock, **kw) -> threading.Thread:
    return _started(sock, lambda: asyncio.run(serve(sock, **kw)))


@pytest.fixture()
def server(machine, tmp_path):
    """A served socket in a background thread; yields the socket path."""
    sock = tmp_path / "svc.sock"
    done = _serve(sock, store=tmp_path / "cells", machine=machine)
    yield str(sock)
    if sock.exists():
        try:
            with ServiceClient(sock) as c:
                c.shutdown()
        except (ServiceError, OSError):
            pass
    done.join(timeout=10)


def test_ping_query_stats_roundtrip(server):
    with ServiceClient(server) as client:
        assert client.ping()
        req = StudyRequest(("caps",), (64,), threads=(1, 2), execute_max_n=64)
        reply = client.query(req)
        assert reply["sources"] == {"store": 0, "computed": 2, "inflight": 0}
        assert len(reply["cells"]) == 2
        for cell in reply["cells"]:
            assert cell["algorithm"] == "caps"
            assert cell["elapsed_s"] > 0
            assert cell["energy_package_j"] > 0
        again = client.query(req)
        assert again["sources"] == {"store": 2, "computed": 0, "inflight": 0}
        # JSON floats round-trip bit-exactly (repr-based encoding).
        for a, b in zip(reply["cells"], again["cells"]):
            assert a["elapsed_s"] == b["elapsed_s"]
            assert a["energy_package_j"] == b["energy_package_j"]
        stats = client.stats()
        assert stats["service.requests"] >= 2
        assert stats["store.hits"] >= 2


def test_single_cell_op(server):
    with ServiceClient(server) as client:
        spec = CellSpec("openblas", 64, 1, execute=True)
        first = client.query_cell(spec)
        assert first["source"] == "computed"
        second = client.query_cell(spec)
        assert second["source"] == "store"
        assert first["elapsed_s"] == second["elapsed_s"]


def test_two_clients_share_one_store(server):
    req = StudyRequest(("openblas",), (64,), threads=(1,), execute_max_n=64)
    with ServiceClient(server) as a:
        a.query(req)
    with ServiceClient(server) as b:
        reply = b.query(req)
    assert reply["sources"]["store"] == 1


def test_protocol_errors_are_replies_not_disconnects(server):
    with ServiceClient(server) as client:
        with pytest.raises(ServiceError, match="unknown op"):
            client.request({"op": "frobnicate"})
        # The connection survives an error reply.
        assert client.ping()
        with pytest.raises(ServiceError):
            client.request({"op": "query", "request": {"sizes": []}})
        assert client.ping()


def test_unknown_algorithm_after_valid_cells_is_an_error_reply(server):
    """The grid fails as a whole with the unknown name; the valid cells
    resolved before it still compute, and the service keeps serving."""
    bad = {"algorithms": ["openblas", "no-such-algorithm"], "sizes": [64],
           "threads": [1, 2], "execute_max_n": 0}
    with ServiceClient(server) as client:
        with pytest.raises(
            ServiceError,
            match=r"\(ConfigurationError\): unknown algorithm 'no-such-algorithm'",
        ):
            client.request({"op": "query", "request": bad})
        assert client.ping()
        good = StudyRequest(("openblas",), (64,), threads=(1, 2), execute_max_n=0)
        reply = client.query(good)
        assert reply["sources"]["computed"] == 0
        assert reply["sources"]["store"] + reply["sources"]["inflight"] == 2
        assert client.query(good)["sources"]["store"] == 2


def test_connect_failure_is_a_typed_error(tmp_path):
    with pytest.raises(ServiceError, match="cannot connect"):
        ServiceClient(tmp_path / "no-such.sock")


def test_malformed_json_line(server):
    raw = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
    raw.settimeout(30)
    raw.connect(server)
    try:
        f = raw.makefile("rwb")
        f.write(b"this is not json\n")
        f.flush()
        reply = json.loads(f.readline())
        assert reply["ok"] is False
        f.write(b'"a json string, not an object"\n')
        f.flush()
        reply = json.loads(f.readline())
        assert reply["ok"] is False
        assert "object" in reply["error"]
    finally:
        raw.close()


def test_shutdown_removes_socket(machine, tmp_path):
    sock = tmp_path / "svc.sock"
    t = _serve(sock, machine=machine)
    with ServiceClient(sock) as client:
        client.shutdown()
    t.join(timeout=10)
    assert not t.is_alive()
    assert not sock.exists()


def test_a_client_that_sees_the_socket_connects(machine, tmp_path, monkeypatch):
    """The socket path appears only once the server listens: with
    ``listen`` held back in the serving thread, a client that connects
    the moment it sees the file is never refused."""
    listen = socket_mod.socket.listen

    def slow_listen(self, *args):
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.2)
        return listen(self, *args)

    monkeypatch.setattr(socket_mod.socket, "listen", slow_listen)
    for attempt in range(3):
        sock = tmp_path / f"svc{attempt}.sock"
        t = _serve(sock, machine=machine)
        with ServiceClient(sock) as client:
            assert client.ping()
            client.shutdown()
        t.join(timeout=10)
        assert not t.is_alive()


# ---------------------------------------------------------------------------
# CLI entry points


def test_cli_serve_and_query(machine, tmp_path, capsys):
    from repro.cli import main

    sock = tmp_path / "svc.sock"
    store = tmp_path / "cells"
    t = _started(sock, main, ["serve", "--socket", str(sock), "--store", str(store)])

    args = ["query", "--socket", str(sock), "--algorithms", "caps",
            "--sizes", "64", "--threads", "1", "2", "--execute-max-n", "64"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "cells: 2 (store 0, computed 2, deduped 0)" in out

    assert main(args) == 0
    out = capsys.readouterr().out
    assert "cells: 2 (store 2, computed 0, deduped 0)" in out

    assert main(["query", "--socket", str(sock), "--stats"]) == 0
    out = capsys.readouterr().out
    assert "store.hits" in out

    assert main(["query", "--socket", str(sock), "--shutdown"]) == 0
    t.join(timeout=10)
    assert not t.is_alive()


def test_cli_query_errors_are_rc2_one_liners(machine, tmp_path, capsys):
    """CLI error paths must exit 2 with a one-line `error: ...` on
    stderr — a raw traceback is a bug (ServiceError is a ReproError)."""
    from repro.cli import main

    # No socket at all.
    rc = main(["query", "--socket", str(tmp_path / "nope.sock"), "--stats"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot connect")

    # Server-side rejection travels back as a typed error reply.
    sock = tmp_path / "svc.sock"
    t = _started(sock, main, ["serve", "--socket", str(sock)])
    rc = main(["query", "--socket", str(sock), "--algorithms", "nosuchalg",
               "--sizes", "64"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown algorithm" in err
    assert "Traceback" not in err
    assert main(["query", "--socket", str(sock), "--shutdown"]) == 0
    t.join(timeout=10)
