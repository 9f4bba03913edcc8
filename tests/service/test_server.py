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


#: ``repro query`` of the cost-only openblas/caps n=64 grid on two
#: threads, computed and then answered from the store (table, footer).
COMPUTED_TABLE = (
    "algorithm  n   threads  time (s)     package J    avg W      source  \n"
    "---------  --  -------  -----------  -----------  ---------  --------\n"
    " openblas  64        1  1.11304e-05  0.000295213  26.523014  computed\n"
    " openblas  64        2      9.6e-06  0.000293543  30.577408  computed\n"
    "     caps  64        1  2.69474e-05  0.000526217  19.527584  computed\n"
    "     caps  64        2  2.69474e-05  0.000526217  19.527584  computed\n"
    "cells: 4 (store 0, computed 4, deduped 0)\n"
)
STORED_TABLE = """\
algorithm  n   threads  time (s)     package J    avg W      source
---------  --  -------  -----------  -----------  ---------  ------
 openblas  64        1  1.11304e-05  0.000295213  26.523014   store
 openblas  64        2      9.6e-06  0.000293543  30.577408   store
     caps  64        1  2.69474e-05  0.000526217  19.527584   store
     caps  64        2  2.69474e-05  0.000526217  19.527584   store
cells: 4 (store 4, computed 0, deduped 0)
"""


def test_cli_query_table_is_pinned(tmp_path, capsys):
    from repro.cli import main

    sock = tmp_path / "svc.sock"
    t = _started(sock, main, ["serve", "--socket", str(sock),
                              "--store", str(tmp_path / "cells")])
    capsys.readouterr()
    args = ["query", "--socket", str(sock), "--algorithms", "openblas", "caps",
            "--sizes", "64", "--threads", "1", "2", "--execute-max-n", "0"]
    assert main(args) == 0
    assert capsys.readouterr().out == COMPUTED_TABLE
    assert main(args) == 0
    assert capsys.readouterr().out == STORED_TABLE
    assert main(["query", "--socket", str(sock), "--shutdown"]) == 0
    t.join(timeout=10)
    assert not t.is_alive()


def test_store_less_service_recomputes_every_query(machine, tmp_path, capsys):
    """Without ``--store`` the service keeps no results: an identical
    re-query is computed again."""
    from repro.cli import main

    sock = tmp_path / "svc.sock"
    t = _started(sock, main, ["serve", "--socket", str(sock)])
    capsys.readouterr()
    args = ["query", "--socket", str(sock), "--algorithms", "caps",
            "--sizes", "64", "--threads", "1", "2", "--execute-max-n", "0"]
    for _ in range(2):
        assert main(args) == 0
        assert "cells: 2 (store 0, computed 2, deduped 0)" in capsys.readouterr().out
    assert main(["query", "--socket", str(sock), "--shutdown"]) == 0
    t.join(timeout=10)
    assert not t.is_alive()


def test_reply_lines_are_canonical_json(server):
    """Each reply line is ``json.dumps`` of the object it decodes to,
    for a cold and a hot grid and for one cell."""
    request = {"op": "query", "request": {"algorithms": ["caps", "openblas"],
                                          "sizes": [64], "threads": [1, 2],
                                          "execute_max_n": 0}}
    cell = {"op": "cell", "cell": {"algorithm": "caps", "n": 64, "threads": 2}}
    s = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
    s.connect(server)
    f = s.makefile("rwb")
    try:
        lines = []
        for message in (request, request, cell):
            f.write(json.dumps(message).encode() + b"\n")
            f.flush()
            lines.append(f.readline())
    finally:
        f.close()
        s.close()
    sources = [json.loads(line)["sources"] for line in lines[:2]]
    assert sources[0]["computed"] == 4 and sources[1]["store"] == 4
    for line in lines:
        assert line == json.dumps(json.loads(line)).encode() + b"\n"


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
