"""TCP name server for kernel discovery (paper §4).

The DPS runtime names kernels independently of the hosts they run on; a
central name server maps kernel names to listening addresses so peers can
establish connections lazily, on the first token they need to ship.  This
module provides both halves:

- :class:`NameServer` — a small TCP directory service on one
  :class:`~repro.net.eventloop.IOLoop`, speaking a JSON-lines
  request/response protocol (one JSON object per ``\\n``-terminated
  line) with every client.  Registrations are *owned by the registering
  connection*: when that connection drops, its names are removed.  A
  kernel that crashes therefore frees its name automatically, and a
  restarted kernel may re-register; a second registration while the first
  owner is still alive is refused.  Beyond kernel addresses the directory
  also carries *service records* — named flow graphs a resident service
  tier exposes, each with its token-type signature — listed through the
  ``services`` RPC while their providing kernel is registered.  It is a
  directory only: whether a kernel is alive is the console's to judge,
  from the beats the kernels send it (``MSG_BEAT``).  A
  :class:`~repro.runtime.multiprocess_engine.MultiprocessEngine` hosts
  it on its console kernel's loop, which waits on no other process.
- :class:`NameServerClient` — a blocking client used by kernels to
  register themselves and resolve peers.  The server waits on nothing,
  so a client's request/reply is short; a worker kernel's loop makes one
  to look a peer up when it dials.  The directory's own loop asks it
  through :meth:`NameServer.client` instead: the same calls, answered
  in process.

Both are deliberately boring: discovery is on the control path only
(once per peer pair), so clarity wins over throughput here.  The data
path uses :mod:`repro.net.framing` instead.
"""

from __future__ import annotations

import json
import socket
from typing import Dict, List, Optional, Tuple

__all__ = [
    "NameServer",
    "NameServerClient",
    "NameServerError",
    "DuplicateRegistration",
    "UnknownKernel",
]

#: Bytes a name-server connection reads per readiness event.
_RECV_BYTES = 1 << 16


class NameServerError(RuntimeError):
    """Protocol or transport failure talking to the name server."""


class DuplicateRegistration(NameServerError):
    """The kernel name is already registered by a live connection."""


class UnknownKernel(NameServerError):
    """Lookup for a name no live kernel has registered."""


class NameServer:
    """JSON-lines directory service: every client served from one loop.

    Construct with either a pre-bound listening socket (so the engine
    can pick the port before it forks the kernels) or a ``(host, port)``
    pair; ``port=0`` asks the OS for a free port.  Given a *loop* — the
    console kernel's — the directory is hosted there, and the loop's
    owner turns and closes it (the listener with it); without one it
    makes its own, turned by :meth:`start`.  Only the loop thread
    touches the directory.  A client whose reply the socket cannot take
    whole — one that does not read its replies — is dropped with its
    registrations.
    """

    def __init__(self, sock: Optional[socket.socket] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 loop=None):
        from .eventloop import IOLoop  # late: its dial path imports us
        if sock is None:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, port))
            sock.listen(64)
        self.address: Tuple[str, int] = sock.getsockname()[:2]
        self._loop = loop if loop is not None else IOLoop("nameserver")
        self._loop.add_listener(sock, self._on_accept)
        #: name -> (host, port, owner, metadata dict); the owner is a
        #: client's connection, or an in-process client
        self._registry: Dict[str, Tuple[str, int, object, dict]] = {}
        #: service name -> (provider kernel, in_types, out_types, owner);
        #: listed only while the provider is registered
        self._services: Dict[
            str, Tuple[str, List[str], List[str], object]] = {}

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "NameServer":
        """Serve on a loop thread of its own."""
        self._loop.start()
        return self

    def client(self) -> "NameServerClient":
        """An in-process client of this directory, for its loop's owner:
        its requests are answered by plain calls on the loop's thread,
        and it owns what it registers until :meth:`~NameServerClient.close`."""
        return _LocalClient(self)

    def stop(self) -> None:
        """Close the listener and every client connection."""
        self._loop.close()

    def __enter__(self) -> "NameServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- server internals (loop thread) ------------------------------------
    def _on_accept(self, conn: socket.socket) -> None:
        conn.setblocking(False)
        received = bytearray()

        def on_readable() -> None:
            try:
                data = conn.recv(_RECV_BYTES)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                data = b""
            received.extend(data)
            end = received.rfind(b"\n") + 1
            replies = b"".join(self._answer(conn, line)
                               for line in received[:end].split(b"\n"))
            del received[:end]
            try:
                whole = conn.send(replies) == len(replies)
            except OSError:  # EAGAIN included: the client reads nothing
                whole = False
            if not (data and whole):  # EOF, or replies left unread
                self._loop.remove_reader(conn)
                conn.close()
                self._drop_owner(conn)

        self._loop.add_reader(conn, on_readable)

    def _answer(self, conn: socket.socket, line: bytes) -> bytes:
        """The reply line to one request line (``b""`` to a blank one)."""
        if not line.strip():
            return b""
        try:
            reply = self._handle(conn, json.loads(line))
        except Exception as exc:
            reply = {"ok": False, "error": f"bad request: {exc}"}
        return (json.dumps(reply) + "\n").encode()

    def _handle(self, conn, request: dict) -> dict:
        """The reply to *request* from *conn*, the owner of what it
        registers."""
        op = request.get("op")
        if op == "register":
            name = request["name"]
            host, port = request["host"], int(request["port"])
            meta = request.get("meta") or {}
            existing = self._registry.get(name)
            if existing is not None and existing[2] is not conn:
                return {"ok": False, "error": "duplicate",
                        "detail": f"kernel {name!r} is already registered"}
            self._registry[name] = (host, port, conn, dict(meta))
            return {"ok": True}
        if op == "unregister":
            name = request["name"]
            existing = self._registry.get(name)
            if existing is not None and existing[2] is conn:
                del self._registry[name]
            return {"ok": True}
        if op == "kernels":
            # Service clients also hold registrations (for reply
            # routing) but are not kernels.
            return {"ok": True, "kernels": sorted(
                name for name, entry in self._registry.items()
                if entry[3].get("kernel"))}
        if op == "lookup":
            name = request["name"]
            entry = self._registry.get(name)
            if entry is None:
                return {"ok": False, "error": "unknown",
                        "detail": f"no kernel registered as {name!r}"}
            return {"ok": True, "host": entry[0], "port": entry[1],
                    "meta": dict(entry[3])}
        if op == "list":
            return {"ok": True, "names": sorted(self._registry)}
        if op == "register_service":
            service = request["service"]
            provider = request["provider"]
            in_types = [str(t) for t in request.get("in_types") or []]
            out_types = [str(t) for t in request.get("out_types") or []]
            existing = self._services.get(service)
            if existing is not None and existing[3] is not conn:
                return {"ok": False, "error": "duplicate",
                        "detail": f"service {service!r} is already "
                                  f"registered by {existing[0]!r}"}
            self._services[service] = (provider, in_types, out_types, conn)
            return {"ok": True}
        if op == "unregister_service":
            service = request["service"]
            existing = self._services.get(service)
            if existing is not None and existing[3] is conn:
                del self._services[service]
            return {"ok": True}
        if op == "services":
            entries = []
            for service in sorted(self._services):
                provider, in_types, out_types, _ = self._services[service]
                if provider not in self._registry:
                    continue  # the provider is gone
                entries.append({"service": service,
                                "provider": provider,
                                "in_types": list(in_types),
                                "out_types": list(out_types)})
            return {"ok": True, "services": entries}
        if op == "ping":
            return {"ok": True}
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _drop_owner(self, conn) -> None:
        dead = [name for name, entry in self._registry.items()
                if entry[2] is conn]
        for name in dead:
            del self._registry[name]
        dead_services = [name for name, entry in self._services.items()
                         if entry[3] is conn]
        for name in dead_services:
            del self._services[name]


class NameServerClient:
    """Blocking JSON-lines client; one per kernel, its owner's loop's
    alone (a call from elsewhere is handed over to that loop, or made
    before the loop starts or after it closes).

    The client's TCP connection owns every name it registers — keep it
    open for the kernel's lifetime.
    """

    def __init__(self, address: Tuple[str, int], timeout: float = 10.0):
        self.address = address
        self._sock = socket.create_connection(address, timeout=timeout)
        self._reader = self._sock.makefile("r", encoding="utf-8", newline="\n")

    def _exchange(self, request: dict) -> dict:
        """Send *request*, wait for the server's reply (the transport)."""
        try:
            self._sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
            line = self._reader.readline()
        except OSError as exc:
            raise NameServerError(f"name server unreachable: {exc}") from exc
        if not line:
            raise NameServerError("name server closed the connection")
        return json.loads(line)

    def _call(self, request: dict) -> dict:
        reply = self._exchange(request)
        if reply.get("ok"):
            return reply
        error = reply.get("error", "")
        detail = reply.get("detail", error)
        if error == "duplicate":
            raise DuplicateRegistration(detail)
        if error == "unknown":
            raise UnknownKernel(detail)
        raise NameServerError(detail or "name server refused the request")

    def register(self, name: str, host: str, port: int,
                 meta: Optional[dict] = None) -> None:
        """Register *name*; *meta* carries JSON-safe kernel attributes
        (e.g. the host fingerprint used for shared-memory co-location)."""
        request = {"op": "register", "name": name, "host": host, "port": port}
        if meta:
            request["meta"] = meta
        self._call(request)

    def unregister(self, name: str) -> None:
        """Release a name this connection registered, now rather than
        when the server notices the connection drop."""
        self._call({"op": "unregister", "name": name})

    def lookup(self, name: str) -> Tuple[str, int]:
        reply = self._call({"op": "lookup", "name": name})
        return reply["host"], int(reply["port"])

    def lookup_entry(self, name: str) -> Tuple[str, int, dict]:
        """Like :meth:`lookup` but also returns the registration metadata."""
        reply = self._call({"op": "lookup", "name": name})
        return reply["host"], int(reply["port"]), reply.get("meta") or {}

    def list(self) -> List[str]:
        return list(self._call({"op": "list"})["names"])

    def kernels(self) -> List[str]:
        """Registered kernel names (sorted), service clients left out."""
        return list(self._call({"op": "kernels"})["kernels"])

    def register_service(self, service: str, provider: str,
                         in_types: Tuple[str, ...] = (),
                         out_types: Tuple[str, ...] = ()) -> None:
        """Publish a service record: *service* is the public graph name,
        *provider* the kernel that accepts its calls, and the type lists
        the wire-format token-type names of its entry/exit operations."""
        self._call({"op": "register_service", "service": service,
                    "provider": provider, "in_types": list(in_types),
                    "out_types": list(out_types)})

    def unregister_service(self, service: str) -> None:
        """Withdraw a service record this connection registered."""
        self._call({"op": "unregister_service", "service": service})

    def services(self) -> List[dict]:
        """Registered services whose provider is registered; each entry
        is ``{"service", "provider", "in_types", "out_types"}``."""
        return list(self._call({"op": "services"})["services"])

    def ping(self) -> bool:
        self._call({"op": "ping"})
        return True

    def close(self) -> None:
        # The makefile() reader holds a reference on the fd — close it
        # too, or the server never sees EOF and the names stay taken.
        try:
            self._reader.close()
        except OSError:
            pass
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "NameServerClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _LocalClient(NameServerClient):
    """:meth:`NameServer.client`: the same calls, answered in process by
    the directory it was made for, on that directory's loop (or before
    the loop turns, or after it closed).  The client itself owns what it
    registers, as a connection does."""

    def __init__(self, server: NameServer):
        self.address = server.address
        self._server = server

    def _exchange(self, request: dict) -> dict:
        return self._server._handle(self, request)

    def close(self) -> None:
        self._server._drop_owner(self)
