"""TCP name server for kernel discovery (paper §4).

The DPS runtime names kernels independently of the hosts they run on; a
central name server maps kernel names to listening addresses so peers can
establish connections lazily, on the first token they need to ship.  This
module provides both halves:

- :class:`NameServer` — a small threaded TCP directory service speaking a
  JSON-lines request/response protocol (one JSON object per ``\\n``-
  terminated line).  Registrations are *owned by the registering
  connection*: when that connection drops, its names are removed.  A
  kernel that crashes therefore frees its name automatically, and a
  restarted kernel may re-register; a second registration while the first
  owner is still alive is refused.  Registrations double as *heartbeat
  leases*: kernels beat periodically (``op=heartbeat``, the one request
  that gets no reply — a kernel beats from its I/O loop, which must
  never wait on this server) and the console
  asks for lease-expired kernels (``op=expired``) — a hung process keeps
  its TCP connection alive but stops beating, which connection-drop
  detection alone would miss.  Beyond kernel addresses the directory also
  carries *service records* — named flow graphs a resident service tier
  exposes, each with its token-type signature — listed through the
  ``services`` RPC with the same lease semantics: a service whose
  providing kernel dropped its registration (or stopped beating, when the
  caller passes ``max_age``) is filtered out of the listing.
- :class:`NameServerClient` — a blocking client used by kernels to
  register themselves and resolve peers.

Both are deliberately boring: discovery is on the control path only
(once per peer pair), so clarity wins over throughput here.  The data
path uses :mod:`repro.net.framing` instead.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Dict, List, Optional, Tuple

__all__ = [
    "NameServer",
    "NameServerClient",
    "NameServerError",
    "DuplicateRegistration",
    "UnknownKernel",
    "run_name_server",
]


class NameServerError(RuntimeError):
    """Protocol or transport failure talking to the name server."""


class DuplicateRegistration(NameServerError):
    """The kernel name is already registered by a live connection."""


class UnknownKernel(NameServerError):
    """Lookup for a name no live kernel has registered."""


class NameServer:
    """Threaded JSON-lines directory service.

    Construct with either a pre-bound listening socket (so the parent
    process can pick the port before forking the server) or a
    ``(host, port)`` pair; ``port=0`` asks the OS for a free port.
    """

    def __init__(self, sock: Optional[socket.socket] = None,
                 host: str = "127.0.0.1", port: int = 0):
        if sock is None:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, port))
            sock.listen(64)
        self._sock = sock
        self.address: Tuple[str, int] = sock.getsockname()[:2]
        self._lock = threading.Lock()
        #: name -> (host, port, owning connection, metadata dict)
        self._registry: Dict[str, Tuple[str, int, socket.socket, dict]] = {}
        #: name -> monotonic time of the last heartbeat (seeded at
        #: registration so a kernel is never "expired" before it could
        #: have beaten once)
        self._beats: Dict[str, float] = {}
        #: name -> last reported queue depth (piggybacked on heartbeats;
        #: dropped with the lease).  Feeds adaptive remap planning and
        #: the autoscaler.
        self._loads: Dict[str, int] = {}
        #: service name -> (provider kernel, in_types, out_types, owning
        #: connection); listed only while the provider's lease is live
        self._services: Dict[
            str, Tuple[str, List[str], List[str], socket.socket]] = {}
        self._accept_thread: Optional[threading.Thread] = None
        self._closed = False

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "NameServer":
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="dps-nameserver", daemon=True)
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Accept clients on the calling thread until the socket closes."""
        self._accept_loop()

    def stop(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "NameServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- server internals ------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # listener closed
            threading.Thread(target=self._serve_client, args=(conn,),
                             name="dps-nameserver-client",
                             daemon=True).start()

    def _serve_client(self, conn: socket.socket) -> None:
        try:
            reader = conn.makefile("r", encoding="utf-8", newline="\n")
            for line in reader:
                line = line.strip()
                if not line:
                    continue
                try:
                    request = json.loads(line)
                    reply = self._handle(conn, request)
                except Exception as exc:
                    reply = {"ok": False, "error": f"bad request: {exc}"}
                if reply is not None:
                    conn.sendall((json.dumps(reply) + "\n").encode("utf-8"))
        except OSError:
            pass
        finally:
            self._drop_owner(conn)
            try:
                reader.close()
            except (OSError, UnboundLocalError):
                pass
            try:
                conn.close()
            except OSError:
                pass

    def _handle(self, conn: socket.socket,
                request: dict) -> Optional[dict]:
        op = request.get("op")
        if op == "register":
            name = request["name"]
            host, port = request["host"], int(request["port"])
            meta = request.get("meta") or {}
            with self._lock:
                existing = self._registry.get(name)
                if existing is not None and existing[2] is not conn:
                    return {"ok": False, "error": "duplicate",
                            "detail": f"kernel {name!r} is already registered"}
                self._registry[name] = (host, port, conn, dict(meta))
                self._beats[name] = time.monotonic()
            return {"ok": True}
        if op == "unregister":
            name = request["name"]
            with self._lock:
                existing = self._registry.get(name)
                if existing is not None and existing[2] is conn:
                    self._release(name)
            return {"ok": True}
        if op == "heartbeat":
            # One-way: the sender does not read a reply (see the module
            # docstring), so none is sent, not even for an unknown name.
            name = request["name"]
            load = request.get("load")
            with self._lock:
                if name in self._registry:
                    self._beats[name] = time.monotonic()
                    if load is not None:
                        self._loads[name] = int(load)
            return None
        if op == "loads":
            # Kernels only: service clients also hold registrations (for
            # reply routing) but are not cluster members — they must not
            # appear in depth polls or be mistaken for joining kernels.
            with self._lock:
                loads = {name: self._loads.get(name, 0)
                         for name, entry in self._registry.items()
                         if entry[3].get("kernel")}
            return {"ok": True, "loads": loads}
        if op == "expired":
            max_age = float(request["max_age"])
            now = time.monotonic()
            with self._lock:
                expired = [{"name": name, "age": now - beat}
                           for name, beat in self._beats.items()
                           if now - beat > max_age]
            return {"ok": True, "expired": expired}
        if op == "lookup":
            name = request["name"]
            with self._lock:
                entry = self._registry.get(name)
            if entry is None:
                return {"ok": False, "error": "unknown",
                        "detail": f"no kernel registered as {name!r}"}
            return {"ok": True, "host": entry[0], "port": entry[1],
                    "meta": entry[3]}
        if op == "list":
            with self._lock:
                names = sorted(self._registry)
            return {"ok": True, "names": names}
        if op == "register_service":
            service = request["service"]
            provider = request["provider"]
            in_types = [str(t) for t in request.get("in_types") or []]
            out_types = [str(t) for t in request.get("out_types") or []]
            with self._lock:
                existing = self._services.get(service)
                if existing is not None and existing[3] is not conn:
                    return {"ok": False, "error": "duplicate",
                            "detail": f"service {service!r} is already "
                                      f"registered by {existing[0]!r}"}
                self._services[service] = (provider, in_types, out_types,
                                           conn)
            return {"ok": True}
        if op == "unregister_service":
            service = request["service"]
            with self._lock:
                existing = self._services.get(service)
                if existing is not None and existing[3] is conn:
                    del self._services[service]
            return {"ok": True}
        if op == "services":
            max_age = request.get("max_age")
            now = time.monotonic()
            with self._lock:
                entries = []
                for service in sorted(self._services):
                    provider, in_types, out_types, _ = \
                        self._services[service]
                    beat = self._beats.get(provider)
                    if beat is None:
                        continue  # provider lease is gone
                    if max_age is not None and now - beat > float(max_age):
                        continue  # provider stopped beating
                    entries.append({"service": service,
                                    "provider": provider,
                                    "in_types": in_types,
                                    "out_types": out_types})
            return {"ok": True, "services": entries}
        if op == "ping":
            return {"ok": True}
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _release(self, name: str) -> None:
        """Forget *name* and its lease (lock held)."""
        del self._registry[name]
        self._beats.pop(name, None)
        self._loads.pop(name, None)

    def _drop_owner(self, conn: socket.socket) -> None:
        with self._lock:
            dead = [name for name, entry in self._registry.items()
                    if entry[2] is conn]
            for name in dead:
                self._release(name)
            dead_services = [name for name, entry in self._services.items()
                             if entry[3] is conn]
            for name in dead_services:
                del self._services[name]


def run_name_server(sock: socket.socket) -> None:
    """Child-process main: serve the directory on a pre-bound socket."""
    NameServer(sock=sock).serve_forever()


class NameServerClient:
    """Blocking JSON-lines client; one per kernel, thread-safe.

    The client's TCP connection *is* the lease on every name it
    registers — keep it open for the kernel's lifetime.
    """

    def __init__(self, address: Tuple[str, int], timeout: float = 10.0):
        self.address = address
        self._sock = socket.create_connection(address, timeout=timeout)
        self._reader = self._sock.makefile("r", encoding="utf-8", newline="\n")
        self._lock = threading.Lock()

    def _call(self, request: dict) -> dict:
        with self._lock:
            try:
                self._sock.sendall(
                    (json.dumps(request) + "\n").encode("utf-8"))
                line = self._reader.readline()
            except OSError as exc:
                raise NameServerError(f"name server unreachable: {exc}") from exc
        if not line:
            raise NameServerError("name server closed the connection")
        reply = json.loads(line)
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

    def services(self, max_age: Optional[float] = None) -> List[dict]:
        """Registered services whose provider lease is live; each entry is
        ``{"service", "provider", "in_types", "out_types"}``.  With
        *max_age*, providers that have not beaten for that many seconds
        are filtered out as well."""
        request: dict = {"op": "services"}
        if max_age is not None:
            request["max_age"] = float(max_age)
        return list(self._call(request)["services"])

    def heartbeat(self, name: str, load: Optional[int] = None) -> None:
        """Renew *name*'s liveness lease, optionally reporting its
        current queue depth (total pending tokens across local thread
        inboxes) for adaptive routing/scaling decisions.

        One-way and non-blocking — a kernel calls this from its I/O
        loop: the line is written and nothing is read back.  A beat that
        finds another request in flight on this connection is skipped
        (the lease outlives several missed beats); a server that has
        stopped reading raises once the socket buffer is full.
        """
        request: dict = {"op": "heartbeat", "name": name}
        if load is not None:
            request["load"] = int(load)
        line = (json.dumps(request) + "\n").encode("utf-8")
        if not self._lock.acquire(blocking=False):
            return
        try:
            if self._sock.send(line, socket.MSG_DONTWAIT) != len(line):
                raise BlockingIOError("send buffer full")
        except OSError as exc:
            raise NameServerError(f"name server unreachable: {exc}") from exc
        finally:
            self._lock.release()

    def loads(self) -> Dict[str, int]:
        """Last heartbeat-reported queue depth per registered kernel
        (``0`` for kernels that never reported one)."""
        return dict(self._call({"op": "loads"})["loads"])

    def expired(self, max_age: float) -> List[dict]:
        """Registered kernels that have not beaten for *max_age* seconds;
        each entry is ``{"name": ..., "age": seconds_since_last_beat}``."""
        return list(self._call({"op": "expired",
                                "max_age": max_age})["expired"])

    def ping(self) -> bool:
        self._call({"op": "ping"})
        return True

    def close(self) -> None:
        # The makefile() reader holds a reference on the fd — close it
        # too, or the server never sees EOF and the lease never expires.
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
