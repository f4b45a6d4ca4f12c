"""The submit/status/results wire protocol: JSON lines over a socket.

One request per connection-line, one JSON response per request — the
simplest protocol that lets ``repro-fqms submit|status|results`` talk
to a running service from another process.  The server prefers a unix
domain socket under the service root (no ports, no firewalls); hosts
without unix sockets fall back to loopback TCP on an ephemeral port.
Either way the bound address is written to ``<root>/serve.addr``, so
clients need only the root directory to find the service.

Ops (the ``op`` field of the request object):

* ``ping`` — liveness probe.
* ``submit`` — ``{"tenant", "share", "sweep": <SweepSpec payload>}``;
  responds with the service's ticket (queued/cached split + job ids).
* ``status`` — the full service snapshot, fleet dashboard included.
* ``results`` — store query; filters ride the request verbatim.
* ``shutdown`` — graceful drain-and-exit of the serve loop.

Every response carries ``"ok"``; failures carry ``"error"`` instead of
tearing the connection down, so a malformed submission is a readable
message, not a hung client.
"""

from __future__ import annotations

import asyncio
import json
import socket
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .service import ExperimentService
from .spec import SweepSpec
from .store import ResultStore

#: Address-file and unix-socket names under the service root.
ADDRESS_FILE = "serve.addr"
SOCKET_FILE = "serve.sock"

#: Client-side connect/response timeout.
CLIENT_TIMEOUT_S = 30.0


def results_rows(
    store: ResultStore,
    policy: Optional[str] = None,
    workload: Optional[List[str]] = None,
    seed: Optional[int] = None,
    tenant: Optional[str] = None,
    source: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Store query as JSON rows, fingerprint-sorted (deterministic).

    The one query surface shared by the online ``results`` op and the
    offline CLI, so both render byte-identical output for the same
    store state.
    """
    rows = []
    for entry in store.query(
        policy=policy, workload=workload, seed=seed,
        tenant=tenant, source=source,
    ):
        metrics = store.metrics(entry)
        ipcs = []
        i = 0
        while f"thread.{i}.ipc" in metrics:
            ipcs.append(metrics[f"thread.{i}.ipc"])
            i += 1
        rows.append(
            {
                "fingerprint": entry.fingerprint,
                "policy": entry.policy,
                "workload": list(entry.workload),
                "seed": entry.seed,
                "shares": list(entry.shares) if entry.shares is not None else None,
                "source": entry.source,
                "tenant": entry.tenant,
                "attempts": entry.attempts,
                "cycles": metrics.get("result.cycles"),
                "ipc": ipcs,
            }
        )
    return rows


class ProtocolServer:
    """Asyncio server binding a service to a unix/TCP JSON-line socket."""

    def __init__(self, service: ExperimentService, root: Union[str, Path]):
        self.service = service
        self.root = Path(root).expanduser()
        self.address: Optional[str] = None
        self.shutdown_requested = asyncio.Event()
        self._server: Optional[asyncio.AbstractServer] = None
        #: Live connection handlers and their writers.  ``stop`` closes
        #: and awaits them: a handler left to be cancelled at loop
        #: teardown makes Python 3.11's ``StreamReaderProtocol`` done
        #: callback call ``task.exception()`` on a cancelled task,
        #: which logs a spurious "Exception in callback" traceback.
        self._handlers: Dict["asyncio.Task[None]", asyncio.StreamWriter] = {}

    async def start(self) -> str:
        """Bind, write the address file, and begin serving; returns the address."""
        self.root.mkdir(parents=True, exist_ok=True)
        sock_path = self.root / SOCKET_FILE
        try:
            if sock_path.exists():
                sock_path.unlink()
            self._server = await asyncio.start_unix_server(
                self._handle, path=str(sock_path)
            )
            self.address = f"unix:{sock_path}"
        except (AttributeError, NotImplementedError, OSError):
            self._server = await asyncio.start_server(
                self._handle, host="127.0.0.1", port=0
            )
            bound = self._server.sockets[0].getsockname()
            self.address = f"tcp:{bound[0]}:{bound[1]}"
        (self.root / ADDRESS_FILE).write_text(self.address + "\n")
        return self.address

    async def stop(self) -> None:
        server = self._server
        if server is not None:
            server.close()
            handlers = list(self._handlers.items())
            for _, writer in handlers:
                # EOF for the handler's pending readline: it returns
                # normally instead of being cancelled later.
                writer.close()
            await asyncio.gather(
                *(task for task, _ in handlers), return_exceptions=True
            )
            await server.wait_closed()
            self._server = None
        try:
            (self.root / ADDRESS_FILE).unlink()
        except OSError:
            pass

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers[task] = writer
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                response = self._dispatch(line)
                writer.write(
                    json.dumps(response, sort_keys=True).encode() + b"\n"
                )
                await writer.drain()
                if response.get("op") == "shutdown" and response.get("ok"):
                    self.shutdown_requested.set()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if task is not None:
                self._handlers.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _dispatch(self, line: bytes) -> Dict[str, Any]:
        try:
            request = json.loads(line)
        except ValueError:
            return {"ok": False, "error": "request is not valid JSON"}
        if not isinstance(request, dict):
            return {"ok": False, "error": "request must be a JSON object"}
        op = request.get("op")
        try:
            if op == "ping":
                return {"ok": True, "op": "ping", "pong": True}
            if op == "submit":
                sweep = SweepSpec.from_payload(request.get("sweep") or {})
                tenant = str(request.get("tenant") or "anonymous")
                share = float(request.get("share", 1.0))
                ticket = self.service.submit_sweep(tenant, sweep, share=share)
                return {"ok": True, "op": "submit", "ticket": ticket}
            if op == "status":
                return {"ok": True, "op": "status", "status": self.service.status()}
            if op == "results":
                rows = results_rows(
                    self.service.store,
                    policy=request.get("policy"),
                    workload=request.get("workload"),
                    seed=request.get("seed"),
                    tenant=request.get("tenant"),
                    source=request.get("source"),
                )
                return {"ok": True, "op": "results", "rows": rows}
            if op == "shutdown":
                return {"ok": True, "op": "shutdown"}
        except (ValueError, KeyError, TypeError) as exc:
            return {"ok": False, "op": op, "error": str(exc)}
        return {"ok": False, "error": f"unknown op {op!r}"}


# -- the synchronous client (CLI side) -------------------------------------


def read_address(root: Union[str, Path]) -> str:
    """The bound address of the service rooted at ``root``.

    Raises ``FileNotFoundError`` when no service has written its
    address file — the CLI turns that into a friendly message.
    """
    path = Path(root).expanduser() / ADDRESS_FILE
    return path.read_text().strip()


def request(
    root: Union[str, Path],
    payload: Dict[str, Any],
    timeout_s: float = CLIENT_TIMEOUT_S,
) -> Dict[str, Any]:
    """Send one request to the service at ``root``; returns the response."""
    address = read_address(root)
    if address.startswith("unix:"):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        target: Any = address[len("unix:"):]
    elif address.startswith("tcp:"):
        _, host, port = address.split(":", 2)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        target = (host, int(port))
    else:
        raise ValueError(f"unrecognized service address {address!r}")
    sock.settimeout(timeout_s)
    try:
        sock.connect(target)
        sock.sendall(json.dumps(payload, sort_keys=True).encode() + b"\n")
        with sock.makefile("r") as handle:
            line = handle.readline()
    finally:
        sock.close()
    if not line:
        raise ConnectionError("service closed the connection without replying")
    return json.loads(line)
