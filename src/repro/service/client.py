"""Client library for the experiment service.

Two clients over the same wire protocol:

* :class:`ServiceClient` — synchronous, for CLI commands
  (``repro submit`` / ``repro status``), worker threads (the service
  bench drives 32 of them), and the tuning oracle. One request/response
  at a time, except :meth:`ServiceClient.submit_many`, which *pipelines*
  a whole batch on the connection — all requests go out before any
  response is read, so the server's batching window sees the batch as
  concurrent work and coalesces/batches it accordingly.
* :class:`AsyncServiceClient` — asyncio-native; any number of
  outstanding :meth:`AsyncServiceClient.submit_spec` awaits share one
  connection (a reader task dispatches responses by request id).

Both connect over the server's unix socket by default, or TCP when
constructed with ``host``/``port``.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
from dataclasses import dataclass
from typing import Iterable, Optional

from .protocol import (PROTOCOL_VERSION, ProtocolError, decode,
                       default_socket_path, encode, metrics_from_wire,
                       spec_to_wire, stats_from_wire)


class ServiceError(RuntimeError):
    """An application-level failure reported by the service (bad spec,
    missing tuned config, failed execution, draining server)."""


@dataclass
class SubmitResult:
    """One submit's outcome: run identity, full profiler metrics, and
    provenance — ``source`` says how *this* request was satisfied
    ('executed' | 'cached' | 'coalesced'), ``stats`` is the executed /
    memory-hit / disk-hit delta of the micro-batch that carried it."""

    app: str
    variant: str
    strategy: Optional[str]
    dataset: str
    checked: bool
    source: str
    metrics: object
    stats: object

    @classmethod
    def from_wire(cls, resp: dict) -> "SubmitResult":
        run = resp.get("run") or {}
        return cls(
            app=run.get("app", ""), variant=run.get("variant", ""),
            strategy=run.get("strategy"), dataset=run.get("dataset", ""),
            checked=bool(run.get("checked")),
            source=resp.get("source", ""),
            metrics=metrics_from_wire(run.get("metrics") or {}),
            stats=stats_from_wire(resp.get("stats")),
        )

    def label(self) -> str:
        return (self.variant if self.strategy is None
                else f"{self.variant}:{self.strategy}")


def _check(resp: dict) -> dict:
    if not isinstance(resp, dict):
        raise ProtocolError("response must be a JSON object")
    if not resp.get("ok"):
        raise ServiceError(resp.get("error", "unspecified service error"))
    return resp


def _hello_msg() -> dict:
    return {"op": "hello", "protocol": PROTOCOL_VERSION}


def _submit_msg(rid, spec, scale) -> dict:
    msg = {"op": "submit", "id": rid, "spec": spec_to_wire(spec)}
    if scale is not None:
        msg["scale"] = scale
    return msg


class ServiceClient:
    """Synchronous service client (auto-connects on first use)."""

    def __init__(self, socket_path=None, host: Optional[str] = None,
                 port: Optional[int] = None,
                 timeout: Optional[float] = None):
        """``timeout`` bounds each blocking read/write (None — the
        default — waits as long as the work takes: a full-scale batch
        legitimately runs for minutes). Connecting is always bounded."""
        if host is not None and socket_path is not None:
            raise ValueError("pass a unix socket_path or a TCP host/port, "
                             "not both")
        self.socket_path = (None if host is not None
                            else socket_path or default_socket_path())
        self.host = host
        self.port = port
        self.timeout = timeout
        self.server_info: dict = {}
        self._ids = itertools.count(1)
        self._sock = None
        self._fh = None

    # -- connection ------------------------------------------------------------

    @property
    def endpoint(self) -> str:
        if self.host is not None:
            return f"tcp:{self.host}:{self.port}"
        return f"unix:{self.socket_path}"

    def connect(self) -> "ServiceClient":
        if self._fh is not None:
            return self
        connect_timeout = 10.0 if self.timeout is None else \
            min(10.0, self.timeout)
        try:
            if self.host is not None:
                sock = socket.create_connection((self.host, self.port),
                                                timeout=connect_timeout)
            else:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(connect_timeout)
                sock.connect(str(self.socket_path))
        except OSError as exc:
            raise ServiceError(
                f"cannot reach the experiment service at {self.endpoint} "
                f"({exc}); is `repro serve` running?") from None
        sock.settimeout(self.timeout)
        self._sock = sock
        self._fh = sock.makefile("rwb")
        self.server_info = self._request(_hello_msg())
        return self

    def close(self) -> None:
        for closer in (self._fh, self._sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass
        self._fh = self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- wire ------------------------------------------------------------------

    def _send(self, msg: dict) -> None:
        try:
            self._fh.write(encode(msg))
            self._fh.flush()
        except OSError as exc:  # incl. socket.timeout
            raise ServiceError(f"write to {self.endpoint} failed: "
                               f"{exc}") from None

    def _recv(self) -> dict:
        try:
            line = self._fh.readline()
        except OSError as exc:  # incl. socket.timeout
            raise ServiceError(f"read from {self.endpoint} failed: "
                               f"{exc}") from None
        if not line:
            raise ServiceError(f"service at {self.endpoint} closed the "
                               "connection")
        return decode(line)

    def _request(self, msg: dict) -> dict:
        self.connect()
        self._send(msg)
        return _check(self._recv())

    # -- operations ------------------------------------------------------------

    def submit_spec(self, spec, scale: Optional[float] = None) -> SubmitResult:
        """Submit one RunSpec and wait for its result."""
        resp = self._request(_submit_msg(next(self._ids), spec, scale))
        return SubmitResult.from_wire(resp)

    def submit(self, app: str, variant: str, *,
               scale: Optional[float] = None, **axes) -> SubmitResult:
        """Convenience: build the RunSpec from keyword axes
        (allocator/strategy/threshold/workload/...)."""
        from ..experiments.plan import RunSpec

        return self.submit_spec(RunSpec(app=app, variant=variant, **axes),
                                scale=scale)

    # the submit_config shim was removed per repro.errors.DeprecationPolicy

    def submit_many(self, specs: Iterable,
                    scale: Optional[float] = None) -> list[SubmitResult]:
        """Pipeline a batch of specs; results come back in spec order.

        All requests are written before any response is read, so the
        server sees them concurrently — duplicates coalesce and the rest
        share one micro-batch, exactly like N independent clients."""
        self.connect()
        specs = list(specs)
        ids = [next(self._ids) for _ in specs]
        try:
            for rid, spec in zip(ids, specs):
                self._fh.write(encode(_submit_msg(rid, spec, scale)))
            self._fh.flush()
        except OSError as exc:
            raise ServiceError(f"write to {self.endpoint} failed: "
                               f"{exc}") from None
        by_id: dict = {}
        want = set(ids)
        while want:
            resp = self._recv()
            rid = resp.get("id")
            if rid not in want:
                raise ProtocolError(f"unexpected response id {rid!r}")
            want.discard(rid)
            by_id[rid] = resp
        return [SubmitResult.from_wire(_check(by_id[rid])) for rid in ids]

    def status(self) -> dict:
        return self._request({"op": "status", "id": next(self._ids)})

    def supports(self, feature: str) -> bool:
        """Whether the connected server advertised an optional op in
        its hello response (pre-PR-8 daemons advertise nothing)."""
        self.connect()
        return feature in (self.server_info.get("features") or ())

    def metrics(self) -> dict:
        """The daemon's full telemetry registry: ``metrics`` (the
        ServiceMetrics snapshot), ``registry`` (every counter/gauge/
        histogram, structured), ``text`` (Prometheus rendering).
        Requires a server advertising the ``metrics`` feature."""
        if not self.supports("metrics"):
            raise ServiceError(
                f"service at {self.endpoint} predates the metrics op "
                "(no 'metrics' in hello features); use status() instead")
        return self._request({"op": "metrics", "id": next(self._ids)})

    def shutdown(self) -> dict:
        """Ask the server to drain and exit; returns the final report."""
        return self._request({"op": "shutdown", "id": next(self._ids)})


class AsyncServiceClient:
    """Asyncio client: concurrent submits multiplex one connection."""

    def __init__(self):
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._ids = itertools.count(1)
        self._waiting: dict[int, asyncio.Future] = {}
        self._reader_task: Optional[asyncio.Task] = None
        self.server_info: dict = {}

    @classmethod
    async def connect(cls, socket_path=None, host: Optional[str] = None,
                      port: Optional[int] = None) -> "AsyncServiceClient":
        self = cls()
        if host is not None:
            reader, writer = await asyncio.open_connection(host, port)
        else:
            path = str(socket_path or default_socket_path())
            reader, writer = await asyncio.open_unix_connection(path)
        self._reader, self._writer = reader, writer
        # the handshake happens before the dispatcher starts, so it can
        # read its reply directly
        writer.write(encode(_hello_msg()))
        await writer.drain()
        line = await reader.readline()
        if not line:
            raise ServiceError("service closed the connection during "
                               "handshake")
        self.server_info = _check(decode(line))
        self._reader_task = asyncio.ensure_future(self._dispatch())
        return self

    async def _dispatch(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                resp = decode(line)
                fut = self._waiting.pop(resp.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result(resp)
        except (asyncio.CancelledError, ConnectionResetError):
            pass
        finally:
            for fut in self._waiting.values():
                if not fut.done():
                    fut.set_exception(
                        ServiceError("service connection closed"))
            self._waiting.clear()

    async def _request(self, msg: dict) -> dict:
        fut = asyncio.get_running_loop().create_future()
        self._waiting[msg["id"]] = fut
        self._writer.write(encode(msg))
        await self._writer.drain()
        return _check(await fut)

    async def submit_spec(self, spec,
                          scale: Optional[float] = None) -> SubmitResult:
        resp = await self._request(_submit_msg(next(self._ids), spec, scale))
        return SubmitResult.from_wire(resp)

    async def status(self) -> dict:
        return await self._request({"op": "status", "id": next(self._ids)})

    def supports(self, feature: str) -> bool:
        return feature in (self.server_info.get("features") or ())

    async def metrics(self) -> dict:
        if not self.supports("metrics"):
            raise ServiceError("connected service predates the metrics op")
        return await self._request({"op": "metrics", "id": next(self._ids)})

    async def shutdown(self) -> dict:
        return await self._request({"op": "shutdown", "id": next(self._ids)})

    async def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except Exception:  # noqa: BLE001 — best-effort teardown
                pass
