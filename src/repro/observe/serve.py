"""Stdlib HTTP serving of live telemetry (``/metrics`` + ``/healthz``).

:class:`MetricsServer` wraps a ``ThreadingHTTPServer`` running in a
daemon thread and renders a telemetry :class:`Registry` to OpenMetrics
text on every scrape.  It reads instrument state without locks — every
instrument mutation is a single attribute store, so a scrape can at
worst observe one metric mid-update, never a torn value — which keeps
the simulation hot path entirely free of serving overhead.

The registry is supplied as a zero-argument provider callable, so the
server can follow whatever registry is current (e.g. the engine
session's merged counters) rather than holding a stale handle.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Optional

from repro.errors import ObserveError
from repro.observe.openmetrics import OPENMETRICS_CONTENT_TYPE, render_openmetrics


class _MetricsHandler(BaseHTTPRequestHandler):
    """Serves ``/metrics`` (OpenMetrics) and ``/healthz`` (liveness)."""

    server_version = "repro-observe/1"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body = render_openmetrics(self.server.registry_provider()).encode("utf-8")
            self._reply(200, OPENMETRICS_CONTENT_TYPE, body)
        elif path == "/healthz":
            self._reply(200, "text/plain; charset=utf-8", b"ok\n")
        else:
            self._reply(404, "text/plain; charset=utf-8", b"not found\n")

    def _reply(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Silence per-request stderr logging (scrapes are periodic)."""


class _ThreadingServer(ThreadingHTTPServer):
    daemon_threads = True


#: ``serve_forever`` poll interval (s): bounds how long :meth:`ServerThread.stop`
#: waits for the serving loop to notice the shutdown request.
_POLL_INTERVAL_S = 0.05


class ServerThread:
    """A ``ThreadingHTTPServer`` bound by :meth:`start`, served by a daemon thread.

    The one server lifecycle :class:`MetricsServer` and the campaign
    coordinator inherit.  ``port=0`` asks the OS for a free port (read
    it back from :attr:`port` after :meth:`start`); a requested port
    that is already in use (or otherwise unbindable) raises
    :class:`~repro.errors.ObserveError` naming the address and the
    ``port_flag`` fix, instead of leaking the raw ``OSError`` traceback.
    ``server_attrs`` are set on the server for the handler to read.
    """

    def __init__(
        self,
        label: str,
        handler: type,
        *,
        host: str,
        port: int,
        port_flag: str,
        thread_name: str,
        **server_attrs: Any,
    ) -> None:
        self._label = label
        self.host = host
        self._handler = handler
        self._requested_port = port
        self._port_flag = port_flag
        self._thread_name = thread_name
        self._server_attrs = server_attrs
        self._server: Optional[_ThreadingServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        """The bound port (the requested one until :meth:`start`)."""
        if self._server is not None:
            return self._server.server_address[1]
        return self._requested_port

    def start(self) -> "ServerThread":
        """Bind and begin serving in a daemon thread."""
        if self._server is not None:
            raise ObserveError(f"{self._label} already started")
        try:
            server = _ThreadingServer((self.host, self._requested_port), self._handler)
        except OSError as error:
            raise ObserveError(
                f"cannot bind {self._label} to {self.host}:{self._requested_port} "
                f"({error}); pass {self._port_flag} to pick a free ephemeral port"
            ) from error
        for name, value in self._server_attrs.items():
            setattr(server, name, value)
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever,
            args=(_POLL_INTERVAL_S,),
            name=self._thread_name,
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and join the serving thread."""
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


class MetricsServer(ServerThread):
    """Background OpenMetrics endpoint for one registry (or provider).

    ``port=0`` asks the OS for a free port (read it back from
    :attr:`port` after :meth:`start`); ``host`` defaults to loopback —
    exposing simulation metrics beyond the local machine is a deliberate
    caller decision.
    """

    def __init__(
        self,
        registry: Any = None,
        *,
        provider: Optional[Callable[[], Any]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        if (registry is None) == (provider is None):
            raise ObserveError("pass exactly one of registry or provider")
        super().__init__(
            "metrics server",
            _MetricsHandler,
            host=host,
            port=port,
            port_flag="--serve-port 0 (or port=0)",
            thread_name="repro-metrics",
            registry_provider=provider if provider is not None else (lambda: registry),
        )

    @property
    def url(self) -> str:
        """The ``/metrics`` URL of the running (or configured) server."""
        return f"http://{self.host}:{self.port}/metrics"

    def __repr__(self) -> str:
        state = "running" if self._server is not None else "stopped"
        return f"MetricsServer({self.url!r}, {state})"
