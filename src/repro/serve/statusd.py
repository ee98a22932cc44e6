"""A minimal stdlib HTTP surface for the served hub: ``GET /status``.

Serves :meth:`~repro.serve.hub.ServeHub.status_json` (wall-clock
gauges included) so an operator can watch saturation, queue depth and
rolling latency quantiles while ``repro serve`` runs.  Read-only, one
endpoint, no dependencies beyond ``http.server``; anything fancier
belongs behind a real proxy.  ``http.server`` (and with it
``http.client``, ``ssl``, ``email`` and ``socketserver``) loads only
when a server starts, so importing :mod:`repro` does not pay for it.
"""

import threading
from typing import TYPE_CHECKING, Optional

from repro.errors import ServeError

if TYPE_CHECKING:
    from http.server import ThreadingHTTPServer


class StatusServer:
    """Background ``/status`` endpoint over one :class:`ServeHub`.

    ``port=0`` binds an ephemeral port (tests); read :attr:`port`
    after :meth:`start`.
    """

    def __init__(self, hub, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.hub = hub
        self.host = host
        self._requested_port = port
        self._httpd: Optional["ThreadingHTTPServer"] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise ServeError("status server is not running")
        return self._httpd.server_address[1]

    def start(self) -> None:
        if self._httpd is not None:
            raise ServeError("status server already started")
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        hub = self.hub

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:        # noqa: N802 (stdlib name)
                path = self.path.split("?", 1)[0].rstrip("/") or "/status"
                if path != "/status":
                    self.send_error(404, "only /status is served")
                    return
                body = hub.status_json(include_wall=True).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:
                pass                          # keep the CLI output clean

        self._httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), Handler)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-status", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._httpd = None
        self._thread = None
