"""HTTP surface of the watchtower.

A thread-per-connection server on the shared HTTP/1.1 codec
(:mod:`repro.serve.http11`), deliberately separate from the serving
handler (:mod:`repro.serve.httpd` is service-shaped; the watchtower
serves documents, not inference)::

    GET /healthz             -> liveness + tick/collector stats
    GET /v1/watch/alerts     -> active + resolved alerts, remediations
    GET /v1/watch/series     -> series directory; ?name= for points,
                                &derive=rate for counter rates,
                                &<label>=<value> to filter label sets
    GET /v1/watch/rules      -> the loaded rule set
    GET /v1/watch/dashboard  -> the zero-dependency HTML dashboard

:func:`serve_watch` boots the server on a daemon thread and returns
it; ``server.tower`` is the live :class:`Watchtower`.
"""

from __future__ import annotations

import json
import threading
from urllib.parse import parse_qs

from repro.serve.http11 import HTTPServer, RequestHandler

from .watchtower import Watchtower


class _WatchHandler(RequestHandler):
    server: "WatchHTTPServer"

    def _send(self, payload: bytes, content_type: str, status: int = 200) -> None:
        self.send_message(status, [("Content-Type", content_type)], payload)

    def _send_json(self, doc: dict, status: int = 200) -> None:
        self._send(
            json.dumps(doc, indent=2, default=str).encode("utf-8"),
            "application/json", status,
        )

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler API)
        tower = self.server.tower
        path, _, query = self.path.partition("?")
        params = {
            key: values[-1] for key, values in parse_qs(query).items()
        }
        try:
            if path == "/healthz":
                self._send_json({"status": "ok", "role": "watchtower",
                                 **tower.stats()})
            elif path == "/v1/watch/alerts":
                self._send_json(tower.alerts_doc())
            elif path == "/v1/watch/rules":
                self._send_json({
                    "rules": [rule.as_dict() for rule in tower.rules]
                })
            elif path == "/v1/watch/series":
                name = params.pop("name", None)
                derive = params.pop("derive", None)
                self._send_json(
                    tower.series_doc(name, params or None, derive)
                )
            elif path == "/v1/watch/dashboard":
                from .dashboard import render_dashboard

                self._send(render_dashboard(tower).encode("utf-8"),
                           "text/html; charset=utf-8")
            else:
                self._send_json(
                    {"error": f"unknown path {path!r}"}, status=404
                )
        except ValueError as exc:
            self._send_json({"error": str(exc)}, status=400)
        except Exception as exc:  # never kill the handler thread
            self._send_json(
                {"error": f"{type(exc).__name__}: {exc}"}, status=500
            )


class WatchHTTPServer(HTTPServer):
    def __init__(self, tower: Watchtower, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.tower = tower
        super().__init__((host, port), _WatchHandler)


def serve_watch(
    tower: Watchtower, host: str = "127.0.0.1", port: int = 0
) -> WatchHTTPServer:
    """Serve the watchtower's HTTP surface on a daemon thread."""
    server = WatchHTTPServer(tower, host, port)
    thread = threading.Thread(
        target=server.serve_forever, name="watch-http", daemon=True
    )
    thread.start()
    return server
