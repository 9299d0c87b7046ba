"""Scrape loop: pull every target's Prometheus exposition into the store.

One :class:`Collector` owns a list of :class:`ScrapeTarget`\\ s (each a
replica or the fleet router), and on every :meth:`scrape_once` GETs
``/v1/metrics?format=prometheus`` from each, validates the body with
the shipped :func:`~repro.serve.telemetry.prometheus.parse_exposition`
(the same strict parser CI uses - a replica emitting duplicate samples
or NaN counters fails its scrape loudly instead of poisoning the
store), and ingests every sample with an added ``instance`` label
naming the target.

Two synthetic series are written per target per scrape:

* ``watch_scrape_up`` - 1 on success, 0 on any failure (connection,
  HTTP status, parse);
* ``watch_scrape_duration_ms`` - wall time of the scrape.

Connections are kept alive between scrapes and rebuilt on failure.
Timestamps are ``time.monotonic()`` unless the caller supplies ``now``
(tests replay deterministic histories that way).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from urllib.parse import urlsplit

from repro.serve.http11 import Connection
from repro.serve.telemetry.prometheus import parse_exposition

from .store import TimeSeriesStore

METRICS_PATH = "/v1/metrics?format=prometheus"


@dataclass
class ScrapeTarget:
    """One endpoint the watchtower scrapes."""

    name: str              #: instance label value (replica id, "router", ...)
    url: str               #: base URL, e.g. ``http://127.0.0.1:8100``
    role: str = "replica"  #: ``replica`` | ``router`` (informational)


class Collector:
    """Scrapes every target into one :class:`TimeSeriesStore`."""

    def __init__(
        self,
        targets: "list[ScrapeTarget]",
        store: TimeSeriesStore,
        timeout_s: float = 5.0,
        logger: "object | None" = None,
    ) -> None:
        self.targets = list(targets)
        self.store = store
        self.timeout_s = timeout_s
        self.logger = logger
        self._conns: "dict[str, Connection]" = {}
        self._scrapes = 0
        self._failures = 0

    # -- transport -------------------------------------------------------
    def _connection(self, target: ScrapeTarget) -> Connection:
        conn = self._conns.get(target.name)
        if conn is None:
            parts = urlsplit(target.url)
            conn = Connection(
                parts.hostname, parts.port or 80, timeout=self.timeout_s
            )
            self._conns[target.name] = conn
        return conn

    def _drop_connection(self, target: ScrapeTarget) -> None:
        conn = self._conns.pop(target.name, None)
        if conn is not None:
            try:
                conn.close()
            except Exception:
                pass

    def _fetch(self, target: ScrapeTarget) -> str:
        conn = self._connection(target)
        try:
            conn.request("GET", METRICS_PATH)
            resp = conn.getresponse()
            body = resp.read()
        except Exception:
            # one retry on a fresh connection: the pooled socket may
            # simply have idled out between scrapes
            self._drop_connection(target)
            conn = self._connection(target)
            conn.request("GET", METRICS_PATH)
            resp = conn.getresponse()
            body = resp.read()
        if resp.status != 200:
            raise RuntimeError(f"HTTP {resp.status} from {target.url}")
        return body.decode("utf-8")

    # -- scraping --------------------------------------------------------
    def scrape_target(self, target: ScrapeTarget, now: float) -> dict:
        """Scrape one target; returns a per-target summary dict."""
        started = time.monotonic()
        try:
            samples = parse_exposition(self._fetch(target))
        except Exception as exc:
            self._drop_connection(target)
            self._failures += 1
            self.store.observe("watch_scrape_up", {"instance": target.name},
                               0.0, now)
            if self.logger is not None:
                self.logger.log(
                    "scrape_error", instance=target.name, url=target.url,
                    error=f"{type(exc).__name__}: {exc}",
                )
            return {"instance": target.name, "ok": False,
                    "error": f"{type(exc).__name__}: {exc}"}
        for name, labels, value in samples:
            self.store.observe(
                name, {**labels, "instance": target.name}, value, now
            )
        duration_ms = (time.monotonic() - started) * 1e3
        self.store.observe("watch_scrape_up", {"instance": target.name},
                           1.0, now)
        self.store.observe("watch_scrape_duration_ms",
                           {"instance": target.name}, duration_ms, now)
        return {"instance": target.name, "ok": True,
                "samples": len(samples),
                "duration_ms": round(duration_ms, 3)}

    def scrape_once(self, now: "float | None" = None) -> dict:
        """Scrape every target once; returns the tick summary."""
        if now is None:
            now = time.monotonic()
        results = [self.scrape_target(target, now) for target in self.targets]
        self._scrapes += 1
        return {
            "t": now,
            "targets": results,
            "ok": sum(1 for r in results if r["ok"]),
            "failed": sum(1 for r in results if not r["ok"]),
        }

    def close(self) -> None:
        for target in list(self.targets):
            self._drop_connection(target)

    def stats(self) -> dict:
        return {
            "targets": len(self.targets),
            "scrapes": self._scrapes,
            "scrape_failures": self._failures,
        }
