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

Each target's connection is kept alive between scrapes; a scrape is one
:meth:`~repro.serve.http11.Connection.exchange` bounded by
:data:`REQUEST_TIMEOUT_S`, so a hung target costs one timeout.
Timestamps are ``time.monotonic()`` unless the caller supplies ``now``
(tests replay deterministic histories that way).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.serve.http11 import Connection
from repro.serve.telemetry.prometheus import parse_exposition

from .store import TimeSeriesStore

METRICS_PATH = "/v1/metrics?format=prometheus"
#: longest wait for one read or write of a watchtower request
REQUEST_TIMEOUT_S = 5.0


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
        logger: "object | None" = None,
    ) -> None:
        self.targets = list(targets)
        self.store = store
        self.logger = logger
        self._conns: "dict[str, Connection]" = {}
        self._scrapes = 0
        self._failures = 0

    # -- transport -------------------------------------------------------
    def _fetch(self, target: ScrapeTarget) -> str:
        conn = self._conns.get(target.name)
        if conn is None:
            conn = Connection.to(target.url, REQUEST_TIMEOUT_S)
            self._conns[target.name] = conn
        resp = conn.exchange("GET", METRICS_PATH)
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
        for conn in self._conns.values():
            conn.close()

    def stats(self) -> dict:
        return {
            "targets": len(self.targets),
            "scrapes": self._scrapes,
            "scrape_failures": self._failures,
        }
