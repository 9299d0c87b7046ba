"""The watchtower proper: scrape -> evaluate -> (optionally) remediate.

:class:`Watchtower` composes the collector, the time-series store, and
the SLO engine into one tick loop, and owns the only write path back
into the fleet: when ``auto_drain`` is on and a firing alert carries
the ``drain`` action (the ``replica_down`` rule by default), it POSTs
``/v1/router/drain`` for the breaching replica.

Auto-drain safety - remediation must never make an outage worse:

* **opt-in**: ``auto_drain`` defaults off; without it the watchtower
  only observes and alerts;
* **cooldown**: one drain attempt per replica per ``drain_cooldown_s``
  - a flapping replica cannot generate a drain storm;
* **last-replica guard**: before draining, the router's ``/v1/router``
  topology is consulted and the drain is skipped (and logged) when it
  would leave zero available replicas;
* drains use ``timeout=0``: mark-and-return, never blocking the tick
  loop on the router waiting for in-flight requests; every router call
  is bounded by :data:`~.collector.REQUEST_TIMEOUT_S`.

Every remediation attempt - acted on, skipped, failed - is logged
through the :class:`StructuredLogger` and kept in a bounded history
the ``/v1/watch/alerts`` document includes.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from urllib.parse import quote

from repro.serve.http11 import fetch

from .collector import REQUEST_TIMEOUT_S, Collector, ScrapeTarget
from .engine import SLOEngine
from .rules import Rule, default_rules
from .store import TimeSeriesStore


def discover_replicas(router_url: str) -> "list[ScrapeTarget]":
    """Scrape targets for every replica in the router's topology.

    Reads ``GET /v1/router`` and returns one target per configured
    replica, named by its learned replica id (falling back to its URL).
    """
    status, body = fetch(router_url, "GET", "/v1/router", REQUEST_TIMEOUT_S)
    if status != 200:
        raise RuntimeError(f"HTTP {status} from {router_url}/v1/router")
    topology = json.loads(body)
    targets = []
    for entry in topology.get("replicas", []):
        url = entry.get("url")
        if not url:
            continue
        name = entry.get("replica_id") or url
        targets.append(ScrapeTarget(name=name, url=url, role="replica"))
    return targets


class Watchtower:
    """Scrapes a fleet, evaluates SLO rules, optionally self-heals."""

    def __init__(
        self,
        targets: "list[ScrapeTarget]",
        rules: "list[Rule] | None" = None,
        interval_s: float = 1.0,
        router_url: "str | None" = None,
        auto_drain: bool = False,
        drain_cooldown_s: float = 60.0,
        logger: "object | None" = None,
        store: "TimeSeriesStore | None" = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        self.interval_s = interval_s
        self.router_url = router_url.rstrip("/") if router_url else None
        self.auto_drain = auto_drain
        self.drain_cooldown_s = drain_cooldown_s
        self.logger = logger
        self.store = store or TimeSeriesStore()
        self.collector = Collector(targets, self.store, logger=logger)
        self.rules = list(rules) if rules is not None else default_rules()
        self.engine = SLOEngine(self.store, self.rules, logger=logger)
        self._drained_at: "dict[str, float]" = {}
        self._remediations: "deque[dict]" = deque(maxlen=256)
        self._ticks = 0
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None
        self._started_at = time.monotonic()

    # -- one tick --------------------------------------------------------
    def tick(self, now: "float | None" = None) -> dict:
        """Scrape everything, evaluate every rule, act on firing
        drain-action alerts.  Returns the tick summary."""
        if now is None:
            now = time.monotonic()
        scrape = self.collector.scrape_once(now)
        events = self.engine.evaluate(now)
        for transition, alert in events:
            if (
                transition == "firing"
                and alert.action == "drain"
                and "replica" in alert.labels
            ):
                self._maybe_drain(alert, now)
        self._ticks += 1
        return {
            "t": now,
            "scrape": scrape,
            "transitions": [
                (transition, alert.rule, dict(alert.labels))
                for transition, alert in events
            ],
            "firing": len(self.engine.firing()),
        }

    # -- remediation -----------------------------------------------------
    def _log_remediation(self, record: dict) -> None:
        self._remediations.append(record)
        if self.logger is not None:
            self.logger.log("remediation", **record)

    def _maybe_drain(self, alert, now: float) -> None:
        replica = alert.labels["replica"]
        record = {
            "action": "drain",
            "rule": alert.rule,
            "replica": replica,
            "at": round(time.time(), 3),
            "acted": False,
        }
        if not self.auto_drain:
            record["skipped"] = "auto_drain disabled"
            self._log_remediation(record)
            return
        if self.router_url is None:
            record["skipped"] = "no router URL configured"
            self._log_remediation(record)
            return
        last = self._drained_at.get(replica)
        if last is not None and now - last < self.drain_cooldown_s:
            record["skipped"] = (
                f"cooldown ({self.drain_cooldown_s:g}s) not elapsed"
            )
            self._log_remediation(record)
            return
        remaining = self._available_excluding(replica)
        if remaining is not None and remaining < 1:
            record["skipped"] = (
                "last-replica guard (no other available replica)"
            )
            self._log_remediation(record)
            return
        self._drained_at[replica] = now
        try:
            status, body = fetch(
                self.router_url, "POST",
                f"/v1/router/drain?replica={quote(replica)}&timeout=0",
                REQUEST_TIMEOUT_S,
            )
        except Exception as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
        else:
            record["acted"] = status == 200
            record["status"] = status
            if status != 200:
                record["error"] = body[:200].decode("utf-8", "replace")
        self._log_remediation(record)

    def _available_excluding(self, replica: str) -> "int | None":
        """How many replicas would still take traffic after draining
        ``replica``, from the router's topology.  The drain target is
        excluded whatever its state - a dead replica counts toward
        ``available`` on some routers' health views, and draining it
        must not be blocked by its own corpse.  ``None`` (topology
        unreachable, or any answer but a 200) lets the drain proceed: a
        breaching replica is better gone even on partial knowledge."""
        if self.router_url is None:
            return None
        try:
            status, body = fetch(
                self.router_url, "GET", "/v1/router", REQUEST_TIMEOUT_S
            )
            if status != 200:
                return None
            doc = json.loads(body)
            count = 0
            for entry in doc.get("replicas", []):
                if replica in (entry.get("replica_id"), entry.get("url")):
                    continue
                if entry.get("healthy") and not entry.get("draining"):
                    count += 1
            return count
        except Exception:
            return None

    # -- background loop -------------------------------------------------
    def start(self) -> None:
        """Run :meth:`tick` every ``interval_s`` on a daemon thread."""
        if self._thread is not None:
            raise RuntimeError("watchtower already started")
        self._thread = threading.Thread(
            target=self._loop, name="watchtower", daemon=True
        )
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.is_set():
            started = time.monotonic()
            try:
                self.tick()
            except Exception as exc:  # a bad tick must not kill the loop
                if self.logger is not None:
                    self.logger.log(
                        "tick_error", error=f"{type(exc).__name__}: {exc}"
                    )
            elapsed = time.monotonic() - started
            self._stop.wait(max(0.05, self.interval_s - elapsed))

    def close(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.collector.close()

    # -- documents (HTTP surface + tests) --------------------------------
    def alerts_doc(self) -> dict:
        now = time.monotonic()
        return {
            "active": [a.as_dict(now) for a in self.engine.active()],
            "resolved": [a.as_dict(now) for a in self.engine.history()],
            "remediations": list(self._remediations),
            "engine": self.engine.stats(),
        }

    def series_doc(
        self,
        name: "str | None" = None,
        labels: "dict | None" = None,
        derive: "str | None" = None,
    ) -> dict:
        """The ``/v1/watch/series`` document.

        Without ``name``: the series-name directory plus store stats.
        With ``name``: every matching series' points; ``derive="rate"``
        returns the pointwise reset-aware rate instead of raw values.
        """
        if name is None:
            return {"names": self.store.names(), "store": self.store.stats()}
        series = []
        for found_labels, pts in self.store.match(name, labels):
            if derive == "rate":
                pts = self.store.rate_series(pts)
            elif derive:
                raise ValueError(f"unknown derive {derive!r}")
            series.append({
                "name": name,
                "labels": found_labels,
                "points": [[round(t, 3), v] for t, v in pts],
            })
        return {"name": name, "derive": derive, "series": series}

    def stats(self) -> dict:
        return {
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "interval_s": self.interval_s,
            "ticks": self._ticks,
            "auto_drain": self.auto_drain,
            "router_url": self.router_url,
            "collector": self.collector.stats(),
            "store": self.store.stats(),
            "engine": self.engine.stats(),
        }
