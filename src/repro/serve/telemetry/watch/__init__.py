"""Fleet watchtower: scrape the fleet, keep history, alert, self-heal.

The watchtower is the operated half of the telemetry plane.  The
serving stack exposes point-in-time state (``/v1/metrics``,
``/v1/trace``, the router's fleet section); this subpackage turns that
into an operated system:

* :mod:`~repro.serve.telemetry.watch.collector` scrapes every
  replica's (and the router's) Prometheus exposition on an interval,
  validating with the same strict parser CI uses;
* :mod:`~repro.serve.telemetry.watch.store` keeps a bounded ring of
  ``(t, value)`` points per series with counter-reset-aware rate and
  windowed aggregate queries;
* :mod:`~repro.serve.telemetry.watch.rules` /
  :mod:`~repro.serve.telemetry.watch.engine` evaluate declarative SLO
  rules (multi-window burn rate, thresholds, replica-down, per-model
  energy budgets) into alerts with a firing/resolved lifecycle;
* :mod:`~repro.serve.telemetry.watch.watchtower` composes the tick
  loop and the opt-in auto-drain remediation hook;
* :mod:`~repro.serve.telemetry.watch.httpd` serves
  ``/v1/watch/alerts``, ``/v1/watch/series``, ``/v1/watch/rules`` and
  the HTML dashboard.

Run it: ``python -m repro.serve.telemetry.watch --router http://...``.
"""

from .collector import Collector, ScrapeTarget
from .engine import Alert, SLOEngine
from .httpd import WatchHTTPServer, serve_watch
from .rules import Rule, default_rules, load_rules, make_rule
from .store import TimeSeriesStore
from .watchtower import Watchtower, discover_replicas

__all__ = [
    "Alert",
    "Collector",
    "Rule",
    "SLOEngine",
    "ScrapeTarget",
    "TimeSeriesStore",
    "WatchHTTPServer",
    "Watchtower",
    "default_rules",
    "discover_replicas",
    "load_rules",
    "make_rule",
    "serve_watch",
]
