"""Telemetry plane for ``repro.serve``: tracing, metrics exposition,
structured logging.

* :mod:`~repro.serve.telemetry.trace` - sampled monotonic-clock span
  trees following one request across every seam (HTTP, admission,
  batcher, backend, shard, engine), with cross-process span rejoining
  and Chrome ``trace_event`` export;
* :mod:`~repro.serve.telemetry.prometheus` - text exposition
  (format 0.0.4) of the aggregated metrics snapshot for
  ``/v1/metrics?format=prometheus``, plus the small validating parser
  CI scrapes with;
* :mod:`~repro.serve.telemetry.logging` - one JSON line per request,
  joinable to traces by id;
* :mod:`~repro.serve.telemetry.watch` - the fleet watchtower
  (``python -m repro.serve.telemetry.watch``): scrapes every replica's
  exposition into a bounded time-series store, evaluates SLO burn-rate
  rules into firing/resolved alerts, and can self-heal by draining
  breaching replicas through the router.  Imported lazily - pulling in
  the telemetry plane never pays for the watchtower.
"""

from .logging import StructuredLogger
from .prometheus import (
    PROMETHEUS_CONTENT_TYPE,
    escape_label_value,
    parse_exposition,
    render_exposition,
)
from .trace import (
    POLICY_ALWAYS,
    POLICY_OFF,
    Span,
    Trace,
    TracePolicy,
    Tracer,
    TraceStore,
)

__all__ = [
    "POLICY_ALWAYS",
    "POLICY_OFF",
    "PROMETHEUS_CONTENT_TYPE",
    "Span",
    "StructuredLogger",
    "Trace",
    "TracePolicy",
    "Tracer",
    "TraceStore",
    "escape_label_value",
    "parse_exposition",
    "render_exposition",
]
