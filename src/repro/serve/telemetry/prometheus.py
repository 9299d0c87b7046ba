"""Prometheus text exposition (format 0.0.4) for the metrics snapshot.

:func:`render_exposition` turns one
:meth:`~repro.serve.service.SconnaService.metrics_snapshot` dict into
the plain-text scrape format, so ``/v1/metrics?format=prometheus`` is
directly consumable by a Prometheus/VictoriaMetrics scraper across a
future replica fleet.  Mapping choices:

* monotonically-growing snapshot counts (requests, images, batches,
  errors, sheds, ring and pipe-fallback batch counts, ring evictions)
  render as ``counter``;
* instantaneous values (uptime, queue depth, in-flight totals and
  per-model gauges, ring occupancy, per-shard liveness) as ``gauge``;
* the batch-size histogram renders as a real Prometheus ``histogram``
  (cumulative ``le`` buckets ending in ``+Inf``, with ``_sum`` and
  ``_count``), built from the exact per-size counts the snapshot
  carries;
* latency and queue-wait percentiles render as ``summary`` quantiles -
  the snapshot keeps percentiles, not raw samples, so a histogram
  would be fabricated.

Label values are escaped per the exposition spec (backslash, double
quote, newline).  :func:`parse_exposition` is the deliberately small
validating parser the CI smoke leg and the format tests use: it checks
line syntax, ``TYPE`` consistency, and histogram bucket monotonicity,
returning the samples it accepted.
"""

from __future__ import annotations

import math

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_PREFIX = "sconna"


def escape_label_value(value: object) -> str:
    """Escape one label value per the text-exposition rules."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _fmt(value: object) -> str:
    """One sample value: integers stay integral, floats round-trip."""
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


class _Writer:
    def __init__(self) -> None:
        self.lines: "list[str]" = []

    def header(self, name: str, kind: str, help_text: str) -> None:
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {kind}")

    def sample(self, name: str, value: object,
               labels: "dict | None" = None) -> None:
        if labels:
            body = ",".join(
                f'{k}="{escape_label_value(v)}"' for k, v in labels.items()
            )
            self.lines.append(f"{name}{{{body}}} {_fmt(value)}")
        else:
            self.lines.append(f"{name} {_fmt(value)}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _summary(w: _Writer, name: str, stats: dict, help_text: str) -> None:
    """A summary family from the snapshot's ms_stats percentile dict."""
    w.header(name, "summary", help_text)
    count = int(stats.get("count", 0))
    for q, key in (("0.5", "p50_ms"), ("0.95", "p95_ms"), ("0.99", "p99_ms")):
        if key in stats:
            w.sample(name, stats[key] / 1e3, {"quantile": q})
    if count and "mean_ms" in stats:
        w.sample(f"{name}_sum", stats["mean_ms"] / 1e3 * count)
    w.sample(f"{name}_count", count)


def _batch_histogram(w: _Writer, hist: "dict[str, int]") -> None:
    """Cumulative-bucket histogram from the exact batch-size counts."""
    name = f"{_PREFIX}_batch_images"
    w.header(name, "histogram", "Images per dispatched batch.")
    sizes = sorted((int(k), int(v)) for k, v in hist.items())
    cumulative = 0
    total_images = 0
    for size, count in sizes:
        cumulative += count
        total_images += size * count
        w.sample(f"{name}_bucket", cumulative, {"le": str(size)})
    w.sample(f"{name}_bucket", cumulative, {"le": "+Inf"})
    w.sample(f"{name}_sum", total_images)
    w.sample(f"{name}_count", cumulative)


def render_exposition(snapshot: dict) -> str:
    """The full text exposition for one aggregated metrics snapshot."""
    w = _Writer()

    w.header(f"{_PREFIX}_requests_total", "counter", "Requests completed.")
    w.sample(f"{_PREFIX}_requests_total", int(snapshot.get("requests", 0)))
    w.header(f"{_PREFIX}_images_total", "counter", "Images inferred.")
    w.sample(f"{_PREFIX}_images_total", int(snapshot.get("images", 0)))
    w.header(f"{_PREFIX}_batches_total", "counter", "Coalesced batches executed.")
    w.sample(f"{_PREFIX}_batches_total", int(snapshot.get("batches", 0)))
    w.header(f"{_PREFIX}_errors_total", "counter", "Requests failed in execution.")
    w.sample(f"{_PREFIX}_errors_total", int(snapshot.get("errors", 0)))
    w.header(f"{_PREFIX}_shed_total", "counter",
             "Requests rejected by admission control.")
    w.sample(f"{_PREFIX}_shed_total", int(snapshot.get("shed", 0)))

    accel = snapshot.get("accel_costs") or {}
    if accel:
        w.header(f"{_PREFIX}_accel_energy_joules_total", "counter",
                 "Simulated accelerator energy spent serving the model.")
        for model in sorted(accel):
            w.sample(f"{_PREFIX}_accel_energy_joules_total",
                     float(accel[model].get("energy_j", 0.0)),
                     {"model": model})
        w.header(f"{_PREFIX}_accel_latency_seconds_total", "counter",
                 "Simulated accelerator device time spent serving the model.")
        for model in sorted(accel):
            w.sample(f"{_PREFIX}_accel_latency_seconds_total",
                     float(accel[model].get("latency_s", 0.0)),
                     {"model": model})
        w.header(f"{_PREFIX}_accel_images_total", "counter",
                 "Images covered by the simulated accelerator cost counters.")
        for model in sorted(accel):
            w.sample(f"{_PREFIX}_accel_images_total",
                     int(accel[model].get("images", 0)), {"model": model})

    if snapshot.get("uptime_s") is not None:
        w.header(f"{_PREFIX}_uptime_seconds", "gauge",
                 "Seconds since the service started.")
        w.sample(f"{_PREFIX}_uptime_seconds", float(snapshot["uptime_s"]))
    if snapshot.get("queue_depth_current") is not None:
        w.header(f"{_PREFIX}_queue_depth", "gauge",
                 "Requests currently waiting for a batch (all lanes).")
        w.sample(f"{_PREFIX}_queue_depth",
                 int(snapshot["queue_depth_current"]))

    inflight = snapshot.get("inflight_by_model")
    if inflight is not None:
        w.header(f"{_PREFIX}_inflight_requests", "gauge",
                 "Admitted, not yet completed requests per model.")
        if inflight:
            for model in sorted(inflight):
                w.sample(f"{_PREFIX}_inflight_requests",
                         int(inflight[model]), {"model": model})
        else:
            w.sample(f"{_PREFIX}_inflight_requests", 0)

    _summary(w, f"{_PREFIX}_request_latency_seconds",
             snapshot.get("latency") or {},
             "End-to-end request latency (enqueue to completion).")
    _summary(w, f"{_PREFIX}_queue_wait_seconds",
             snapshot.get("queue_wait") or {},
             "Time from enqueue to batch execution start.")
    _batch_histogram(
        w, (snapshot.get("batch_size") or {}).get("histogram") or {}
    )

    backend = snapshot.get("backend") or {}
    if backend.get("kind") == "process":
        for key, help_text in (
            ("shm_batches", "Batches dispatched through shared-memory rings."),
            ("pipe_fallbacks",
             "Batches sent over the pipe: ring full, too small, or missing."),
        ):
            if backend.get(key) is not None:
                w.header(f"{_PREFIX}_{key}_total", "counter", help_text)
                w.sample(f"{_PREFIX}_{key}_total", int(backend[key]))
        w.header(f"{_PREFIX}_shard_restarts_total", "counter",
                 "Shard processes respawned after a crash.")
        w.sample(f"{_PREFIX}_shard_restarts_total",
                 int(backend.get("restarts", 0)))
        per_shard = backend.get("per_shard") or []
        if per_shard:
            w.header(f"{_PREFIX}_shard_up", "gauge",
                     "1 when the shard process is alive.")
            for shard in per_shard:
                w.sample(f"{_PREFIX}_shard_up", shard.get("alive", False),
                         {"shard": shard.get("shard")})
            w.header(f"{_PREFIX}_shard_inflight_batches", "gauge",
                     "Batches dispatched to the shard, not yet returned.")
            for shard in per_shard:
                w.sample(f"{_PREFIX}_shard_inflight_batches",
                         int(shard.get("in_flight", 0)),
                         {"shard": shard.get("shard")})
            if any(s.get("ring_bytes_in_use") is not None for s in per_shard):
                w.header(f"{_PREFIX}_ring_bytes_in_use", "gauge",
                         "Bytes allocated in the shard's tx shm ring.")
                for shard in per_shard:
                    used = shard.get("ring_bytes_in_use")
                    if used is not None:
                        w.sample(f"{_PREFIX}_ring_bytes_in_use", int(used),
                                 {"shard": shard.get("shard")})

    admission = snapshot.get("admission") or {}
    if admission:
        w.header(f"{_PREFIX}_admitted_inflight", "gauge",
                 "Requests admitted and not yet resolved.")
        w.sample(f"{_PREFIX}_admitted_inflight",
                 int(admission.get("in_flight", 0)))
        w.header(f"{_PREFIX}_admitted_bytes", "gauge",
                 "Payload bytes admitted and not yet resolved.")
        w.sample(f"{_PREFIX}_admitted_bytes",
                 int(admission.get("queued_bytes", 0)))

    fleet = snapshot.get("fleet") or {}
    if fleet:
        replicas = fleet.get("replicas") or []

        def _replica_label(entry: dict) -> str:
            return entry.get("replica_id") or entry.get("url") or "?"

        w.header(f"{_PREFIX}_replica_up", "gauge",
                 "1 when the replica answers its health probe.")
        for entry in replicas:
            w.sample(f"{_PREFIX}_replica_up", entry.get("healthy", False),
                     {"replica": _replica_label(entry)})
        w.header(f"{_PREFIX}_replica_draining", "gauge",
                 "1 while the replica is administratively draining.")
        for entry in replicas:
            w.sample(f"{_PREFIX}_replica_draining",
                     entry.get("draining", False),
                     {"replica": _replica_label(entry)})
        w.header(f"{_PREFIX}_replica_inflight", "gauge",
                 "Requests the router has in flight to the replica.")
        for entry in replicas:
            w.sample(f"{_PREFIX}_replica_inflight",
                     int(entry.get("inflight", 0)),
                     {"replica": _replica_label(entry)})
        w.header(f"{_PREFIX}_replica_routed_total", "counter",
                 "Requests the router forwarded to the replica.")
        for entry in replicas:
            w.sample(f"{_PREFIX}_replica_routed_total",
                     int(entry.get("routed", 0)),
                     {"replica": _replica_label(entry)})

    router = snapshot.get("router") or {}
    if router:
        for key, name, help_text in (
            ("routed_total", "routed",
             "Requests the router forwarded to a replica."),
            ("redispatches", "redispatches",
             "Forwards retried on another replica after a dead one."),
            ("unroutable", "unroutable",
             "Requests rejected because no replica was available."),
            ("proxy_errors", "proxy_errors",
             "Forwards that failed on every candidate or died mid-relay."),
        ):
            if router.get(key) is not None:
                w.header(f"{_PREFIX}_router_{name}_total", "counter",
                         help_text)
                w.sample(f"{_PREFIX}_router_{name}_total", int(router[key]))

    telemetry = snapshot.get("telemetry") or {}
    store = telemetry.get("store") or {}
    if store:
        w.header(f"{_PREFIX}_traces_stored", "gauge",
                 "Completed traces held in the in-memory ring.")
        w.sample(f"{_PREFIX}_traces_stored", int(store.get("stored", 0)))
        w.header(f"{_PREFIX}_traces_evicted_total", "counter",
                 "Traces evicted from the ring (capacity reached).")
        w.sample(f"{_PREFIX}_traces_evicted_total",
                 int(store.get("evicted", 0)))

    return w.text()


# -- validation (tests + CI smoke leg) --------------------------------------

def _parse_labels(body: str, line: str) -> dict:
    """Parse one ``k="v",...`` label body, honouring escapes."""
    labels: "dict[str, str]" = {}
    i = 0
    while i < len(body):
        eq = body.index("=", i)
        key = body[i:eq].strip()
        if not key or not key[0].isalpha() and key[0] != "_":
            raise ValueError(f"bad label name in {line!r}")
        if body[eq + 1] != '"':
            raise ValueError(f"unquoted label value in {line!r}")
        j = eq + 2
        value_chars: "list[str]" = []
        while True:
            if j >= len(body):
                raise ValueError(f"unterminated label value in {line!r}")
            ch = body[j]
            if ch == "\\":
                esc = body[j + 1]
                value_chars.append(
                    {"\\": "\\", '"': '"', "n": "\n"}.get(esc, esc)
                )
                j += 2
                continue
            if ch == '"':
                break
            value_chars.append(ch)
            j += 1
        labels[key] = "".join(value_chars)
        i = j + 1
        if i < len(body):
            if body[i] != ",":
                raise ValueError(f"bad label separator in {line!r}")
            i += 1
    return labels


def parse_exposition(text: str) -> "list[tuple[str, dict, float]]":
    """Parse and validate one text exposition; returns the samples.

    Checks line syntax, that every sample's family was ``# TYPE``d,
    that sample values parse as floats, that no two samples share one
    ``(name, labels)`` identity, that counter samples are never ``NaN``,
    and that every histogram's cumulative buckets are non-decreasing
    and end with ``le="+Inf"``.  Raises :class:`ValueError` on the
    first violation - this is the small validating parser the CI smoke
    leg and the watchtower collector run against a live
    ``/v1/metrics?format=prometheus`` scrape.
    """
    samples: "list[tuple[str, dict, float]]" = []
    types: "dict[str, str]" = {}
    seen: "set[tuple[str, tuple]]" = set()
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"malformed TYPE line: {line!r}")
            if parts[3] not in ("counter", "gauge", "histogram", "summary",
                                "untyped"):
                raise ValueError(f"unknown metric type in {line!r}")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        if "{" in line:
            name, _, rest = line.partition("{")
            body, _, value_part = rest.rpartition("}")
            labels = _parse_labels(body, line)
        else:
            name, _, value_part = line.partition(" ")
            labels = {}
        name = name.strip()
        value_part = value_part.strip()
        if not name or not value_part:
            raise ValueError(f"malformed sample line: {line!r}")
        try:
            value = float(value_part)
        except ValueError:
            raise ValueError(f"bad sample value in {line!r}") from None
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if family.endswith(suffix) and family[: -len(suffix)] in types:
                family = family[: -len(suffix)]
                break
        if family not in types:
            raise ValueError(f"sample {name!r} has no # TYPE declaration")
        identity = (name, tuple(sorted(labels.items())))
        if identity in seen:
            raise ValueError(
                f"duplicate sample {name!r} with labels {labels!r}"
            )
        seen.add(identity)
        if types[family] == "counter" and math.isnan(value):
            raise ValueError(f"counter sample {name!r} has NaN value")
        samples.append((name, labels, value))

    # histogram checks: cumulative buckets non-decreasing, +Inf terminal
    for family, kind in types.items():
        if kind != "histogram":
            continue
        buckets = [
            (labels.get("le"), value)
            for name, labels, value in samples
            if name == f"{family}_bucket"
        ]
        if not buckets:
            raise ValueError(f"histogram {family!r} has no buckets")
        if buckets[-1][0] != "+Inf":
            raise ValueError(f"histogram {family!r} lacks a +Inf bucket")
        previous = -math.inf
        for le, value in buckets:
            if value < previous:
                raise ValueError(
                    f"histogram {family!r} bucket le={le!r} decreases"
                )
            previous = value
    return samples
