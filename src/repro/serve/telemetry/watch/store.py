"""Bounded in-memory time-series store for the fleet watchtower.

One :class:`TimeSeriesStore` holds every series the collector scrapes:
a series is identified by ``(name, labels)`` and keeps a ring of
``(t, value)`` points (a ``deque(maxlen=...)``, so old points fall off
the back as new scrapes arrive).  The store is deliberately small and
stdlib-only - it is the watchtower's working set, not a database:

* :meth:`observe` appends one point (timestamps are caller-supplied so
  tests can replay synthetic histories deterministically; the collector
  stamps ``time.monotonic()``);
* :meth:`increase` / :meth:`rate` derive counter deltas over a window
  with Prometheus-style reset handling: a negative delta between
  consecutive points means the counter restarted, so the new value *is*
  the delta;
* :meth:`agg` answers windowed queries over gauge samples;
* a series-count cap evicts the least-recently-updated series, and
  both eviction kinds (ring points dropped, whole series evicted) are
  counted so ``/v1/watch/series`` can report store pressure honestly.

Thread-safety: one lock around every mutation and query - the scrape
loop, the SLO engine, and the HTTP handlers all touch the store from
different threads.
"""

from __future__ import annotations

import threading
from collections import deque

#: labels are stored internally as a hashable, order-independent key
LabelKey = tuple


def label_key(labels: "dict | None") -> LabelKey:
    """Canonical hashable identity of one label set."""
    return tuple(sorted((labels or {}).items()))


class _Series:
    __slots__ = ("name", "labels", "points", "dropped", "last_update")

    def __init__(self, name: str, labels: dict, capacity: int) -> None:
        self.name = name
        self.labels = dict(labels)
        self.points: "deque[tuple[float, float]]" = deque(maxlen=capacity)
        self.dropped = 0
        self.last_update = 0.0


class TimeSeriesStore:
    """Bounded map of ``(name, labels) -> ring of (t, value)``."""

    def __init__(
        self, capacity_per_series: int = 1024, max_series: int = 4096
    ) -> None:
        if capacity_per_series < 2:
            raise ValueError("capacity_per_series must be >= 2")
        if max_series < 1:
            raise ValueError("max_series must be >= 1")
        self.capacity_per_series = capacity_per_series
        self.max_series = max_series
        self._lock = threading.Lock()
        self._series: "dict[tuple[str, LabelKey], _Series]" = {}
        self._points_dropped = 0
        self._series_evicted = 0

    # -- writing ---------------------------------------------------------
    def observe(
        self, name: str, labels: "dict | None", value: float, t: float
    ) -> None:
        """Append one ``(t, value)`` point to the series."""
        key = (name, label_key(labels))
        value = float(value)
        t = float(t)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                if len(self._series) >= self.max_series:
                    self._evict_one_locked()
                series = _Series(name, labels or {}, self.capacity_per_series)
                self._series[key] = series
            if len(series.points) == series.points.maxlen:
                series.dropped += 1
                self._points_dropped += 1
            series.points.append((t, value))
            series.last_update = t

    def _evict_one_locked(self) -> None:
        victim_key = min(
            self._series, key=lambda k: self._series[k].last_update
        )
        del self._series[victim_key]
        self._series_evicted += 1

    # -- enumeration -----------------------------------------------------
    def names(self) -> "list[str]":
        with self._lock:
            return sorted({series.name for series in self._series.values()})

    def match(
        self, name: str, labels: "dict | None" = None
    ) -> "list[tuple[dict, list[tuple[float, float]]]]":
        """Every series of ``name`` whose labels are a superset of
        ``labels``; returns ``[(labels, points), ...]`` copies."""
        want = (labels or {}).items()
        out: "list[tuple[dict, list[tuple[float, float]]]]" = []
        with self._lock:
            for series in self._series.values():
                if series.name != name:
                    continue
                if not all(series.labels.get(k) == v for k, v in want):
                    continue
                out.append((dict(series.labels), list(series.points)))
        out.sort(key=lambda pair: sorted(pair[0].items()))
        return out

    def points(
        self, name: str, labels: "dict | None" = None
    ) -> "list[tuple[float, float]]":
        """The exact series' points (empty list when absent)."""
        key = (name, label_key(labels))
        with self._lock:
            series = self._series.get(key)
            return list(series.points) if series is not None else []

    def latest(
        self,
        name: str,
        labels: "dict | None" = None,
        max_age_s: "float | None" = None,
        now: "float | None" = None,
    ) -> "float | None":
        """The most recent value, or ``None`` when absent or stale."""
        pts = self.points(name, labels)
        if not pts:
            return None
        t, value = pts[-1]
        if max_age_s is not None and now is not None and now - t > max_age_s:
            return None
        return value

    # -- windowed queries ------------------------------------------------
    def _window(
        self, name: str, labels: "dict | None", window_s: float, now: float
    ) -> "list[tuple[float, float]]":
        cutoff = now - window_s
        return [(t, v) for t, v in self.points(name, labels) if t >= cutoff]

    def values(
        self, name: str, labels: "dict | None", window_s: float, now: float
    ) -> "list[float]":
        """Raw sample values inside the window."""
        return [v for _, v in self._window(name, labels, window_s, now)]

    def increase(
        self, name: str, labels: "dict | None", window_s: float, now: float
    ) -> float:
        """Counter increase over the window, reset-aware.

        Sums consecutive deltas; a negative delta means the counter
        restarted from zero, so the new absolute value is taken as the
        contribution (the standard Prometheus ``increase`` convention).
        """
        pts = self._window(name, labels, window_s, now)
        if len(pts) < 2:
            return 0.0
        total = 0.0
        for (_, prev), (_, cur) in zip(pts, pts[1:]):
            delta = cur - prev
            total += cur if delta < 0 else delta
        return total

    def rate(
        self, name: str, labels: "dict | None", window_s: float, now: float
    ) -> float:
        """Per-second counter rate over the window (0.0 if <2 points)."""
        pts = self._window(name, labels, window_s, now)
        if len(pts) < 2:
            return 0.0
        span = pts[-1][0] - pts[0][0]
        if span <= 0:
            return 0.0
        return self.increase(name, labels, window_s, now) / span

    @staticmethod
    def rate_series(
        pts: "list[tuple[float, float]]",
    ) -> "list[tuple[float, float]]":
        """Pointwise rate derivation of one counter series: for each
        consecutive pair, the reset-aware delta divided by the time
        step, stamped at the newer point.  Feeds sparklines and the
        ``derive=rate`` mode of ``/v1/watch/series``."""
        out: "list[tuple[float, float]]" = []
        for (t0, prev), (t1, cur) in zip(pts, pts[1:]):
            step = t1 - t0
            if step <= 0:
                continue
            delta = cur - prev
            out.append((t1, (cur if delta < 0 else delta) / step))
        return out

    def agg(
        self,
        name: str,
        labels: "dict | None",
        how: str,
        window_s: float,
        now: float,
    ) -> "float | None":
        """One windowed aggregate: ``max``/``min``/``mean``/``last``."""
        samples = self.values(name, labels, window_s, now)
        if not samples:
            return None
        if how == "max":
            return max(samples)
        if how == "min":
            return min(samples)
        if how == "mean":
            return sum(samples) / len(samples)
        if how == "last":
            return samples[-1]
        raise ValueError(f"unknown aggregate {how!r}")

    # -- accounting ------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "series": len(self._series),
                "points": sum(
                    len(s.points) for s in self._series.values()
                ),
                "points_dropped": self._points_dropped,
                "series_evicted": self._series_evicted,
                "capacity_per_series": self.capacity_per_series,
                "max_series": self.max_series,
            }
