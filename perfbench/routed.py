"""Workload ``routed_closed_1c``: one client, single images, two hops.

A closed loop of seeded single-image sconna requests: one client holds
one keep-alive connection and sends on the default frame wire to
``python -m repro.serve.router``, which fronts one ``python -m
repro.serve`` replica (default thread backend and batching); router and
replica each run in their own process.  A second connection GETs the
fleet-merged Prometheus exposition through the router at fixed
completed-request marks, never on a clock, because the scrape's cost
grows with the samples the fleet retains.

At batch 1, batches never coalesce: latency is set by the client, HTTP,
router and metrics layers, and the engine is about a quarter of it.

The traced run sends the same seeded stream into four rungs - the
batch-1 ``QuantizedModel.forward``, in-process ``SconnaService.predict``,
HTTP direct to the replica, HTTP through the router - then restarts the
fleet with full tracing (``--trace-sample-rate 1 --trace-profile``) and
timing wrappers (``probe.py``) to attribute the hops.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import urllib.parse
from pathlib import Path

import numpy as np

from harness import (
    CALIB_IMAGES,
    SERVED_PROXY,
    Outcome,
    Probe,
    engine_breakdown,
    env_metrics,
    env_record,
    image_pool,
    median,
    noise_probe,
    oracle_solo,
    pct,
    profiled_forward,
    quantized_proxy,
    reference_rungs,
    same_bits,
    sub_seed,
)

N_SETUPS = 5
#: completed requests between two scrapes, and the last scrape mark
MARK_EVERY = 500
MARK_LAST = 2000
#: requests of the stream whose logits the per-layer oracle re-derives
N_CHECKED = 16
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
BENCH_DIR = Path(__file__).resolve().parent


class Stream:
    """The seeded request stream: request i's image and ADC seed."""

    def __init__(self, seed: int) -> None:
        self.pool = image_pool(seed, n_per_class=8)           # 80 images
        self.calibration = self.pool[:CALIB_IMAGES]
        self.seed_base = sub_seed(seed, 4)
        rng = np.random.default_rng(sub_seed(seed, 5))
        self.checked = sorted(int(i) for i in rng.choice(MARK_EVERY * 2, N_CHECKED, replace=False))

    def __getitem__(self, i: int):
        return self.pool[i % self.pool.shape[0]], self.seed_base + i


def _get(url: str, path: str, timeout: float = 30.0) -> "tuple[int, bytes]":
    parts = urllib.parse.urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class Fleet:
    """One replica process and one router process in front of it."""

    def __init__(self, registry: Path, workdir: Path, traced: bool = False) -> None:
        self.workdir = workdir
        self.traced = traced
        self.procs: "list[subprocess.Popen]" = []
        self.dumps: "list[Path]" = []
        replica_args = ["--registry", str(registry), "--port", "0", "--replica-id", "r0"]
        router_args = ["--port", "0"]
        if traced:
            replica_args += ["--trace-sample-rate", "1", "--trace-profile",
                             "--trace-capacity", "4096"]
            router_args += ["--trace-sample-rate", "1"]
        try:
            self.replica_url = self._start("repro.serve", replica_args, "serving ")
            self.router_url = self._start(
                "repro.serve.router", ["--replica", self.replica_url, *router_args],
                "routing ",
            )
        except BaseException:
            self.stop()
            raise

    def _start(self, module: str, args: "list[str]", banner: str) -> str:
        log = self.workdir / f"{module}-{len(self.procs)}.log"
        if self.traced:
            dump = self.workdir / f"{module}-{len(self.procs)}.probe.json"
            self.dumps.append(dump)
            cmd = [sys.executable, str(BENCH_DIR / "probe.py"), str(dump), module, *args]
        else:
            cmd = [sys.executable, "-m", module, *args]
        with log.open("wb") as fh:
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT)
        self.procs.append(proc)
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            for line in log.read_text(errors="replace").splitlines():
                if line.startswith(banner) and " at http://" in line:
                    return line.split(" at ", 1)[1].split()[0]
            if proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"{module} did not start: {log.read_text(errors='replace')[-2000:]}")

    def probe_samples(self) -> "dict[str, list[float]]":
        """Ask each wrapped process for its recorded call durations."""
        out: "dict[str, list[float]]" = {}
        for proc, dump in zip(self.procs, self.dumps):
            proc.send_signal(signal.SIGUSR1)
            deadline = time.monotonic() + 10.0
            while not dump.exists() and time.monotonic() < deadline:
                time.sleep(0.02)
            time.sleep(0.05)
            out.update(json.loads(dump.read_text()))
        return out

    def stop(self) -> None:
        """SIGTERM (router first, so it stops forwarding), then reap."""
        for proc in reversed(self.procs):
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in reversed(self.procs):
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs.clear()


def _setup(registry: Path, workdir: Path, stream: Stream, want0, out: Outcome,
           traced: bool = False):
    """Start a fleet and wait for its first correct routed answer."""
    from repro.serve import SconnaClient

    t0 = time.perf_counter()
    fleet = Fleet(registry, workdir, traced=traced)
    try:
        image, seed = stream[0]
        with SconnaClient(fleet.router_url) as client:
            got = client.predict(image, model=SERVED_PROXY, seed=seed).logits
        elapsed = time.perf_counter() - t0
        out.check(same_bits(got, want0), "first routed answer")
    except BaseException:
        fleet.stop()
        raise
    return elapsed, fleet


def _closed_loop(url: str, stream: Stream, seconds: float, out: Outcome,
                 first: int = 0, scrape_every: int = MARK_EVERY,
                 scrape_last: int = MARK_LAST, on_mark=None):
    """The measured loop; returns (latencies s, busy s, kept logits,
    scrape durations s).  Requests go out back to back for ``seconds``
    of request time; it keeps going untimed until the last scrape mark."""
    from repro.serve import SconnaClient

    parts = urllib.parse.urlsplit(url)
    scraper = http.client.HTTPConnection(parts.hostname, parts.port, timeout=30.0)
    latencies: "list[float]" = []
    scrapes: "list[float]" = []
    kept: "dict[int, np.ndarray]" = {}
    busy = 0.0
    done = 0
    series = out.series.setdefault("request_s", [])
    try:
        with SconnaClient(url) as client:
            while busy < seconds or done < scrape_last:
                i = first + done
                image, seed = stream[i]
                out.attempted += 1
                t0 = time.perf_counter()
                try:
                    pred = client.predict(image, model=SERVED_PROXY, seed=seed)
                except Exception as exc:  # a failed request, never fatal
                    out.fail(1, f"request {i}: {type(exc).__name__}: {exc}")
                    pred = None
                dt = time.perf_counter() - t0
                if busy < seconds:
                    latencies.append(dt)
                    busy += dt
                    series.append((busy, dt))
                if pred is not None and done in stream.checked:
                    kept[i] = pred.logits
                done += 1
                if done % scrape_every == 0 and done <= scrape_last:
                    out.attempted += 1
                    t0 = time.perf_counter()
                    scraper.request("GET", "/v1/metrics?format=prometheus")
                    resp = scraper.getresponse()
                    body = resp.read()
                    scrapes.append(time.perf_counter() - t0)
                    if resp.status != 200 or not body:
                        out.fail(1, f"scrape at {done}: HTTP {resp.status}")
                    if on_mark is not None:
                        on_mark(done)
    finally:
        scraper.close()
    return latencies, busy, kept, scrapes


def _check_kept(out: Outcome, qm, stream: Stream, kept, what: str) -> None:
    for i, logits in sorted(kept.items()):
        image, seed = stream[i]
        out.check(same_bits(logits, oracle_solo(qm, image, seed)), f"{what} request {i}")


def run(seed: int, seconds: float, trace: bool, out: Outcome) -> None:
    workdir = Path(os.environ["TMPDIR"]) / f"routed-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        _run(seed, seconds, trace, out, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(seed: int, seconds: float, trace: bool, out: Outcome, workdir: Path) -> None:
    from repro.serve import ModelRegistry

    stream = Stream(seed)
    qm = quantized_proxy(SERVED_PROXY, seed, stream.calibration)
    registry = workdir / "registry"
    ModelRegistry(registry).save(SERVED_PROXY, qm)
    want0 = oracle_solo(qm, *stream[0])
    out.env = env_record({SERVED_PROXY: qm})
    if trace:
        _traced(qm, registry, workdir, stream, want0, seconds, out)
        return

    setups, fleet = [], None
    try:
        for _ in range(N_SETUPS):
            if fleet is not None:
                fleet.stop()
            dt, fleet = _setup(registry, workdir, stream, want0, out)
            setups.append(dt)
        latencies, busy, kept, _ = _closed_loop(fleet.router_url, stream, seconds, out, first=1)
    finally:
        if fleet is not None:
            fleet.stop()
    _check_kept(out, qm, stream, kept, "routed")
    out.metrics.update({
        "setup_s": median(setups),
        "img_per_s": len(latencies) / busy,
        "latency_p50_ms": median(latencies) * 1e3,
    })
    out.notes.append(f"{len(latencies)} timed requests, 1 client, "
                     f"p99 {pct(latencies, 99.0) * 1e3:.2f} ms")


# -- the traced run ------------------------------------------------------------
def _rung(fn, stream: Stream, first: int, seconds: float, out: Outcome):
    """Send the stream into one rung for ``seconds``; returns
    (latencies s, logits by request index)."""
    lat, got = [], {}
    i = first
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        image, seed = stream[i]
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            logits = fn(image, seed)
        except Exception as exc:
            out.fail(1, f"rung request {i}: {type(exc).__name__}: {exc}")
        else:
            lat.append(time.perf_counter() - t0)
            if i - first < N_CHECKED:
                got[i] = logits
        i += 1
    return lat, got


def _span_stats(traces: "list[dict]") -> "dict[str, list[float]]":
    """Span durations (ms) by name over fetched trace documents."""
    out: "dict[str, list[float]]" = {}
    for doc in traces:
        for span in doc.get("spans", ()):
            if span.get("duration_ms") is not None:
                out.setdefault(span["name"], []).append(span["duration_ms"])
    return out


def _fetch_traces(url: str, limit: int) -> "list[dict]":
    status, body = _get(url, f"/v1/trace?limit={limit}")
    if status != 200:
        return []
    docs = []
    for summary in json.loads(body)["traces"]:
        status, body = _get(url, f"/v1/trace/{summary['trace_id']}")
        if status == 200:
            docs.append(json.loads(body))
    return docs


def _traced(qm, registry: Path, workdir: Path, stream: Stream, want0,
            seconds: float, out: Outcome) -> None:
    from repro.serve import ModelRegistry, SconnaClient, SconnaService, wire
    from repro.stochastic.error_models import SconnaErrorModel

    m = out.metrics
    rung_s = 0.1 * seconds
    ladder = {}
    # rung 1: the batch-1 forward the replica runs, in this process
    ladder["forward"], got1 = _rung(
        lambda image, seed: qm.forward(image[None], mode="sconna",
                                       error_model=SconnaErrorModel(seed=seed)),
        stream, 0, rung_s, out,
    )
    # rung 2: the in-process service with the shipped defaults
    service = SconnaService()
    try:
        service.add_from_registry(ModelRegistry(registry), SERVED_PROXY)
        ladder["service"], got2 = _rung(
            lambda image, seed: service.predict(SERVED_PROXY, image, seed=seed).logits,
            stream, 0, rung_s, out,
        )
    finally:
        service.close()
    _, fleet = _setup(registry, workdir, stream, want0, out)
    try:
        with SconnaClient(fleet.replica_url) as direct:
            ladder["direct"], got3 = _rung(
                lambda image, seed: direct.predict(image, model=SERVED_PROXY, seed=seed).logits,
                stream, 0, rung_s, out,
            )
        with SconnaClient(fleet.router_url) as routed:
            ladder["routed"], got4 = _rung(
                lambda image, seed: routed.predict(image, model=SERVED_PROXY, seed=seed).logits,
                stream, 0, rung_s, out,
            )
    finally:
        fleet.stop()
    for got in (got1, got2, got3, got4):
        _check_kept(out, qm, stream, got, "ladder")
    for rung, lat in ladder.items():
        m[f"ladder.{rung}_ms"] = median(lat) * 1e3
    m["service.overhead_ms"] = m["ladder.service_ms"] - m["ladder.forward_ms"]
    m["router.relay_ms"] = m["ladder.routed_ms"] - m["ladder.direct_ms"]

    # the batch-1 engine breakdown, reference rungs and environment
    with noise_probe() as probe:
        records = [profiled_forward(qm, stream[i][0][None], [stream[i][1]], probe)[1]
                   for i in range(200)]
    m["engine.forward_ms.mnet_proxy"] = m["ladder.forward_ms"]
    m.update(engine_breakdown(records))
    m.update(reference_rungs([qm], stream[0][0][None], repeats=100))
    m.update(env_metrics([qm]))

    # the fully traced fleet with timing wrappers on every hop
    _, fleet = _setup(registry, workdir, stream, want0, out, traced=True)
    client_probe = Probe()
    client_probe.wrap(wire, "encode_frame", "client.encode")
    client_probe.wrap(wire, "decode_frame", "client.decode")
    replica_scrapes: "list[int]" = []

    def at_mark(done: int) -> None:
        # render the replica's own exposition and size its raw state
        _get(fleet.replica_url, "/v1/metrics?format=prometheus")
        status, body = _get(fleet.replica_url, "/v1/metrics?format=state")
        if status == 200:
            replica_scrapes.append(len(body))

    try:
        latencies, _, kept, scrapes = _closed_loop(
            fleet.router_url, stream, 0.4 * seconds, out, first=1,
            scrape_every=MARK_EVERY // 2, scrape_last=MARK_LAST // 2, on_mark=at_mark,
        )
        client = {name: client_probe.take(name) for name in ("client.encode", "client.decode")}
        replica = _span_stats(_fetch_traces(fleet.replica_url, 300))
        router = _fetch_traces(fleet.router_url, 256)
        status, body = _get(fleet.router_url, "/v1/metrics")
        fleet_snap = json.loads(body) if status == 200 else {}
        status, body = _get(fleet.replica_url, "/v1/metrics")
        replica_snap = json.loads(body) if status == 200 else {}
        wrapped = fleet.probe_samples()
    finally:
        client_probe.restore()
        fleet.stop()
    _check_kept(out, qm, stream, kept, "traced routed")

    m["client.encode_us"] = median(client["client.encode"]) * 1e6
    m["client.decode_us"] = median(client["client.decode"]) * 1e6
    m["http.parse_ms"] = median(replica.get("http.parse", []))
    m["http.encode_ms"] = median(replica.get("http.encode", []))
    m["admission_ms"] = median(replica.get("admission", []))
    m["admission.shed"] = float(replica_snap.get("shed", 0))
    waits = replica.get("queue.wait", [])
    m["queue.wait_p50_ms"] = median(waits)
    m["queue.wait_p99_ms"] = pct(waits, 99.0)
    m["batch.form_ms"] = median(replica.get("batch.form", []))
    m["batch.mean_images"] = _mean_batch(replica_snap)
    relay, own = [], []
    for doc in router:
        spans = {s["name"]: s for s in doc.get("spans", ())}
        if "router.relay" in spans and doc.get("duration_ms") is not None:
            relay.append(spans["router.relay"]["duration_ms"])
            own.append(doc["duration_ms"] - spans["router.relay"]["duration_ms"])
    m["router.relay_span_ms"] = median(relay)
    m["router.self_ms"] = median(own)
    m["router.scrape_ms"] = median(scrapes) * 1e3
    m["router.scrape_merge_ms"] = median(wrapped.get("router.merge", [])) * 1e3
    m["router.redispatches"] = float((fleet_snap.get("router") or {}).get("redispatches", 0))
    m["metrics.state_ms"] = median(wrapped.get("metrics.state", [])) * 1e3
    m["metrics.render_ms"] = median(wrapped.get("metrics.render", [])) * 1e3
    m["metrics.state_bytes"] = median(replica_scrapes)
    m["tail.latency_p99_ms"] = pct(latencies, 99.0) * 1e3
    m["trace.overhead_pct"] = 100.0 * (median(latencies) / median(ladder["routed"]) - 1.0)
    out.notes.append(
        "ladder p50 ms: " + ", ".join(f"{r} {m[f'ladder.{r}_ms']:.3f}" for r in ladder)
    )


def _mean_batch(snapshot: dict) -> float:
    """Mean images per executed batch from a metrics snapshot."""
    return float((snapshot.get("batch_size") or {}).get("mean") or 0.0)
