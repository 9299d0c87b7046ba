"""CI bench-regression guard for the serving path and the kernels.

Compares a fresh smoke run of ``run_bench_serve.py``,
``run_bench_http.py`` or ``run_bench_kernels.py`` (written with
``--json-out``) against the committed baseline
(``BENCH_serve.json`` / ``BENCH_kernels.json``) and fails when a
guarded figure regresses by more than ``--max-regression``
(default 30%).  Four sections are guarded, each only when both files
carry it:

* **batch-1 thread records** - the pure request-path cost: one
  request, one forward pass, no coalescing luck - so it moves only
  when the serving or engine code actually got slower;
* **trace-overhead records** (``--trace-overhead`` output: one batch-1
  int8 record per tracing variant off / sampled / always) - guards the
  untraced baseline and the cost of the telemetry plane itself;
* **``http`` records** (one per wire encoding: json / npy / frame) -
  the HTTP ingest cost: a parser or codec regression shows up here
  before anywhere else;
* **kernel ``results``** (``BENCH_kernels.json`` layout) - a per-op
  wall-time floor: each op shared by both files must not be slower than
  the baseline by more than the tolerance.  This covers the raw engine
  kernels *and* the whole-network fused-plan end-to-end records, so a
  lost fusion or a slower kernel pick fails CI even when the serving
  path hides it behind batching.

Throughput is hardware-relative, so each comparison only fires when the
baseline was recorded on the same ``cores`` count as the current run;
otherwise the check reports the mismatch and passes (a 4-core CI runner
must not be graded against a 1-core container's baseline).

Usage (what ``ci.yml`` runs)::

    python benchmarks/run_bench_serve.py --smoke --json-out smoke.json
    python benchmarks/check_bench_regression.py smoke.json BENCH_serve.json
    python benchmarks/run_bench_http.py --smoke --json-out http_smoke.json
    python benchmarks/check_bench_regression.py http_smoke.json BENCH_serve.json
    python benchmarks/run_bench_kernels.py --smoke --json-out k_smoke.json
    python benchmarks/check_bench_regression.py k_smoke.json BENCH_kernels.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def batch1_records(payload: dict) -> "dict[tuple, dict]":
    """Index batch-1 thread records by (mode, input dtype).

    The dtype lands in the key's display slot so the verdict line reads
    ``batch1 mode=('int8', 'uint8')`` - the uint8-input record guards
    the integer-native request path separately from the float one.
    """
    out = {}
    for rec in payload.get("records", []):
        if rec.get("scenario") == "batch1" and rec.get("backend") == "thread":
            out[(rec["mode"], rec.get("input_dtype", "float64"))] = rec
    return out


def http_records(payload: dict) -> "dict[tuple, dict]":
    """Index HTTP ingest records by (wire,) for comparison."""
    http = payload.get("http") or {}
    return {(rec["wire"],): rec for rec in http.get("records", [])}


def trace_records(payload: dict) -> "dict[tuple, dict]":
    """Index trace-overhead records by (trace variant,).

    ``run_bench_serve.py --trace-overhead`` emits one batch-1 int8
    record per tracing variant (off / sampled / always); guarding each
    variant's req/s keeps both the untraced baseline *and* the cost of
    tracing itself from regressing silently.
    """
    return {
        (rec["trace_variant"],): rec
        for rec in payload.get("records", [])
        if rec.get("scenario") == "trace_overhead"
    }


def kernel_records(payload: dict) -> "dict[tuple, dict]":
    """Index kernel-bench records (``BENCH_kernels.json``) by (op,)."""
    return {
        (rec["op"],): rec
        for rec in payload.get("results", [])
        if "wall_time_s" in rec
    }


def http_cores(payload: dict):
    """The core count the http section was measured on (the section
    carries its own, since it can be regenerated independently)."""
    http = payload.get("http") or {}
    return http.get("cores", payload.get("cores"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="fresh run JSON (--json-out output)")
    parser.add_argument("baseline", help="committed BENCH_serve.json")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="tolerated fractional drop in batch-1 "
                             "requests/s (default: 0.30)")
    parser.add_argument("--min-kernel-wall-ms", type=float, default=0.5,
                        help="kernel ops whose baseline best wall time is "
                             "below this are reported but not guarded - "
                             "microsecond ops measure the timer, not the "
                             "kernel (default: 0.5)")
    args = parser.parse_args()

    current = json.loads(Path(args.current).read_text())
    baseline = json.loads(Path(args.baseline).read_text())

    print(f"bench-regression: current  {current.get('cores')} core(s) on "
          f"{current.get('platform')}")
    print(f"bench-regression: baseline {baseline.get('cores')} core(s) on "
          f"{baseline.get('platform')}")

    compared = 0
    failures: "list[str]" = []

    def guard(label, cur_map, base_map, cur_cores, base_cores) -> None:
        nonlocal compared
        if not cur_map or not base_map:
            return  # this run / baseline does not carry the section
        if cur_cores != base_cores:
            print(f"bench-regression: {label} core counts differ "
                  f"({cur_cores} vs {base_cores}) - not comparable, "
                  "skipping this section")
            return
        for key, base_rec in base_map.items():
            cur_rec = cur_map.get(key)
            if cur_rec is None:
                continue  # smoke runs measure a subset
            compared += 1
            tag = "/".join(str(k) for k in key)
            floor = base_rec["requests_per_s"] * (1.0 - args.max_regression)
            verdict = "ok" if cur_rec["requests_per_s"] >= floor \
                else "REGRESSED"
            print(f"bench-regression: {label}={tag} "
                  f"{cur_rec['requests_per_s']:.1f} req/s vs baseline "
                  f"{base_rec['requests_per_s']:.1f} "
                  f"(floor {floor:.1f}) -> {verdict}")
            if verdict != "ok":
                failures.append(f"{label}={tag}")

    def guard_kernels(cur_map, base_map, cur_cores, base_cores) -> None:
        # wall-time floor: lower is better, so the failure direction is
        # inverted relative to the req/s guards above
        nonlocal compared
        if not cur_map or not base_map:
            return
        if cur_cores != base_cores:
            print(f"bench-regression: kernel core counts differ "
                  f"({cur_cores} vs {base_cores}) - not comparable, "
                  "skipping this section")
            return
        floor_s = args.min_kernel_wall_ms / 1e3
        for key, base_rec in base_map.items():
            cur_rec = cur_map.get(key)
            if cur_rec is None:
                continue
            if base_rec["wall_time_s"] < floor_s:
                print(f"bench-regression: kernel={key[0]} baseline "
                      f"{base_rec['wall_time_s'] * 1e3:.3f} ms < "
                      f"{args.min_kernel_wall_ms} ms - too fast to guard, "
                      "skipping")
                continue
            compared += 1
            ceiling = base_rec["wall_time_s"] * (1.0 + args.max_regression)
            verdict = "ok" if cur_rec["wall_time_s"] <= ceiling \
                else "REGRESSED"
            print(f"bench-regression: kernel={key[0]} "
                  f"{cur_rec['wall_time_s'] * 1e3:.2f} ms vs baseline "
                  f"{base_rec['wall_time_s'] * 1e3:.2f} "
                  f"(ceiling {ceiling * 1e3:.2f}) -> {verdict}")
            if verdict != "ok":
                failures.append(f"kernel={key[0]}")

    guard("batch1 mode", batch1_records(current), batch1_records(baseline),
          current.get("cores"), baseline.get("cores"))
    guard("trace variant", trace_records(current), trace_records(baseline),
          current.get("cores"), baseline.get("cores"))
    guard("http wire", http_records(current), http_records(baseline),
          http_cores(current), http_cores(baseline))
    guard_kernels(kernel_records(current), kernel_records(baseline),
                  current.get("cores"), baseline.get("cores"))

    if not compared:
        print("bench-regression: no comparable records between the two "
              "files - nothing guarded")
        return 0
    if failures:
        print(f"bench-regression: FAILED for {failures} - regressed more "
              f"than {args.max_regression:.0%} vs the committed baseline")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
