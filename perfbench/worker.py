"""Runs one workload in a fresh process and writes its outcome as JSON.

Started by ``run.py`` with the benchmark's environment (one BLAS thread,
``PYTHONPATH=src``, scratch ``TMPDIR`` inside the checkout); not meant
to be called directly.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import harness
import offline
import routed
import sharded

WORKLOADS = {
    "offline_zoo_b32": offline,
    "routed_closed_1c": routed,
    "open_sharded": sharded,
}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = harness.Outcome()
    WORKLOADS[args.workload].run(args.seed, args.seconds, bool(args.trace), out)
    if args.trace:
        spec = json.loads(Path("BENCHMARK.json").read_text())
        harness.fill_missing(out.metrics, [m["name"] for m in spec["per_layer"]])
    out.dump(Path(args.out))


if __name__ == "__main__":
    main()
