"""Served-path benchmark of the SCONNA reproduction.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload offline_zoo_b32 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``offline_zoo_b32``  - seeded batch-32 noisy forwards of the four CNNs;
* ``routed_closed_1c`` - one client's closed loop of single-image
  requests through ``python -m repro.serve.router`` to one
  ``python -m repro.serve`` replica;
* ``open_sharded``     - Poisson and fixed-window open loops into an
  in-process ``SconnaService`` with two shm shard processes.

``--trace 0`` measures the end-to-end metrics with the program's shipped
defaults; ``--trace 1`` is the separate traced run that gives the
per-layer metrics (a layer a workload never enters reads 0) and writes
them as rows to ``.perfbench/out/``.  The last line of standard output
is the JSON result.

This launcher stays free of NumPy: it pins one BLAS thread and a scratch
``TMPDIR`` for every process it starts, warms the native kernel in an
untimed process, runs the workload in a fresh worker process, and then
checks that no ``repro_*`` shared-memory segment and no child process
survived (it is the children's subreaper, so orphans come back to it).
A leak fails the run.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SHM_DIR = Path("/dev/shm")
PR_SET_CHILD_SUBREAPER = 36
#: the whole run, warm-up included, must end well inside 180 s
RUN_BUDGET_S = 170.0
#: how long stopped children and segments get to disappear
LEAK_GRACE_S = 5.0


def _parse() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that the output check rejects a "
                             "perturbed logit, then exit")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    return args


def _environment(root: Path, scratch: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["TMPDIR"] = str(scratch / "tmp")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _become_subreaper() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _segments() -> "set[str]":
    try:
        return {name for name in os.listdir(SHM_DIR) if name.startswith("repro_")}
    except FileNotFoundError:
        return set()


def _children() -> "dict[int, str]":
    """Live (non-zombie) child processes of this process, with cmdlines."""
    me = os.getpid()
    out = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
            state, ppid = stat.rsplit(")", 1)[1].split()[:2]
            if int(ppid) != me or state == "Z":
                continue
            cmd = Path(f"/proc/{entry}/cmdline").read_bytes().replace(b"\0", b" ")
        except (OSError, ValueError):
            continue
        out[int(entry)] = cmd.decode(errors="replace").strip()
    return out


def _reap() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _leak_check(shm_before: "set[str]") -> "list[str]":
    """Wait out the grace period, then stop and report any survivor."""
    deadline = time.monotonic() + LEAK_GRACE_S
    while True:
        _reap()
        alive = _children()
        segments = _segments() - shm_before
        if (not alive and not segments) or time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    leaks = [f"child process survived: {pid} {cmd}" for pid, cmd in alive.items()]
    leaks += [f"shared-memory segment survived: /dev/shm/{name}" for name in sorted(segments)]
    for pid in alive:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in alive:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    for name in segments:
        try:
            (SHM_DIR / name).unlink()
        except FileNotFoundError:
            pass
    _reap()
    return leaks


def _run_child(cmd: "list[str]", env: dict, timeout: float) -> int:
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr)
    try:
        return proc.wait(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return -1


def _write_rows(path: Path, workload: str, metrics: dict) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["workload", "metric", "unit", "value"])
        for name, m in metrics.items():
            writer.writerow([workload, name, m["unit"], repr(m["value"])])


def main() -> int:
    started = time.monotonic()
    args = _parse()
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from the root of a source "
              "checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    scratch = root / ".perfbench"
    (scratch / "tmp").mkdir(parents=True, exist_ok=True)
    (scratch / "out").mkdir(parents=True, exist_ok=True)
    env = _environment(root, scratch)
    py = sys.executable

    if args.self_test:
        return subprocess.call([py, str(BENCH_DIR / "selftest.py")], env=env)

    workloads = {w["name"] for w in spec["workloads"]}
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads)}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    _become_subreaper()
    shm_before = _segments()
    # untimed: compile (first run in a checkout) or load the native kernel
    warm = _run_child(
        [py, "-c", "from repro.utils import native; native.native_available()"],
        env, RUN_BUDGET_S,
    )
    if warm != 0:
        print("perfbench: native-kernel warm-up failed", file=sys.stderr)
        return 1
    result_path = scratch / "out" / f"result-{os.getpid()}.json"
    code = _run_child(
        [py, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out", str(result_path)],
        env, RUN_BUDGET_S - (time.monotonic() - started),
    )
    leaks = _leak_check(shm_before)
    if code != 0 or not result_path.exists():
        print(f"perfbench: workload process failed (exit {code})", file=sys.stderr)
        for leak in leaks:
            print(f"perfbench: {leak}", file=sys.stderr)
        return 1
    outcome = json.loads(result_path.read_text())
    result_path.unlink()

    values = outcome["metrics"]
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        print(f"perfbench: metric set mismatch (missing {missing}, "
              f"undeclared {extra})", file=sys.stderr)
        return 1
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    broken = sorted(name for name, m in metrics.items() if not math.isfinite(m["value"]))
    if broken:
        print(f"perfbench: non-finite metrics {broken}", file=sys.stderr)
        return 1
    correct = bool(outcome["correct"]) and not leaks
    for note in outcome["notes"] + leaks:
        print(f"note: {note}")
    print("env: " + json.dumps(outcome["env"], sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:14.4f} {m['unit']}")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (scratch / "out" / f"series-{stem}.json").write_text(json.dumps(outcome["series"]))
    if args.trace:
        _write_rows(scratch / "out" / f"per_layer-{stem}.csv", args.workload, metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
