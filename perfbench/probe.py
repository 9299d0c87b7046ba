"""Start a serving process with the benchmark's timing wrappers installed.

Usage (by ``routed.py`` in the traced run only)::

    python3 perfbench/probe.py DUMP.json repro.serve --registry ... --port 0
    python3 perfbench/probe.py DUMP.json repro.serve.router --replica URL ...

Installs wrappers around public functions of the module's process, then
runs the module exactly as ``python -m`` would.  ``SIGUSR1`` writes the
recorded call durations (seconds, per wrapper name) to ``DUMP.json``.
"""

from __future__ import annotations

import json
import runpy
import signal
import sys
from pathlib import Path

from harness import Probe


def install(probe: Probe, module: str) -> None:
    if module == "repro.serve":
        from repro.serve import httpd
        from repro.serve.service import SconnaService

        probe.wrap(SconnaService, "metrics_state", "metrics.state")
        probe.wrap(httpd, "render_exposition", "metrics.render")
    elif module == "repro.serve.router":
        from repro.serve.metrics import ServeMetrics
        from repro.serve.router import Router

        probe.wrap(ServeMetrics, "merge", "router.merge")
        probe.wrap(Router, "metrics_snapshot", "router.snapshot")
    else:
        raise SystemExit(f"probe: no wrappers for module {module!r}")


def main() -> None:
    dump, module, *args = sys.argv[1:]
    probe = Probe()
    install(probe, module)

    def write_dump(signum, frame) -> None:
        Path(dump).write_text(json.dumps(probe.samples))

    signal.signal(signal.SIGUSR1, write_dump)
    sys.argv = [module, *args]
    runpy.run_module(module, run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
