"""The library imports only what ``requirements-ci.txt`` declares.

CI installs ``requirements-ci.txt`` and nothing else, and the README
promises stdlib + NumPy; a third-party import anywhere in ``src/``,
even inside a function, must be declared there.  The serving entry
points must also import with scipy and networkx absent, which the
repository used to pull in through the photonics and arch packages.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _declared() -> "set[str]":
    names = set()
    for line in (ROOT / "requirements-ci.txt").read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            dist = re.split(r"[<>=!~\[;\s]", line, maxsplit=1)[0]
            names.add(dist.lower().replace("-", "_"))
    return names


def _imports():
    """``(path, top-level module)`` of every absolute import in src/."""
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield path, alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                yield path, node.module.split(".")[0]


def test_every_third_party_import_is_declared():
    declared = _declared()
    seen = list(_imports())
    assert any(name == "numpy" for _, name in seen)
    undeclared = sorted({
        (name, str(path.relative_to(ROOT)))
        for path, name in seen
        if name != "repro"
        and name not in sys.stdlib_module_names
        and name.lower() not in declared
    })
    assert not undeclared, undeclared


def test_serving_imports_without_scipy_or_networkx():
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "sys.modules['networkx'] = None\n"
        "import repro.serve, repro.serve.router, repro.serve.telemetry.watch\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
