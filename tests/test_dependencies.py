from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import speechrag

# numpy is the one declared runtime dependency (pyproject.toml); scipy and
# others may be installed, but the package must not reach for them.
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "speechrag"}


def imported_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(Path(speechrag.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    foreign = {
        f"{path.name}: {name}"
        for path in sources
        for name in imported_modules(path) - ALLOWED
    }
    assert not foreign, f"imports outside the stdlib and numpy: {sorted(foreign)}"


# Retrieval, training and the oracle generator never reach the network or a
# thread pool, so importing the CLI must not load either stack.
LAZY = ("urllib.request", "http.client", "ssl", "socket", "email", "concurrent.futures", "logging")


def test_cli_import_leaves_the_http_client_and_thread_pool_unloaded():
    path = [str(Path(speechrag.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    probe = (
        "import sys, speechrag.cli; "
        f"print(' '.join(name for name in {LAZY!r} if name in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert out.stdout.split() == [], f"loaded at import: {out.stdout.split()}"
