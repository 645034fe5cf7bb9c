"""Every library module under ``src/repro`` is reached from code that runs.

A module whose only importers are its own unit tests, a package
``__init__`` re-export or other unreached modules is surface nothing
runs.  This scan uses plain ``ast``: it starts from the source trees
that do run -- benchmarks, examples, propbench, tools and the package's
``__main__`` entry points -- follows the imports (including lazy imports
inside functions) of every library module it reaches, and names each
module it never reaches.  Imports made by an ``__init__`` do not count,
so a chain of modules kept alive only by each other is reported whole.

The ``from repro... import ...`` lines that the CI workflows run and
the docs show must resolve, so trimming a package's re-exports
cannot quietly break a CI guard or a documented import.

networkx is a test-only dependency: the library and its entry points
must import with it absent.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
IMPORTER_ROOTS = ("benchmarks", "examples", "propbench", "tools")
IMPORT_SITES = (".github/workflows/*.yml", "docs/*.md", "README.md", "DESIGN.md")


def _module_name(path: Path, src: Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported_names(path: Path) -> set[str]:
    """Dotted names ``path`` imports, with ``from X import y`` giving both
    ``X`` and ``X.y`` (``y`` may be a submodule).  The package uses
    absolute imports only; a relative one would read as unreached."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def unreached_modules(repo: Path, package: str = "repro") -> list[str]:
    """Library modules of ``repo/src/<package>`` not reachable from the
    entry points by imports that do not pass through an ``__init__``."""
    src = repo / "src"
    files = {
        _module_name(p, src): p
        for p in (src / package).rglob("*.py")
        if p.name not in ("__init__.py", "__main__.py")
    }
    frontier = [
        p for root in IMPORTER_ROOTS if (repo / root).is_dir()
        for p in (repo / root).rglob("*.py")
    ]
    frontier += list((src / package).rglob("__main__.py"))
    reached: set[str] = set()
    while frontier:
        for name in _imported_names(frontier.pop()):
            if name in files and name not in reached:
                reached.add(name)
                frontier.append(files[name])
    return sorted(files.keys() - reached)


_FROM_IMPORT = re.compile(r"from\s+(repro(?:\.\w+)*)\s+import\s+(\([^)]*\)|[^\n;\"]+)")


def _documented_imports() -> list[tuple[str, str, str]]:
    """``(site, module, name)`` for every ``from repro... import name``
    written in the CI workflows and the docs."""
    found = []
    for path in sorted(p for pattern in IMPORT_SITES for p in REPO.glob(pattern)):
        site = str(path.relative_to(REPO))
        text = path.read_text(encoding="utf-8")
        for module, body in _FROM_IMPORT.findall(text):
            body = re.sub(r"#[^\n]*", "", body).strip("() \n")
            for alias in body.split(","):
                name = alias.split()[0] if alias.split() else ""
                if name:
                    found.append((site, module, name))
    return found


def test_every_library_module_is_reached_from_an_entry_point():
    assert unreached_modules(REPO) == []


def test_scan_reports_whole_chains_and_cycles(tmp_path):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (tmp_path / "tools").mkdir()
    sources = {
        "__init__.py": "from pkg.only_init import x\n",
        "__main__.py": "import pkg.used\n",
        "used.py": "def f():\n    from pkg import helper\n",
        "helper.py": "",
        "only_init.py": "x = 1\n",
        "orphan.py": "import pkg.chained\n",
        "chained.py": "",
        "cycle_a.py": "import pkg.cycle_b\n",
        "cycle_b.py": "import pkg.cycle_a\n",
        "tool_only.py": "",
    }
    for name, body in sources.items():
        (pkg / name).write_text(body)
    (tmp_path / "tools" / "run.py").write_text("from pkg.tool_only import *\n")
    assert unreached_modules(tmp_path, "pkg") == [
        "pkg.chained", "pkg.cycle_a", "pkg.cycle_b", "pkg.only_init", "pkg.orphan",
    ]


def test_documented_imports_resolve():
    sites = _documented_imports()
    assert {".github/workflows/ci.yml", "docs/api.md"} <= {s for s, _, _ in sites}
    missing = []
    for site, module, name in sites:
        mod = importlib.import_module(module)
        if not hasattr(mod, name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ImportError:
                missing.append(f"{site}: from {module} import {name}")
    assert missing == []


def test_entry_points_import_without_networkx():
    code = (
        "import sys; sys.modules['networkx'] = None; "
        "import repro, repro.cli, repro.live, repro.obs.__main__"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
