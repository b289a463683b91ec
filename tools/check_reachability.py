#!/usr/bin/env python3
"""Every ``src/repro`` module is reachable from a spec or the CLI, or listed.

The repo's one configuration surface is ``repro.api`` (``ScenarioSpec`` +
``Deployment``) plus the ``python -m repro.harness`` CLI.  A module that
neither can import is code no run executes.  This check walks the static
import graph of ``src/repro/**/*.py`` from the two roots and fails on any
unreachable module not named in ``tools/reachability_allowlist.txt``.  The
allowlist only shrinks: an entry whose module became reachable or no
longer exists fails the check too.

The walk:

* every ``import`` and ``from ... import`` statement counts, at any
  nesting depth (function-local imports included);
* ``from P import N`` reaches the submodule ``P.N`` if there is one;
  otherwise, when ``P`` is a package whose ``__init__`` re-exports ``N``
  from a submodule, it reaches that defining module;
* reaching a module reaches its parent packages, but a package
  ``__init__``'s own imports do not propagate (re-exporting a module is
  not running it); the root package ``repro`` is the one exception,
  since ``import repro`` executes it.

Run from the repository root (CI does, in the lint job)::

    python tools/check_reachability.py

Exit status 0 when clean; 1 with one diagnostic per violation otherwise.
"""

from __future__ import annotations

import ast
import pathlib
import sys

SRC_DIR = "src"
ROOT_PACKAGE = "repro"
ENTRY_POINTS = ("repro.api", "repro.harness.__main__")
ALLOWLIST_FILE = "tools/reachability_allowlist.txt"


def load_allowlist(root: pathlib.Path) -> set[str]:
    """Dotted module names allowed to stay unreachable."""
    entries: set[str] = set()
    for line in (root / ALLOWLIST_FILE).read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            entries.add(line)
    return entries


def discover_modules(root: pathlib.Path) -> dict[str, tuple[pathlib.Path, bool]]:
    """Dotted name → (path, is_package) for every module of the package."""
    src = root / SRC_DIR
    modules = {}
    for path in sorted((src / ROOT_PACKAGE).rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        is_package = parts[-1] == "__init__"
        if is_package:
            parts.pop()
        modules[".".join(parts)] = (path, is_package)
    return modules


def _import_nodes(path: pathlib.Path) -> list[ast.Import | ast.ImportFrom]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]


def _absolute(module: str, is_package: bool, node: ast.ImportFrom) -> str:
    """The absolute module a (possibly relative) ``from`` import names."""
    if not node.level:
        return node.module or ""
    base = module.split(".")
    if not is_package:
        base.pop()
    base = base[: len(base) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


class ImportGraph:
    """Static import edges between the modules of ``src/repro``."""

    def __init__(self, root: pathlib.Path):
        self.modules = discover_modules(root)
        self._nodes = {name: _import_nodes(path) for name, (path, _) in self.modules.items()}

    def _resolve_from(self, source: str, name: str) -> str:
        """The module ``from source import name`` reaches."""
        if f"{source}.{name}" in self.modules:
            return f"{source}.{name}"
        if source in self.modules and self.modules[source][1]:
            # Follow the package's re-export to the defining module.
            for node in self._nodes[source]:
                if isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        if (alias.asname or alias.name) == name:
                            return self._resolve_from(
                                _absolute(source, True, node), alias.name
                            )
        return source

    def imports_of(self, module: str) -> set[str]:
        """Modules of the package that ``module``'s import statements name."""
        is_package = self.modules[module][1]
        targets: set[str] = set()
        for node in self._nodes[module]:
            if isinstance(node, ast.Import):
                targets.update(alias.name for alias in node.names)
            else:
                source = _absolute(module, is_package, node)
                targets.update(self._resolve_from(source, alias.name) for alias in node.names)
        return {t for t in targets if t in self.modules}

    def reachable(self) -> set[str]:
        """Every module an entry point can import, by the rules above."""
        seen: set[str] = set()
        stack = list(ENTRY_POINTS)
        while stack:
            module = stack.pop()
            if module in seen or module not in self.modules:
                continue
            seen.add(module)
            parts = module.split(".")
            stack.extend(".".join(parts[:i]) for i in range(1, len(parts)))
            if self.modules[module][1] and module != ROOT_PACKAGE and module not in ENTRY_POINTS:
                continue
            stack.extend(self.imports_of(module))
        return seen


def find_violations(root: pathlib.Path) -> list[str]:
    """One message per unlisted unreachable module or stale allowlist entry."""
    graph = ImportGraph(root)
    reachable = graph.reachable()
    allowlist = load_allowlist(root)
    violations = [
        f"{name}: reachable from no spec or CLI command"
        for name in sorted(graph.modules)
        if name not in reachable and name not in allowlist
    ]
    for name in sorted(allowlist):
        if name not in graph.modules:
            violations.append(f"{name}: allowlisted but no longer exists")
        elif name in reachable:
            violations.append(f"{name}: allowlisted but now reachable")
    return violations


def main(root: str | pathlib.Path = ".") -> int:
    violations = find_violations(pathlib.Path(root))
    if not violations:
        return 0
    print(
        f"Import reachability from {' and '.join(ENTRY_POINTS)}:\n",
        file=sys.stderr,
    )
    for message in violations:
        print(f"  {message}", file=sys.stderr)
    print(
        "\nWire an unreachable module into a spec-built run or a CLI "
        f"command, or delete it; remove stale entries from {ALLOWLIST_FILE}.",
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":
    sys.exit(main())
