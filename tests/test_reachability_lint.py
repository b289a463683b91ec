"""The reachability lint: every module is reachable from a spec or the CLI.

``tools/check_reachability.py`` (run by the CI lint job and here, in
tier-1) walks the static import graph of ``src/repro`` from ``repro.api``
and ``repro.harness.__main__`` and fails on any unreachable module not in
``tools/reachability_allowlist.txt``, and on any allowlist entry that is
stale — so the allowlist only shrinks.
"""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def check_reachability():
    spec = importlib.util.spec_from_file_location(
        "check_reachability", REPO_ROOT / "tools" / "check_reachability.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: pathlib.Path, files: dict[str, str], allowlist: str) -> pathlib.Path:
    (root / "tools").mkdir()
    (root / "tools" / "reachability_allowlist.txt").write_text(allowlist)
    for rel, text in files.items():
        path = root / "src" / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


#: a minimal package: the two entry points, a re-exporting package whose
#: re-export alone reaches nothing, and a function-local import
BASE_TREE = {
    "__init__.py": "",
    "api/__init__.py": "from repro.api.spec import Spec\n",
    "api/spec.py": "from repro.core import Model\n",
    "core/__init__.py": (
        "from repro.core.model import Model\n"
        "from repro.core.orphan import Orphan\n"
    ),
    "core/model.py": "def build():\n    from .lazy import helper\n",
    "core/lazy.py": "",
    "core/orphan.py": "",
    "harness/__init__.py": "",
    "harness/__main__.py": "import repro.api\n",
}


def test_repo_is_clean(check_reachability):
    violations = check_reachability.find_violations(REPO_ROOT)
    assert violations == [], "; ".join(violations)
    # The allowlist holds exactly the modules kept on purpose.
    assert check_reachability.load_allowlist(REPO_ROOT) == {
        "repro.core.dp",
        "repro.secagg.threat",
    }
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_reachability.py")],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_unlisted_unreachable_module_is_reported(check_reachability, tmp_path):
    root = _tree(tmp_path, BASE_TREE, "# nothing allowed\n")
    # core/__init__ re-exports Orphan, but nothing imports it through
    # the package, so the re-export does not make it reachable; the
    # function-local import of core.lazy does count.
    assert check_reachability.find_violations(root) == [
        "repro.core.orphan: reachable from no spec or CLI command"
    ]
    assert check_reachability.main(root) == 1

    (root / "tools" / "reachability_allowlist.txt").write_text(
        "repro.core.orphan  # kept for a later change\n"
    )
    assert check_reachability.find_violations(root) == []
    assert check_reachability.main(root) == 0


def test_stale_allowlist_entry_is_reported(check_reachability, tmp_path):
    files = dict(BASE_TREE, **{"api/spec.py": "from repro.core import Model, Orphan\n"})
    root = _tree(tmp_path, files, "repro.core.orphan\nrepro.core.deleted\n")
    assert check_reachability.find_violations(root) == [
        "repro.core.deleted: allowlisted but no longer exists",
        "repro.core.orphan: allowlisted but now reachable",
    ]
    assert check_reachability.main(root) == 1
