"""The docs tree stays truthful.

Two mechanisms, both also run by the CI docs job:

* ``tools/check_docs.py`` — ``docs/EXPERIMENTS.md`` is in lockstep with
  the experiment registry (every registered experiment has a section
  with the registry description verbatim and a CLI invocation, and no
  section documents an unregistered experiment), and
  ``docs/OBSERVABILITY.md``'s catalog tables list exactly the
  metrics/spans/phases the observability plane emits, and
  ``docs/SPEC.md`` has one field table per ScenarioSpec section class;
* doctests — every ``pycon`` block in the README and ``docs/*.md`` is
  an executable example, run here so the prose can't rot.
"""

import doctest
import importlib.util
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")]
)


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def drifted_copy(tmp_path, mutate):
    """A tmp repo root whose EXPERIMENTS.md is ``mutate``-d."""
    text = (REPO_ROOT / "docs" / "EXPERIMENTS.md").read_text(encoding="utf-8")
    (tmp_path / "docs").mkdir()
    (tmp_path / "src").mkdir()  # load_registry path insert; repro is cached
    (tmp_path / "docs" / "EXPERIMENTS.md").write_text(
        mutate(text), encoding="utf-8"
    )
    return tmp_path


class TestRegistrySync:
    def test_repo_docs_are_in_sync(self, check_docs):
        problems = check_docs.find_drift(REPO_ROOT)
        assert problems == [], "\n".join(problems)

    def test_main_exit_status(self, check_docs):
        assert check_docs.main(REPO_ROOT) == 0

    def test_missing_section_detected(self, check_docs, tmp_path):
        root = drifted_copy(
            tmp_path, lambda t: t.replace("### `million`", "### drop")
        )
        problems = check_docs.find_drift(root)
        assert any("'million'" in p and "no" in p for p in problems)

    def test_unregistered_section_detected(self, check_docs, tmp_path):
        root = drifted_copy(tmp_path, lambda t: t + "\n### `ghost`\n\nstuff\n")
        problems = check_docs.find_drift(root)
        assert any("'ghost'" in p for p in problems)

    def test_description_drift_detected(self, check_docs, tmp_path):
        root = drifted_copy(
            tmp_path,
            lambda t: t.replace("*columnar fleet 10k→1M devices", "*reworded"),
        )
        problems = check_docs.find_drift(root)
        assert any("'million'" in p and "verbatim" in p for p in problems)

    def test_missing_cli_invocation_detected(self, check_docs, tmp_path):
        root = drifted_copy(
            tmp_path,
            lambda t: t.replace("python -m repro.harness fig2\n", ""),
        )
        problems = check_docs.find_drift(root)
        assert any("'fig2'" in p and "fenced" in p for p in problems)

    def test_missing_doc_file_detected(self, check_docs, tmp_path):
        (tmp_path / "src").mkdir()
        assert check_docs.find_drift(tmp_path) == [
            "docs/EXPERIMENTS.md is missing"
        ]
        assert check_docs.main(tmp_path) == 1


def drifted_obs_copy(tmp_path, mutate):
    """A tmp repo root whose OBSERVABILITY.md is ``mutate``-d."""
    text = (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    (tmp_path / "docs").mkdir()
    (tmp_path / "src").mkdir()
    (tmp_path / "docs" / "OBSERVABILITY.md").write_text(
        mutate(text), encoding="utf-8"
    )
    return tmp_path


class TestCatalogSync:
    def test_repo_catalogs_are_in_sync(self, check_docs):
        problems = check_docs.find_catalog_drift(REPO_ROOT)
        assert problems == [], "\n".join(problems)

    def test_undocumented_metric_detected(self, check_docs, tmp_path):
        root = drifted_obs_copy(
            tmp_path,
            lambda t: "\n".join(
                row for row in t.splitlines()
                if not row.startswith("| `checkins_total`")
            ),
        )
        problems = check_docs.find_catalog_drift(root)
        assert any("missing `checkins_total`" in p for p in problems)

    def test_phantom_span_detected(self, check_docs, tmp_path):
        root = drifted_obs_copy(
            tmp_path,
            lambda t: t.replace(
                "| `round_trip` |", "| `ghost_span` | x |\n| `round_trip` |"
            ),
        )
        problems = check_docs.find_catalog_drift(root)
        assert any("`ghost_span`" in p and "not emit" in p for p in problems)

    def test_missing_catalog_section_detected(self, check_docs, tmp_path):
        root = drifted_obs_copy(
            tmp_path,
            lambda t: t.replace("## Profiling phase catalog", "## Renamed"),
        )
        problems = check_docs.find_catalog_drift(root)
        assert any("no ## Profiling phase catalog" in p for p in problems)

    def test_missing_obs_doc_detected(self, check_docs, tmp_path):
        (tmp_path / "src").mkdir()
        assert check_docs.find_catalog_drift(tmp_path) == [
            "docs/OBSERVABILITY.md is missing"
        ]


def drifted_spec_copy(tmp_path, mutate):
    """A tmp repo root whose SPEC.md is ``mutate``-d."""
    text = (REPO_ROOT / "docs" / "SPEC.md").read_text(encoding="utf-8")
    (tmp_path / "docs").mkdir()
    (tmp_path / "src").mkdir()
    (tmp_path / "docs" / "SPEC.md").write_text(mutate(text), encoding="utf-8")
    return tmp_path


class TestSpecTableSync:
    def test_repo_spec_tables_are_in_sync(self, check_docs):
        problems = check_docs.find_spec_drift(REPO_ROOT)
        assert problems == [], "\n".join(problems)

    def test_undocumented_field_detected(self, check_docs, tmp_path):
        root = drifted_spec_copy(
            tmp_path,
            lambda t: "\n".join(
                row for row in t.splitlines() if not row.startswith("| `columnar`")
            ),
        )
        problems = check_docs.find_spec_drift(root)
        assert problems == ["docs/SPEC.md: PopulationSpec table is missing `columnar`"]

    def test_phantom_field_detected(self, check_docs, tmp_path):
        root = drifted_spec_copy(
            tmp_path,
            lambda t: t.replace(
                "| `max_spans` |", "| `sample_rate` | number | `1.0` | no |\n| `max_spans` |"
            ),
        )
        problems = check_docs.find_spec_drift(root)
        assert any("`sample_rate`" in p and "not a field" in p for p in problems)

    def test_omitted_at_default_column_checked(self, check_docs, tmp_path):
        root = drifted_spec_copy(
            tmp_path,
            lambda t: t.replace(
                "| `executor` | `\"inline\"` or `\"process\"` | `\"inline\"` | yes |",
                "| `executor` | `\"inline\"` or `\"process\"` | `\"inline\"` | no |",
            ),
        )
        problems = check_docs.find_spec_drift(root)
        assert any("PlaneSpec.executor" in p for p in problems)

    def test_missing_and_phantom_sections_detected(self, check_docs, tmp_path):
        root = drifted_spec_copy(
            tmp_path, lambda t: t.replace("## TelemetrySpec", "## ObserverSpec")
        )
        problems = check_docs.find_spec_drift(root)
        assert "docs/SPEC.md: no ## TelemetrySpec section" in problems
        assert any("## ObserverSpec is not a spec section class" in p for p in problems)

    def test_system_keys_held_to_system_config(self, check_docs, tmp_path):
        root = drifted_spec_copy(
            tmp_path,
            lambda t: "\n".join(
                row for row in t.splitlines() if not row.startswith("| `n_selectors`")
            ).replace(
                "| `drain_threads` | `4` |", "| `drain_threads` | `8` |"
            ).replace(
                "| `placement_retry` |", "| `num_shards` | `1` | x |\n| `placement_retry` |"
            ),
        )
        assert check_docs.find_spec_drift(root) == [
            "docs/SPEC.md: System keys table is missing `n_selectors`",
            "docs/SPEC.md: System keys table documents `num_shards`, "
            "which is not a SystemConfig field",
            "docs/SPEC.md: system.drain_threads is documented with default 8, "
            "SystemConfig says 4",
        ]

    def test_missing_system_keys_section_detected(self, check_docs, tmp_path):
        root = drifted_spec_copy(
            tmp_path, lambda t: t.replace("## System keys", "## Other keys")
        )
        assert check_docs.find_spec_drift(root) == [
            "docs/SPEC.md: no ## System keys section"
        ]


class TestDoctests:
    def test_docs_exist(self):
        names = {p.name for p in DOC_FILES}
        assert {"README.md", "ARCHITECTURE.md", "EXPERIMENTS.md"} <= names

    @pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
    def test_doc_examples_run(self, path):
        results = doctest.testfile(str(path), module_relative=False)
        assert results.attempted > 0, f"{path.name} has no executable examples"
        assert results.failed == 0
