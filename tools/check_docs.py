#!/usr/bin/env python3
"""Keep ``docs/EXPERIMENTS.md`` in lockstep with the experiment registry.

The experiment catalogue is documentation *about* the registry
(``repro.harness.registry``), so it can drift: an experiment gets
registered without a docs section, a section outlives its experiment,
or a registry description is reworded without updating the page.  This
check makes each of those a CI failure:

* every registered experiment has a ``### `name` `` section, and every
  section names a registered experiment (set equality, both directions);
* each section quotes the registry description **verbatim** (the line
  ``*<description>*`` right under the heading);
* each section contains a fenced code block with the experiment's CLI
  invocation (``python -m repro.harness <name>``).

``docs/OBSERVABILITY.md`` is held to the same standard against the
observability catalogs (``repro.obs.telemetry``): each catalog table —
metrics, spans, profiling phases — must list exactly the names the
plane emits (``METRIC_CATALOG`` / ``SPAN_CATALOG`` / ``PHASE_CATALOG``),
both directions.

``docs/SPEC.md`` is held to the ScenarioSpec sections (``repro.api.spec``):
one ``## ClassName`` table per section class listing exactly its
``dataclasses.fields``, both directions, with an "omitted at default"
column that matches each field's ``omit`` metadata; and its
``## System keys`` table lists exactly the fields of ``SystemConfig``,
each with its default (as JSON).

Run from the repository root (CI does, in the docs job)::

    python tools/check_docs.py

Exit status 0 when in sync; 1 with one diagnostic per drift otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import re
import sys

DOC_FILE = "docs/EXPERIMENTS.md"
OBS_DOC_FILE = "docs/OBSERVABILITY.md"
SPEC_DOC_FILE = "docs/SPEC.md"

#: a catalogue section heading: ### `name`
HEADING = re.compile(r"^### `([a-z0-9_]+)`\s*$", re.MULTILINE)

#: a catalog table row: | `name` | ...
TABLE_ROW = re.compile(r"^\| `([a-z0-9_]+)` \|", re.MULTILINE)

#: a SPEC.md field row: | `name` | kind | default | yes/no |
SPEC_ROW = re.compile(r"^\| `([a-z0-9_]+)` \|.*\| (yes|no) \|\s*$", re.MULTILINE)

#: a SPEC.md section heading naming a class: ## ClassName
CLASS_HEADING = re.compile(r"^## ([A-Z][A-Za-z]+)\s*$", re.MULTILINE)

#: the SPEC.md section listing the ``system`` keys
SYSTEM_HEADING = "System keys"

#: a System keys row: | `key` | `default` | meaning |
SYSTEM_ROW = re.compile(r"^\| `([a-z0-9_]+)` \| `([^`]*)` \|", re.MULTILINE)


def load_registry(root: pathlib.Path):
    """Import the populated registry from the repo's ``src/`` tree."""
    sys.path.insert(0, str(root / "src"))
    # Importing the runner modules executes their register() calls.
    from repro.harness import chaos, figures, obs, perf, scenario  # noqa: F401
    from repro.harness import registry

    return registry


def split_sections(text: str) -> dict[str, str]:
    """Map each ``### `name` `` heading to its section body."""
    matches = list(HEADING.finditer(text))
    sections: dict[str, str] = {}
    for i, match in enumerate(matches):
        end = matches[i + 1].start() if i + 1 < len(matches) else len(text)
        sections[match.group(1)] = text[match.end():end]
    return sections


def find_drift(root: pathlib.Path) -> list[str]:
    """Every way the catalogue disagrees with the registry."""
    registry = load_registry(root)
    doc_path = root / DOC_FILE
    if not doc_path.is_file():
        return [f"{DOC_FILE} is missing"]
    sections = split_sections(doc_path.read_text(encoding="utf-8"))

    registered = set(registry.names())
    documented = set(sections)
    problems = []
    for name in sorted(registered - documented):
        problems.append(
            f"{DOC_FILE}: registered experiment {name!r} has no"
            " ### `" + name + "` section"
        )
    for name in sorted(documented - registered):
        problems.append(
            f"{DOC_FILE}: section {name!r} does not match any registered"
            " experiment"
        )

    for name in sorted(registered & documented):
        body = sections[name]
        description = registry.get(name).description
        if f"*{description}*" not in body:
            problems.append(
                f"{DOC_FILE}: section {name!r} must quote the registry"
                f" description verbatim: *{description}*"
            )
        invocation = f"python -m repro.harness {name}"
        if "```" not in body or invocation not in body:
            problems.append(
                f"{DOC_FILE}: section {name!r} needs a fenced code block"
                f" containing `{invocation}`"
            )
    return problems


def _doc_section(text: str, heading: str) -> str | None:
    """The body under ``## heading``, up to the next ``## ``."""
    match = re.search(rf"^## {re.escape(heading)}\s*$", text, re.MULTILINE)
    if match is None:
        return None
    end = re.search(r"^## ", text[match.end():], re.MULTILINE)
    return text[match.end():match.end() + end.start() if end else len(text)]


def _doc_table_names(text: str, heading: str) -> set[str] | None:
    """Backticked first-column entries of the table under ``## heading``."""
    section = _doc_section(text, heading)
    return None if section is None else set(TABLE_ROW.findall(section))


def find_catalog_drift(root: pathlib.Path) -> list[str]:
    """Every way OBSERVABILITY.md disagrees with the emitted catalogs."""
    sys.path.insert(0, str(root / "src"))
    from repro.obs.telemetry import METRIC_CATALOG, PHASE_CATALOG, SPAN_CATALOG

    doc_path = root / OBS_DOC_FILE
    if not doc_path.is_file():
        return [f"{OBS_DOC_FILE} is missing"]
    text = doc_path.read_text(encoding="utf-8")

    problems = []
    for heading, catalog in (
        ("Metric catalog", METRIC_CATALOG),
        ("Span catalog", SPAN_CATALOG),
        ("Profiling phase catalog", PHASE_CATALOG),
    ):
        documented = _doc_table_names(text, heading)
        if documented is None:
            problems.append(f"{OBS_DOC_FILE}: no ## {heading} section")
            continue
        for name in sorted(set(catalog) - documented):
            problems.append(
                f"{OBS_DOC_FILE}: {heading} table is missing `{name}` "
                f"(emitted by repro.obs.telemetry)"
            )
        for name in sorted(documented - set(catalog)):
            problems.append(
                f"{OBS_DOC_FILE}: {heading} table documents `{name}`, "
                f"which the plane does not emit"
            )
    return problems


def find_spec_drift(root: pathlib.Path) -> list[str]:
    """Every way SPEC.md disagrees with the ScenarioSpec field tables."""
    sys.path.insert(0, str(root / "src"))
    from repro.api import spec as spec_module

    doc_path = root / SPEC_DOC_FILE
    if not doc_path.is_file():
        return [f"{SPEC_DOC_FILE} is missing"]
    text = doc_path.read_text(encoding="utf-8")
    sections = {
        name: cls
        for name, cls in vars(spec_module).items()
        if name in spec_module.__all__ and dataclasses.is_dataclass(cls)
    }
    headings = set(CLASS_HEADING.findall(text))
    problems = [
        f"{SPEC_DOC_FILE}: section ## {name} is not a spec section class"
        for name in sorted(headings - sections.keys())
    ]
    for name, cls in sections.items():
        if name not in headings:
            problems.append(f"{SPEC_DOC_FILE}: no ## {name} section")
            continue
        rows = dict(SPEC_ROW.findall(_doc_section(text, name)))
        fields = {f.name: f.metadata["omit"] for f in dataclasses.fields(cls)}
        for field in sorted(fields.keys() - rows.keys()):
            problems.append(f"{SPEC_DOC_FILE}: {name} table is missing `{field}`")
        for field in sorted(rows.keys() - fields.keys()):
            problems.append(
                f"{SPEC_DOC_FILE}: {name} table documents `{field}`, which is not a field"
            )
        for field in sorted(rows.keys() & fields.keys()):
            if (rows[field] == "yes") != fields[field]:
                problems.append(
                    f"{SPEC_DOC_FILE}: {name}.{field} is documented as omitted-at-default "
                    f"{rows[field]!r}, the field table says {fields[field]}"
                )
    return problems + _system_key_drift(text)


def _system_key_drift(text: str) -> list[str]:
    """Every way the System keys table disagrees with ``SystemConfig``."""
    from repro.system.orchestrator import SystemConfig

    section = _doc_section(text, SYSTEM_HEADING)
    if section is None:
        return [f"{SPEC_DOC_FILE}: no ## {SYSTEM_HEADING} section"]
    rows = dict(SYSTEM_ROW.findall(section))
    defaults = {f.name: json.dumps(f.default) for f in dataclasses.fields(SystemConfig)}
    problems = [
        f"{SPEC_DOC_FILE}: {SYSTEM_HEADING} table is missing `{key}`"
        for key in sorted(defaults.keys() - rows.keys())
    ]
    problems += [
        f"{SPEC_DOC_FILE}: {SYSTEM_HEADING} table documents `{key}`, "
        "which is not a SystemConfig field"
        for key in sorted(rows.keys() - defaults.keys())
    ]
    problems += [
        f"{SPEC_DOC_FILE}: system.{key} is documented with default "
        f"{rows[key]}, SystemConfig says {defaults[key]}"
        for key in sorted(rows.keys() & defaults.keys())
        if rows[key] != defaults[key]
    ]
    return problems


def main(root: str | pathlib.Path = ".") -> int:
    root = pathlib.Path(root)
    problems = find_drift(root) + find_catalog_drift(root) + find_spec_drift(root)
    if not problems:
        return 0
    print("docs are out of sync with the code:\n", file=sys.stderr)
    for problem in problems:
        print(f"  {problem}", file=sys.stderr)
    print(
        "\nRe-sync the catalogues: one ### `name` section per registered"
        " experiment in EXPERIMENTS.md (registry description verbatim as"
        " *italics*, a fenced CLI invocation; metadata lives next to each"
        " register() call in repro/harness/{figures,perf,scenario,chaos,obs}.py)"
        " and one table row per emitted metric/span/phase in"
        " OBSERVABILITY.md (catalogs in repro/obs/telemetry.py), and one"
        " ## ClassName field table per spec section in SPEC.md (field"
        " tables in repro/api/spec.py) plus its ## System keys table"
        " (SystemConfig in repro/system/orchestrator.py).",
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":
    sys.exit(main())
