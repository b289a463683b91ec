"""Golden experiment results: what every figure, table and canned run reports.

``golden_results.json`` next to this file maps each registered experiment
of the corpus to two sha256 digests of one run at the tiny :data:`TINY`
scale (or the small parameters in :data:`PARAMS`):

* ``result`` — the canonical JSON of ``registry.get(name).serialize(result)``;
* ``printed`` — the text its ``print_*`` companion writes to stdout.

The corpus is fig2, fig3, fig6–fig13, table1, chaos and scenario; the
``perf`` and ``obs`` experiments carry wall clocks and are left out.

A refactor of the harness must leave every digest where it is.  A change
meant to move one changes what cached sweep results mean, so it bumps
``repro.harness.cache.CACHE_VERSION`` and regenerates the file::

    PYTHONPATH=src python tests/test_golden_results.py --write

The file also records the numpy major.minor it was written with, which
failure messages quote.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.harness import registry
from repro.harness.cache import CACHE_VERSION
from repro.harness.configs import Scale

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_results.json")

#: small enough that the whole corpus runs in seconds, large enough that
#: some arms reach the target loss and others do not
TINY = Scale(
    name="tiny",
    base_concurrency=16,
    base_goal=4,
    concurrency_sweep=(8, 16),
    goal_sweep=(4, 8),
    population=1500,
    sim_hours=0.3,
    critical_goal=10.0,
)

_SCENARIO = ROOT / "examples" / "scenarios" / "dropout_storm.json"

#: per-experiment parameters on top of ``TINY`` and seed 0; the fig3/9/13
#: targets are set so at least one arm misses them (an ``n/a`` cell)
PARAMS: dict[str, dict] = {
    "fig2": {"cohort": 100, "n_rounds": 10, "n_hist_samples": 2000},
    "fig3": {"target_loss": 2.5},
    "fig6": {},
    "fig7": {},
    "fig8": {},
    "fig9": {"target_loss": 2.45},
    "fig10": {},
    "fig11": {},
    "fig12": {},
    "fig13": {"target_loss": 2.5},
    "table1": {"update_budget": 80, "population_size": 120},
    "chaos": {"n_devices": 200, "schedules": "dropout_storm",
              "planes": "single", "t_end_s": 2400.0},
    "scenario": {"spec": json.loads(_SCENARIO.read_text()),
                 "execution.t_end_s": 1850.0},
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digests(name: str) -> dict[str, str]:
    spec = registry.get(name)
    result = spec.run(TINY, seed=0, **PARAMS[name])
    payload = json.dumps(spec.serialize(result), sort_keys=True)
    # The payload must survive the cache's JSON round trip unchanged.
    again = json.dumps(spec.serialize(spec.deserialize(json.loads(payload))),
                       sort_keys=True)
    assert again == payload, f"{name}: result does not round-trip through JSON"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        spec.printer(result)
    return {"result": _sha(payload), "printed": _sha(out.getvalue())}


def _numpy_version() -> str:
    return ".".join(np.__version__.split(".")[:2])


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_corpus_is_complete():
    assert sorted(_golden()["results"]) == sorted(PARAMS)


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_result_is_pinned(name):
    golden = _golden()
    if golden["cache_version"] != CACHE_VERSION:
        pytest.fail(
            f"{GOLDEN.name} was written at CACHE_VERSION "
            f"{golden['cache_version']}, the code is at {CACHE_VERSION}: "
            "regenerate it with --write"
        )
    got = _digests(name)
    want = golden["results"][name]
    context = (f"(file written with numpy {golden['numpy']}, running "
               f"{_numpy_version()})")
    assert got["result"] == want["result"], (
        f"{name}: serialized result moved without a CACHE_VERSION bump {context}"
    )
    assert got["printed"] == want["printed"], (
        f"{name}: printed report moved without a CACHE_VERSION bump {context}"
    )


def _write() -> None:
    doc = {
        "cache_version": CACHE_VERSION,
        "numpy": _numpy_version(),
        "results": {name: _digests(name) for name in sorted(PARAMS)},
    }
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(doc['results'])} experiments)")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_results.py --write")
    _write()
