"""Shared configuration for the paper-reproduction benchmarks.

Every ``bench_fig*`` / ``bench_table1`` module regenerates one figure or
table of the paper at the SMOKE scale (concurrency and goals divided by
~40 relative to the paper; shapes are scale-free), prints the rows/series,
asserts the paper's qualitative claims, and records headline numbers in
``benchmark.extra_info`` so they land in the JSON report.

Run with::

    pytest benchmarks/ --benchmark-only

Use the harness directly (``repro.harness``) with ``DEFAULT`` or ``PAPER``
scales for higher-fidelity regeneration.

When ``$REPRO_SWEEP_CACHE`` is set (CI does this), the ``cached_run``
fixture runs experiments against that arm store (see
``repro.harness.cache``): a figure whose arms were already produced by
``python -m repro.harness sweep`` only pays for loading and reducing
them, and arms run here are stored for the sweep jobs to reuse.  Direct
experiments (perf, chaos, obs) always run.
"""

import os

import pytest

from repro.harness import SMOKE, registry
from repro.harness.cache import CACHE_ENV_VAR, ResultCache
from repro.harness.sweep import build_cells, run_sweep


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under the benchmark timer.

    Experiment regenerators are deterministic and expensive; multiple
    timing rounds would only repeat identical work.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once(benchmark):
    """Fixture form of :func:`run_once`."""

    def _run(fn, *args, **kwargs):
        return run_once(benchmark, fn, *args, **kwargs)

    return _run


@pytest.fixture
def cached_run(benchmark):
    """Run a registered experiment, consulting the arm store.

    ``cached_run("fig9")`` dispatches through the experiment registry.
    Without ``$REPRO_SWEEP_CACHE`` in the environment this is exactly
    ``once(spec.run, SMOKE, seed)``; with it, the run goes through the
    sweep executor against ``ResultCache($REPRO_SWEEP_CACHE)``: stored arms
    skip their simulation (the timer then measures loading and reducing)
    and missing ones are run and stored.  ``extra_info["sweep_cache"]``
    records how many arms were stored and how many ran, so the JSON
    report stays honest.
    """

    def _run(name, scale=SMOKE, seed=0, **params):
        spec = registry.get(name)
        root = os.environ.get(CACHE_ENV_VAR)
        if not root:
            return run_once(benchmark, spec.run, scale, seed, **params)
        cells = build_cells([name], scale, [seed], grid={k: [v] for k, v in params.items()})
        sweep = run_once(benchmark, run_sweep, cells, cache=ResultCache(root))
        benchmark.extra_info["sweep_cache"] = {"stored": sweep.stored, "ran": sweep.ran}
        return sweep.cells[0].result

    return _run
