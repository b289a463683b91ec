"""The sweep executor: plan arms, run each distinct arm once, reduce cells.

A sweep is a list of cells — (experiment × scale × seed × operating
point).  :func:`run_sweep` is the one executor every run goes through (the
CLI, ``ExperimentSpec.run`` and so every ``figureN`` function, the
benchmarks).  It works in four steps:

1. plan every cell: an arm set names its arms, complete
   :class:`~repro.api.ScenarioSpec` s keyed by
   :func:`~repro.harness.cache.arm_key` (a bad grid value or override
   fails here, before any arm runs);
2. dedupe the arms by key (fig3's arms are fig9's sync arms, for one)
   and serve the stored ones from the arm store;
3. run the missing arms and the direct cells on one process pool across
   ``jobs``, storing each fresh arm as it lands;
4. reduce each cell once its arms are all there, and drop an arm once no
   cell still needs it.

Seeds fold into mean / stddev / min-max aggregates for the renderers and
CI artifacts.  Each arm is seeded by its spec, so a sweep's output is
identical whatever ``jobs`` is, and re-runs are free once the store is
warm.  The CLI front-end lives in ``repro.harness.__main__``
(``python -m repro.harness sweep fig9 --seeds 0..4 --jobs 8``).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.api import Deployment
from repro.harness import registry
from repro.harness.cache import ResultCache, arm_key, from_record, to_record
from repro.harness.configs import SMOKE, Scale

__all__ = [
    "SweepCell",
    "CellResult",
    "SweepGroup",
    "SweepResult",
    "SweepError",
    "expand_grid",
    "build_cells",
    "build_scenario_cells",
    "run_sweep",
    "aggregate_payloads",
]


# ---------------------------------------------------------------------------
# Cells
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepCell:
    """One unit of sweep work: an experiment at one (scale, seed, params)."""

    experiment: str
    scale: Scale
    seed: int | None
    params: tuple[tuple[str, Any], ...] = ()

    def label(self) -> str:
        extra = "".join(f" {k}={_fmt_param(v)}" for k, v in self.params)
        return f"{self.experiment} scale={self.scale.name} seed={self.seed}{extra}"


def _fmt_param(value: Any) -> str:
    """Human-readable param value; long ones (spec documents) are elided."""
    text = str(value)
    return text if len(text) <= 64 else f"<{len(text)}-char document>"


def expand_grid(grid: Mapping[str, Sequence[Any]] | None) -> list[dict[str, Any]]:
    """Cartesian product of a param grid; ``{}``/``None`` yields one empty point."""
    if not grid:
        return [{}]
    keys = sorted(grid)
    return [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]


def build_cells(
    experiments: Iterable[str],
    scale: Scale,
    seeds: Sequence[int | None],
    grid: Mapping[str, Sequence[Any]] | None = None,
) -> list[SweepCell]:
    """The full cell list for a sweep.

    ``grid`` maps keyword names to value lists; cells are ordered
    (experiment, operating point, seed) so serial runs group naturally.
    A ``None`` seed leaves the choice to the experiment (the scenario
    experiment then keeps its spec's own ``execution.seed``).
    """
    cells = []
    for name in experiments:
        spec = registry.get(name)  # raises KeyError for unknown names up-front
        points = expand_grid(grid)
        # A seed-invariant experiment gets exactly one cell per point,
        # pinned to seed 0, so its one result is never badged with a
        # seed it does not depend on.
        seed_axis = list(seeds) if spec.uses_seed else [0]
        cells += [SweepCell(name, scale, None if seed is None else int(seed),
                            tuple(sorted(params.items())))
                  for params in points for seed in seed_axis]
    return cells


def build_scenario_cells(
    spec,
    seeds: Sequence[int],
    grid: Mapping[str, Sequence[Any]] | None = None,
    scale: Scale | None = None,
) -> list[SweepCell]:
    """Sweep cells gridding directly over :class:`ScenarioSpec` fields.

    ``spec`` is the base :class:`repro.api.ScenarioSpec`; ``grid`` keys
    are dotted ``spec.override`` paths (``plane.num_shards``,
    ``tasks.0.concurrency``, ``system.cohort_batch_size``, ...) fanned
    out as a cartesian product on top of it.  Every cell runs the
    ``scenario`` experiment with the spec as canonical JSON (cells stay
    hashable for result grouping).  :func:`run_sweep` applies every
    cell's overrides when it plans, so a typo'd path or an invalid
    combination fails before any arm runs.
    """
    for path, values in (grid or {}).items():
        if not values:
            raise ValueError(f"scenario grid axis {path!r} has no values")
    spec_doc = json.dumps(spec.to_dict(), sort_keys=True)
    return build_cells(["scenario"], scale if scale is not None else SMOKE, seeds,
                       grid={"spec": [spec_doc], **(grid or {})})


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

class SweepError(RuntimeError):
    """One or more sweep cells failed (every arm that ran was still stored).

    ``result`` holds the partial :class:`SweepResult` over the cells that
    did complete, so callers (the CLI's ``--json`` path, CI) can still
    report the work that succeeded.
    """

    def __init__(
        self,
        failures: list[tuple["SweepCell", Exception]],
        result: "SweepResult | None" = None,
    ):
        self.failures = failures
        self.result = result
        # Full tracebacks (including the worker-side remote traceback,
        # which ProcessPoolExecutor chains via __cause__) for diagnosis;
        # the message itself stays a short summary.
        self.tracebacks = [
            "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
            for _, exc in failures
        ]
        lines = [f"{len(failures)} sweep cell(s) failed:"]
        lines += [f"  {cell.label()}: {exc!r}" for cell, exc in failures]
        super().__init__("\n".join(lines))


def _plan(cell: SweepCell) -> dict[str, tuple[str, Any]] | None:
    """A cell's arms as ``{name: (key, spec)}``; ``None`` for a direct cell."""
    spec = registry.get(cell.experiment)
    if spec.arms is None:
        return None
    arms = spec.arms(**spec.kwargs(cell.scale, cell.seed, cell.params))
    return {name: (arm_key(arm), arm) for name, arm in arms.items()}


def _run_arm(spec) -> dict:
    """Run one arm and return its record (runs in worker processes)."""
    return to_record(Deployment.from_spec(spec).run())


def _run_direct(cell: SweepCell) -> Any:
    """Run one direct cell and return its result (runs in worker processes).

    A spawn- or forkserver-start worker rebuilds the registry when it
    unpickles this function: importing ``repro.harness`` registers every
    experiment.
    """
    spec = registry.get(cell.experiment)
    return spec.runner(**spec.kwargs(cell.scale, cell.seed, cell.params))


def _timed(fn: Callable[[Any], Any], arg: Any) -> tuple[Any, float]:
    start = time.perf_counter()
    return fn(arg), time.perf_counter() - start


def _outcome(fn: Callable, *args, **kwargs) -> tuple[Any, Exception | None]:
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:
        return None, exc


def _execute(tasks: dict, jobs: int) -> Iterator[tuple[Any, Any, Exception | None]]:
    """Run ``{tag: (fn, arg)}``; yield ``(tag, (value, seconds), error)`` each.

    In-process and in order for ``jobs <= 1`` (easier to debug, and what
    the determinism tests compare the parallel path against); otherwise
    on one process pool, in completion order.
    """
    if jobs <= 1 or not tasks:
        for tag, (fn, arg) in tasks.items():
            yield (tag, *_outcome(_timed, fn, arg))
        return
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        futures = {pool.submit(_timed, fn, arg): tag for tag, (fn, arg) in tasks.items()}
        for fut in as_completed(futures):
            yield (futures[fut], *_outcome(fut.result))


@dataclass(frozen=True)
class CellResult:
    """One finished cell: its result, its arms' keys by name, and the wall
    time this sweep spent on it (a direct run, or its arms that ran here)."""

    cell: SweepCell
    result: Any
    arms: dict[str, str] = field(default_factory=dict)
    elapsed_s: float = 0.0

    @functools.cached_property
    def payload(self) -> Any:
        """The result as JSON (what ``--json`` reports and aggregates read)."""
        return registry.to_jsonable(self.result)


@dataclass(frozen=True)
class SweepGroup:
    """All seeds of one (experiment × operating point), plus their aggregate."""

    experiment: str
    scale: Scale
    params: tuple[tuple[str, Any], ...]
    cells: list[CellResult]

    @property
    def seeds(self) -> list[int]:
        return [c.cell.seed for c in self.cells]

    @functools.cached_property
    def aggregate(self) -> Any:
        """Mean/std/min/max over seeds of every numeric field of the result."""
        return aggregate_payloads([c.payload for c in self.cells])

    def describe(self) -> str:
        extra = "".join(f" {k}={_fmt_param(v)}" for k, v in self.params)
        return (
            f"{self.experiment} scale={self.scale.name}{extra} "
            f"seeds={self.seeds}"
        )


@dataclass
class SweepResult:
    """Everything a finished sweep produced.

    ``arms`` counts the distinct arms the cells planned; ``stored`` of
    them came from the arm store and ``ran`` were run here.  ``direct``
    counts the direct cells, which always run.
    """

    cells: list[CellResult]
    jobs: int
    duration_s: float
    arms: int = 0
    stored: int = 0
    ran: int = 0
    direct: int = 0

    @functools.cached_property
    def _groups(self) -> list[SweepGroup]:
        keyed: dict[tuple, list[CellResult]] = {}
        order: list[tuple] = []
        for c in self.cells:
            key = (c.cell.experiment, c.cell.scale, c.cell.params)
            if key not in keyed:
                keyed[key] = []
                order.append(key)
            keyed[key].append(c)
        return [
            SweepGroup(experiment=k[0], scale=k[1], params=k[2], cells=keyed[k])
            for k in order
        ]

    def groups(self) -> list[SweepGroup]:
        """Cells collected per (experiment, params), seeds aggregated together.

        Memoized so renderers and :meth:`to_jsonable` share group
        instances (and therefore each group's cached aggregate).
        """
        return self._groups

    def to_jsonable(self) -> dict:
        """Machine-readable sweep report (dumped by ``--json`` and CI)."""
        return {
            "jobs": self.jobs,
            "duration_s": self.duration_s,
            "arms": self.arms,
            "arms_stored": self.stored,
            "arms_ran": self.ran,
            "direct_cells": self.direct,
            "cells": [
                {"experiment": c.cell.experiment, "scale": c.cell.scale.name,
                 "seed": c.cell.seed, "params": dict(c.cell.params),
                 "elapsed_s": c.elapsed_s, "arms": c.arms, "result": c.payload}
                for c in self.cells
            ],
            "aggregates": [
                {
                    "experiment": g.experiment,
                    "scale": g.scale.name,
                    "params": dict(g.params),
                    "seeds": g.seeds,
                    "aggregate": g.aggregate,
                }
                for g in self.groups()
            ],
        }


def run_sweep(
    cells: Sequence[SweepCell],
    jobs: int = 1,
    cache: ResultCache | None = None,
    progress: Callable[[str], None] | None = None,
) -> SweepResult:
    """Plan, dedupe, serve or run, and reduce ``cells`` over ``jobs`` processes.

    ``cache`` is the arm store to serve from and store into (``None``:
    run every arm, store nothing).  Cell order in the result matches the
    input order regardless of completion order.  A planning error (a bad
    grid value or spec override) raises before any arm runs.  A failing
    arm or direct cell fails only the cells that need it: every other arm
    still runs and is stored, then a :class:`SweepError` naming the
    failed cells is raised — so a resume after fixing the bug only pays
    for what failed.
    """
    say = progress or (lambda _msg: None)
    start = time.perf_counter()

    # 1. Plan every cell; dedupe its arms by key, in first-seen order.
    plans = [_plan(cell) for cell in cells]
    arms: dict[str, tuple[str, Any]] = {}  # key -> (label, spec)
    users: dict[str, set[int]] = {}        # key -> open cells that reduce it
    for i, plan in enumerate(plans):
        for name, (key, spec) in (plan or {}).items():
            arms.setdefault(key, (f"{cells[i].experiment}/{name}", spec))
            users.setdefault(key, set()).add(i)
    runs: dict = {}  # key -> RunResult, dropped once no open cell needs it
    seconds: dict[str, float] = {}
    results: dict[int, CellResult] = {}
    failures: dict[int, Exception] = {}

    def close(i: int, exc: Exception | None = None) -> None:
        if exc is not None:
            failures[i] = exc
            say(f"[FAILED    ] {cells[i].label()}: {exc!r}")
        for key, _ in (plans[i] or {}).values():
            users[key].discard(i)
            if not users[key]:
                runs.pop(key, None)

    def arrived(key: str, run) -> None:
        if users[key]:
            runs[key] = run
        for i in sorted(users[key]):
            keys = {name: k for name, (k, _) in plans[i].items()}
            if all(k in runs for k in keys.values()):  # 4. reduce
                cell, spec = cells[i], registry.get(cells[i].experiment)
                kw = spec.kwargs(cell.scale, cell.seed, cell.params)
                result, exc = _outcome(spec.reduce, {n: runs[k] for n, k in keys.items()}, **kw)
                if exc is None:
                    elapsed = sum(seconds.get(k, 0.0) for k in set(keys.values()))
                    results[i] = CellResult(cell, result, keys, elapsed)
                close(i, exc)

    # 2. Serve the stored arms.
    stored = set()
    for key, (label, _) in arms.items():
        run = cache.load(key) if cache is not None else None
        if run is not None:
            stored.add(key)
            say(f"[stored    ] {label}")
            arrived(key, run)

    # 3. Run the missing arms and the direct cells on one pool.
    tasks = {key: (_run_arm, spec) for key, (_, spec) in arms.items() if key not in stored}
    tasks.update({i: (_run_direct, cells[i]) for i, plan in enumerate(plans) if plan is None})
    ran = 0
    for ref, out, exc in _execute(tasks, jobs):
        if isinstance(ref, int):  # a direct cell
            if exc is None:
                results[ref] = CellResult(cells[ref], out[0], {}, out[1])
                say(f"[ran {out[1]:6.1f}s] {cells[ref].label()}")
            close(ref, exc)
            continue
        if exc is None:
            record, seconds[ref] = out
            # A fresh arm takes the stored arms' path: record -> rebuilt run.
            run, exc = _outcome(from_record, record)
        if exc is not None:
            say(f"[FAILED    ] arm {arms[ref][0]}: {exc!r}")
            for i in sorted(users[ref]):
                close(i, exc)
            continue
        if cache is not None:
            try:
                cache.store(ref, record)
            except OSError as err:
                # A store problem must not discard a computed arm or
                # masquerade as an experiment failure.
                say(f"[cache-store failed] {arms[ref][0]}: {err!r}")
        ran += 1
        say(f"[ran {seconds[ref]:6.1f}s] arm {arms[ref][0]}")
        arrived(ref, run)

    sweep = SweepResult(
        cells=[results[i] for i in sorted(results)],
        jobs=jobs,
        duration_s=time.perf_counter() - start,
        arms=len(arms),
        stored=len(stored),
        ran=ran,
        direct=sum(plan is None for plan in plans),
    )
    if failures:
        raise SweepError([(cells[i], failures[i]) for i in sorted(failures)], result=sweep)
    return sweep


# ---------------------------------------------------------------------------
# Multi-seed aggregation
# ---------------------------------------------------------------------------

def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _scalar_stat(values: list) -> dict:
    """Mean/std/min/max over seeds, ``None`` entries counted as missing."""
    present = [float(v) for v in values if _is_number(v)]
    n = len(present)
    if n == 0:
        return {"kind": "scalar", "mean": None, "std": None, "min": None,
                "max": None, "n": 0, "n_missing": len(values)}
    mean = sum(present) / n
    var = sum((v - mean) ** 2 for v in present) / n
    return {
        "kind": "scalar",
        "mean": mean,
        "std": math.sqrt(var),
        "min": min(present),
        "max": max(present),
        "n": n,
        "n_missing": len(values) - n,
    }


def aggregate_payloads(payloads: Sequence[Any]) -> Any:
    """Fold structurally-identical JSON results from several seeds into one.

    Numeric leaves become ``{"kind": "scalar", mean, std, min, max, n}``;
    equal-length numeric lists become elementwise band series
    ``{"kind": "series", mean, std, min, max}``; ragged numeric lists are
    summarized by their length and per-seed mean.  Containers recurse;
    non-numeric leaves keep the first seed's value.

    Seeds may disagree structurally (a conditional metric emitted by
    only some seeds): a dict key missing from some payloads — or present
    where the payload isn't a dict at all — counts as a missing value
    (numeric leaves fold it into ``n_missing``; containers aggregate the
    seeds that do carry it and annotate ``n_missing``), and keys only
    later seeds emit still appear, in first-seen order.
    """
    if not payloads:
        return None
    first = payloads[0]

    if all(v is None or _is_number(v) for v in payloads):
        return _scalar_stat(list(payloads))

    if isinstance(first, dict):
        keys = list(first)
        for p in payloads[1:]:
            if isinstance(p, dict):
                keys.extend(k for k in p if k not in keys)
        out = {}
        for k in keys:
            vals = [p.get(k) if isinstance(p, dict) else None for p in payloads]
            if all(v is None or _is_number(v) for v in vals):
                out[k] = _scalar_stat(vals)
                continue
            present = [v for v in vals if v is not None]
            agg = aggregate_payloads(present)
            n_missing = len(vals) - len(present)
            if n_missing and isinstance(agg, dict):
                agg = {**agg, "n_missing": n_missing}
            out[k] = agg
        return out

    if isinstance(first, list):
        numeric = all(
            isinstance(p, list) and all(v is None or _is_number(v) for v in p)
            for p in payloads
        )
        if numeric:
            lengths = {len(p) for p in payloads}
            if lengths == {len(first)} and first:
                cols = [_scalar_stat([p[j] for p in payloads]) for j in range(len(first))]
                return {
                    "kind": "series",
                    "length": len(first),
                    "mean": [c["mean"] for c in cols],
                    "std": [c["std"] for c in cols],
                    "min": [c["min"] for c in cols],
                    "max": [c["max"] for c in cols],
                }
            per_seed_mean = []
            for p in payloads:
                nums = [v for v in p if _is_number(v)]
                # A seed with no numeric entries is missing, not 0.0.
                per_seed_mean.append(sum(nums) / len(nums) if nums else None)
            return {
                "kind": "ragged",
                "length": _scalar_stat([len(p) for p in payloads]),
                "per_seed_mean": _scalar_stat(per_seed_mean),
            }
        if all(isinstance(p, list) and len(p) == len(first) for p in payloads):
            return [
                aggregate_payloads([p[j] for p in payloads]) for j in range(len(first))
            ]
        return {"kind": "ragged", "length": _scalar_stat([len(p) for p in payloads])}

    return {"kind": "const", "value": first}
