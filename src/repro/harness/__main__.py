"""Command-line regeneration of the paper's figures and tables.

Single experiments (one seed, in-process, no arm store)::

    python -m repro.harness fig9                 # one experiment, smoke scale
    python -m repro.harness fig9 --scale default # 10x larger operating points
    python -m repro.harness all                  # the whole evaluation section
    python -m repro.harness table1 --seed 3

Multi-seed parallel sweeps (stored arms, aggregated mean/std/min-max)::

    python -m repro.harness sweep fig9 --seeds 0..4 --jobs 8
    python -m repro.harness sweep fig9 fig10 --seeds 0,1,2 --scale smoke
    python -m repro.harness sweep all --seeds 0..2 --json sweep.json
    python -m repro.harness sweep fig9 --grid target_loss=2.5,2.6 --jobs 4

Both forms go through one executor (:func:`repro.harness.sweep.run_sweep`),
which runs each distinct arm (one complete scenario spec) once, so
``all`` runs the arms figures share once.  A sweep also stores every arm
under ``.sweep-cache/`` (or ``$REPRO_SWEEP_CACHE``), keyed by its spec
and the source tree, so re-runs, resumes and other experiments sharing
an arm only pay for missing arms; aggregated output is identical
whatever ``--jobs`` is.  ``--json`` dumps the machine-readable sweep
report CI uploads as an artifact.

Declarative scenario runs/sweeps (any ``repro.api.ScenarioSpec``)::

    python -m repro.harness scenario --spec my_scenario.json
    python -m repro.harness sweep scenario --spec my_scenario.json \
        --seeds 0..4 --grid plane.num_shards=1,2,4

Telemetry trace export (telemetry forced on for one scenario)::

    python -m repro.harness trace my_scenario.json > trace.jsonl
    python -m repro.harness trace my_scenario.json --out trace.jsonl \
        --prom metrics.prom

which writes the merged span+event JSONL trace (stdout or ``--out``)
and, with ``--prom``, the Prometheus text exposition of the run's
metrics; the span/event summary goes to stderr.

where ``--grid`` keys are dotted spec-override paths
(``tasks.0.concurrency``, ``system.cohort_batch_size``, ...).  The
``scenario`` experiment is excluded from ``all`` (it has no default
spec).

Failures in an ``all`` run no longer abort the remaining experiments:
each failure is reported on stderr and the process exits nonzero.

Experiments are dispatched through the :mod:`repro.harness.registry`;
``python -m repro.harness list`` (or ``--list``) shows every registered
experiment name with its one-line description.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from repro.api import SpecError
from repro.harness import configs, registry
from repro.harness import chaos  # noqa: F401  (registers the chaos experiment)
from repro.harness import figures  # noqa: F401  (imports register the experiments)
from repro.harness import obs  # noqa: F401  (registers the obs experiment)
from repro.harness import perf  # noqa: F401  (registers the five perf experiments)
from repro.harness import scenario  # noqa: F401  (registers the scenario experiment)
from repro.harness.cache import ResultCache
from repro.harness.report import print_aggregate
from repro.harness.sweep import SweepError, build_cells, run_sweep

_SCALES = {"smoke": configs.SMOKE, "default": configs.DEFAULT, "paper": configs.PAPER}


def parse_seeds(text: str) -> list[int]:
    """Parse ``--seeds``: comma-separated ints and/or inclusive ``a..b`` ranges.

    ``"0,1,2"`` → [0, 1, 2]; ``"0..4"`` → [0, 1, 2, 3, 4]; ``"0,2..4"`` →
    [0, 2, 3, 4].  Duplicates are dropped, order preserved.
    """
    seeds: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo_s, _, hi_s = part.partition("..")
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValueError(f"empty seed range {part!r}")
            seeds.extend(range(lo, hi + 1))
        else:
            seeds.append(int(part))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return list(dict.fromkeys(seeds))


def parse_grid(entries: list[str]) -> dict[str, list]:
    """Parse repeated ``--grid key=v1,v2`` flags into a param grid."""
    grid: dict[str, list] = {}
    for entry in entries:
        key, sep, rest = entry.partition("=")
        if not sep or not key or not rest:
            raise ValueError(f"--grid expects key=v1,v2,..., got {entry!r}")
        # Dedup like parse_seeds does: a repeated value would run the same
        # cell twice and double-weight that point in the aggregate.
        values = list(dict.fromkeys(_coerce(v) for v in rest.split(",") if v != ""))
        if not values:
            # An empty axis would make the cell product empty and the
            # sweep a silent no-op; fail loudly instead.
            raise ValueError(f"--grid axis {key!r} has no values: {entry!r}")
        key = key.strip()
        if key in grid:
            # Last-flag-wins would silently shrink the sweep.
            raise ValueError(f"--grid axis {key!r} given twice")
        grid[key] = values
    return grid


def _coerce(text: str):
    # JSON's spelling of booleans, so boolean spec fields can be gridded.
    if text in ("true", "false"):
        return text == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _resolve_experiments(names: list[str]) -> list[str]:
    known = registry.names()
    for name in names:
        if name != "all" and name not in known:
            raise SystemExit(
                f"unknown experiment {name!r}; choose from: {', '.join(known + ['all'])}"
            )
    if "all" in names:
        # 'scenario' is parameterized by a --spec document and has no
        # standalone default, so it never rides along with 'all'.
        return [name for name in known if name != "scenario"]
    return list(dict.fromkeys(names))


def _load_spec_doc(path: str) -> dict:
    """Read a ScenarioSpec JSON document for the scenario experiment."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read spec {path!r}: {exc}")


def _run_main(args: argparse.Namespace) -> int:
    scale = _SCALES[args.scale]
    grid = {}
    # A scenario run honors the spec document's own execution.seed unless
    # the user explicitly passes --seed; other experiments default to 0.
    seed = args.seed
    if args.experiment == "scenario":
        if not args.spec:
            raise SystemExit("error: the scenario experiment requires --spec PATH")
        grid["spec"] = [json.dumps(_load_spec_doc(args.spec), sort_keys=True)]
    else:
        if args.spec:
            raise SystemExit("error: --spec only applies to the scenario experiment")
        seed = 0 if seed is None else seed
    experiments = _resolve_experiments([args.experiment])
    return _drive(build_cells(experiments, scale, [seed], grid=grid), experiments,
                  scale, [seed], jobs=1, cache=None)


def _sweep_main(args: argparse.Namespace) -> int:
    scale = _SCALES[args.scale]
    try:
        seeds = parse_seeds(args.seeds)
        grid = parse_grid(args.grid) if args.grid else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    experiments = _resolve_experiments(args.experiments)
    if grid and len(experiments) > 1:
        # Grid keys are runner keywords, and runners differ per experiment;
        # applying one grid to all of them would TypeError mid-sweep.
        print("error: --grid requires exactly one experiment", file=sys.stderr)
        return 2
    if args.spec or experiments == ["scenario"]:
        # Scenario sweeps grid over dotted ScenarioSpec field paths.
        if experiments != ["scenario"]:
            print("error: --spec only applies to the scenario experiment",
                  file=sys.stderr)
            return 2
        if not args.spec:
            print("error: sweeping 'scenario' requires --spec PATH",
                  file=sys.stderr)
            return 2
        spec_doc = json.dumps(_load_spec_doc(args.spec), sort_keys=True)
        grid = {"spec": [spec_doc], **(grid or {})}
    cells = build_cells(experiments, scale, seeds, grid=grid)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    return _drive(cells, experiments, scale, seeds, args.jobs, cache, args.json)


def _drive(cells, experiments, scale, seeds, jobs, cache, json_path=None) -> int:
    """Run ``cells`` through the sweep executor, report and render; the exit code.

    A failed cell does not stop its siblings from rendering; any failure,
    a renderer's included, makes the exit code nonzero.
    """
    print(f"=== {' '.join(experiments)} (scale={scale.name}, "
          f"seeds={seeds}, cells={len(cells)}, jobs={jobs}) ===")
    failures = []
    try:
        sweep = run_sweep(cells, jobs=jobs, cache=cache, progress=print)
    except SweepError as err:
        sweep, failures = err.result, err.failures
        print(f"ERROR: {err}", file=sys.stderr)
        for tb in err.tracebacks:
            print(tb, file=sys.stderr)
    except SpecError as exc:
        # Planning applies every cell's overrides before any arm runs.
        print(f"error: invalid scenario spec: {exc}", file=sys.stderr)
        return 2
    except Exception:
        print(f"ERROR: sweep failed:\n{traceback.format_exc()}", file=sys.stderr)
        return 1
    print(f"[swept {len(sweep.cells)} cells in {sweep.duration_s:.1f}s: {sweep.arms} arms, "
          f"{sweep.stored} stored, {sweep.ran} ran, {sweep.direct} direct]\n")

    # Write the machine-readable report before rendering: a broken
    # renderer must not cost CI its artifact — the results are computed.
    if json_path:
        report = {**sweep.to_jsonable(), "scale": scale.name, "seeds": seeds}
        if failures:
            report["failures"] = [cell.label() for cell, _ in failures]
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
        print(f"[wrote sweep report to {json_path}]")

    failed = [cell.experiment for cell, _ in failures]
    for group in sweep.groups():
        try:
            if len(group.cells) == 1:
                print(f"--- {group.describe()} ---")
                registry.get(group.experiment).printer(group.cells[0].result)
            else:
                print_aggregate(
                    group.aggregate,
                    title=f"--- {group.describe()} (mean/std/min/max over "
                          f"{len(group.cells)} seeds) ---",
                )
        except Exception:
            failed.append(group.experiment)
            print(f"ERROR: rendering {group.describe()} failed:\n"
                  f"{traceback.format_exc()}", file=sys.stderr)
    if failed:
        print(f"FAILED: {', '.join(dict.fromkeys(failed))}", file=sys.stderr)
        return 1
    return 0


def _trace_main(args: argparse.Namespace) -> int:
    """``python -m repro.harness trace <spec>``: export one run's telemetry."""
    doc = _load_spec_doc(args.spec)
    try:
        result, report = obs.trace_scenario(
            doc, t_end=args.t_end, max_spans=args.max_spans
        )
    except Exception:
        print(f"ERROR: trace run failed:\n{traceback.format_exc()}", file=sys.stderr)
        return 1
    summary = report.summary()
    spans = summary["spans"]
    print(
        f"[trace: {sum(spans['totals'].values())} spans completed "
        f"({spans['open']} open, {spans['evicted']} evicted), "
        f"{sum(summary['events'].values())} events, "
        f"{sum(len(f['series']) for f in summary['metrics'].values())} "
        f"metric series]",
        file=sys.stderr,
    )
    jsonl = report.to_jsonl()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(jsonl + "\n")
        print(f"[wrote trace to {args.out}]", file=sys.stderr)
    else:
        print(jsonl)
    if args.prom:
        with open(args.prom, "w", encoding="utf-8") as fh:
            fh.write(report.prometheus())
        print(f"[wrote metrics exposition to {args.prom}]", file=sys.stderr)
    return 0


def _build_parsers() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    run_parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate figures/tables of the PAPAYA paper.",
        epilog=(
            "Other forms: 'python -m repro.harness sweep ... ' runs "
            "multi-seed parallel sweeps (see 'sweep --help'); "
            "'python -m repro.harness list' shows every registered "
            "experiment with its description."
        ),
    )
    run_parser.add_argument(
        "experiment",
        nargs="?",
        choices=registry.names() + ["all"],
        help="which figure/table to regenerate",
    )
    run_parser.add_argument(
        "--list", action="store_true",
        help="list every registered experiment and exit",
    )
    run_parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="smoke",
        help="operating-point scale (paper values are divided down; "
        "shapes are scale-free)",
    )
    run_parser.add_argument(
        "--seed", type=int, default=None,
        help="experiment seed (default 0; for the scenario experiment the "
        "default is the spec's own execution.seed)",
    )
    run_parser.add_argument(
        "--spec", default=None, metavar="PATH",
        help="ScenarioSpec JSON document (scenario experiment only)",
    )

    sweep_parser = argparse.ArgumentParser(
        prog="python -m repro.harness sweep",
        description="Multi-seed parallel sweep with caching and aggregation.",
    )
    sweep_parser.add_argument(
        "experiments", nargs="+", metavar="experiment",
        help=f"experiments to sweep ({', '.join(registry.names() + ['all'])})",
    )
    sweep_parser.add_argument(
        "--scale", choices=sorted(_SCALES), default="smoke",
        help="operating-point scale for every cell",
    )
    sweep_parser.add_argument(
        "--seeds", default="0",
        help="comma list and/or inclusive ranges, e.g. 0,1,2 or 0..4",
    )
    sweep_parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for missing arms and direct cells (1 = in-process)",
    )
    sweep_parser.add_argument(
        "--grid", action="append", default=[], metavar="KEY=V1,V2",
        help="parameter grid axis (repeatable); overrides the spec default",
    )
    sweep_parser.add_argument(
        "--cache-dir", default=None,
        help="arm store directory (default .sweep-cache or $REPRO_SWEEP_CACHE)",
    )
    sweep_parser.add_argument(
        "--no-cache", action="store_true", help="neither read nor write the arm store"
    )
    sweep_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the machine-readable sweep report here",
    )
    sweep_parser.add_argument(
        "--spec", default=None, metavar="PATH",
        help="ScenarioSpec JSON document (scenario experiment only); "
        "--grid keys become dotted spec-override paths",
    )
    return run_parser, sweep_parser


def _build_trace_parser() -> argparse.ArgumentParser:
    trace_parser = argparse.ArgumentParser(
        prog="python -m repro.harness trace",
        description="Run one scenario with telemetry forced on and export "
        "the merged span+event JSONL trace.",
    )
    trace_parser.add_argument(
        "spec", metavar="SPEC", help="ScenarioSpec JSON document to run"
    )
    trace_parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the JSONL trace here (default: stdout)",
    )
    trace_parser.add_argument(
        "--prom", default=None, metavar="PATH",
        help="also write the Prometheus metrics exposition here",
    )
    trace_parser.add_argument(
        "--t-end", type=float, default=None, metavar="SECONDS",
        help="override the spec's execution.t_end_s horizon",
    )
    trace_parser.add_argument(
        "--max-spans", type=int, default=None, metavar="N",
        help="override the tracer's retained-span bound",
    )
    return trace_parser


def _list_main() -> int:
    """``python -m repro.harness list``: one metadata line per experiment.

    Sourced from the same :class:`~repro.harness.registry.ExperimentSpec`
    metadata that ``docs/EXPERIMENTS.md`` catalogues (and that
    ``tools/check_docs.py`` keeps in sync): the one-line description,
    plus bracketed flags for specs that ignore ``--scale``
    (``scale-free``) or ignore ``--seed`` (``deterministic``).
    """
    specs = registry.specs()
    width = max((len(spec.name) for spec in specs), default=0)
    for spec in specs:
        flags = []
        if not spec.uses_scale:
            flags.append("scale-free")
        if not spec.uses_seed:
            flags.append("deterministic")
        suffix = f"  [{'; '.join(flags)}]" if flags else ""
        print(f"{spec.name:<{width}}  {spec.description}{suffix}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    run_parser, sweep_parser = _build_parsers()
    if argv[:1] == ["sweep"]:
        return _sweep_main(sweep_parser.parse_args(argv[1:]))
    if argv[:1] == ["trace"]:
        return _trace_main(_build_trace_parser().parse_args(argv[1:]))
    if argv == ["list"]:
        return _list_main()
    args = run_parser.parse_args(argv)
    if args.list:
        return _list_main()
    if args.experiment is None:
        run_parser.error("an experiment name (or 'all', or 'list') is required")
    return _run_main(args)


if __name__ == "__main__":
    sys.exit(main())
