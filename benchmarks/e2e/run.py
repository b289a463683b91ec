"""Driver of the ``e2e`` benchmark: whole spec-built runs, timed and traced.

Full set (what a person runs; ~3 minutes)::

    PYTHONPATH=src python benchmarks/e2e/run.py [--seed N] [--out FILE]

runs every workload — 3 timed reps with telemetry and tracing off, then
one traced rep for the per-layer numbers — prints every metric by name
with its unit, checks the outputs and writes one JSON result.

One workload (what the benchmark contract's driver runs)::

    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

keeps starting timed reps until ``S`` seconds have passed and prints the
medians of the end-to-end metrics (``--trace 0``), or runs one timed and
one traced rep and prints the per-layer metrics (``--trace 1``), as one
JSON object on the last line of standard output.

Reps run strictly one after another, each in a fresh child process with
BLAS pinned to one thread.  Exit status is non-zero when any rep failed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import e2e_catalog as catalog
from e2e_rep import load_spec, spec_sha256

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BASELINE = HERE / "results" / "BENCH_11.json"

#: a rep that has not finished by then is killed and counted as failed
REP_TIMEOUT_S = 150


def why(workload: str) -> str:
    return (HERE / "workloads" / f"{workload}.why").read_text().strip()


def manifest() -> dict:
    """The content of BENCHMARK.json, derived from the catalog."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": catalog.RUN_SECONDS,
        "workloads": [{"name": w, "why": why(w)} for w in catalog.WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound, _ in catalog.END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _, _ in catalog.PER_LAYER
        ],
    }


# -- running reps ---------------------------------------------------------------

def spawn_rep(workload: str, seed: int, scale: float, mode: str) -> dict:
    """One rep in a fresh child process; never raises."""
    args = {"workload": workload, "seed": seed, "scale": scale, "mode": mode}
    # Its own session, so that a timeout can take the shard workers too.
    child = subprocess.Popen(
        [sys.executable, str(HERE / "e2e_rep.py"), json.dumps(args)],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return {"ok": False, "mode": mode, "error": f"timed out after {REP_TIMEOUT_S}s"}
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        return {"ok": False, "mode": mode, "error": f"child exited {child.returncode}"}
    return json.loads(lines[-1])


class Ledger:
    """Reps of one workload, with the digest rule applied as they arrive.

    A rep fails if it raised, if its own output checks failed, or if its
    ``sim_digest`` differs from the first good rep's — timed, traced and
    telemetry reps of one seed must all have simulated the same thing.
    """

    def __init__(self) -> None:
        self.reps: list[dict] = []
        self.digest: str | None = None

    def add(self, rep: dict) -> dict:
        if rep["ok"]:
            if self.digest is None:
                self.digest = rep["sim_digest"]
            elif rep["sim_digest"] != self.digest:
                rep["ok"] = False
                rep["error"] = (f"sim_digest {rep['sim_digest'][:12]} of the "
                                f"{rep['mode']} rep != {self.digest[:12]}")
        if not rep["ok"]:
            print(f"  FAILED {rep['mode']} rep: {rep['error']}", file=sys.stderr)
        self.reps.append(rep)
        return rep

    def good(self, mode: str) -> list[dict]:
        return [r for r in self.reps if r["ok"] and r["mode"] == mode]

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.reps)


def timed_reps(ledger: Ledger, workload: str, seed: int, scale: float,
               min_reps: int, seconds: float) -> None:
    """Timed reps until ``min_reps`` are done and ``seconds`` have passed.

    Stops at the first failed rep: the run has failed by then, and a
    broken checkout would otherwise fail a hundred reps in a row.
    """
    start = time.perf_counter()
    done = 0
    while done < min_reps or time.perf_counter() - start < seconds:
        rep = ledger.add(spawn_rep(workload, seed, scale, "timed"))
        if not rep["ok"]:
            break
        done += 1


def traced_reps(ledger: Ledger, workload: str, seed: int, scale: float) -> None:
    ledger.add(spawn_rep(workload, seed, scale, "traced"))
    if workload == "async_fleet":
        # Telemetry's own cost is measured where the control path is all
        # there is, on one untraced rep with the spec's telemetry plane on.
        ledger.add(spawn_rep(workload, seed, scale, "telemetry"))


def end_to_end(ledger: Ledger) -> dict[str, dict]:
    """median/min/max/n of each end-to-end metric over the good timed reps."""
    out = {}
    for name in catalog.END_TO_END_NAMES:
        values = [r["metrics"][name] for r in ledger.good("timed")]
        if values:
            out[name] = {
                "median": statistics.median(values), "min": min(values),
                "max": max(values), "n": len(values), "values": values,
                "unit": catalog.UNITS[name],
            }
    return out


def per_layer(ledger: Ledger) -> dict[str, float]:
    """Per-layer metrics of the traced rep (missing layers read 0)."""
    traced = ledger.good("traced")
    timed = ledger.good("timed")
    if not traced or not timed:
        return {}
    base = statistics.median(r["metrics"]["run_s"] for r in timed)
    layers = dict(traced[0]["layers"])
    layers["trace.overhead_frac"] = traced[0]["metrics"]["run_s"] / base - 1.0
    for rep in ledger.good("telemetry"):
        layers.update(rep["obs"])
        layers["obs.telemetry_overhead_frac"] = rep["metrics"]["run_s"] / base - 1.0
    return {name: layers.get(name, 0.0) for name in catalog.PER_LAYER_NAMES}


def print_metrics(e2e: dict, layers: dict) -> None:
    for name, m in e2e.items():
        print(f"  {name:38s} {m['median']:14.6g} {m['unit']:6s} "
              f"(min {m['min']:.6g}, max {m['max']:.6g}, n={m['n']}; "
              f"{catalog.BETTER[name]} is better, bound {catalog.BOUNDS[name]:.0%})")
    for name, value in layers.items():
        print(f"  {name:38s} {value:14.6g} {catalog.UNITS[name]}")


# -- the two entry points ------------------------------------------------------

def run_contract(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """One workload, one result line (the benchmark contract's protocol)."""
    ledger = Ledger()
    if trace:
        timed_reps(ledger, workload, seed, catalog.SCALE, 1, 0.0)
        traced_reps(ledger, workload, seed, catalog.SCALE)
        layers = per_layer(ledger)
        print_metrics({}, layers)
        metrics = {n: {"value": v, "unit": catalog.UNITS[n]} for n, v in layers.items()}
    else:
        timed_reps(ledger, workload, seed, catalog.SCALE, 1, seconds)
        e2e = end_to_end(ledger)
        print_metrics(e2e, {})
        metrics = {n: {"value": m["median"], "unit": m["unit"]} for n, m in e2e.items()}
    if not metrics:
        print(f"{workload}: no rep succeeded, nothing to report", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": ledger.failed == 0, "attempted": len(ledger.reps),
        "failed": ledger.failed, "metrics": metrics,
    }))
    return 1 if ledger.failed else 0


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_full(seed: int, out: Path | None) -> int:
    """Every workload: the timed reps, then the traced rep(s)."""
    scale = catalog.SCALE
    reference = {}
    if BASELINE.exists():
        baseline = json.loads(BASELINE.read_text())
        if (baseline["header"]["seed"], baseline["header"]["scale"]) == (seed, scale):
            reference = {w: r["sim_digest"] for w, r in baseline["workloads"].items()}
    doc = {
        "header": {
            "git_sha": _git_sha(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "cpu_count": os.cpu_count(),
            "loadavg_1m": os.getloadavg()[0],
            "seed": seed,
            "scale": scale,
            "spec_sha256": {
                w: spec_sha256(load_spec(w, seed, scale)) for w in catalog.WORKLOADS
            },
        },
        "workloads": {},
    }
    attempted = failed = 0
    for workload in catalog.WORKLOADS:
        print(f"{workload}: {why(workload)}")
        ledger = Ledger()
        timed_reps(ledger, workload, seed, scale, catalog.TIMED_REPS, 0.0)
        traced_reps(ledger, workload, seed, scale)
        e2e, layers = end_to_end(ledger), per_layer(ledger)
        print_metrics(e2e, layers)
        changed = workload in reference and ledger.digest != reference[workload]
        print(f"  sim_digest {ledger.digest}" + ("  digest_changed" if changed else ""))
        print(f"  ops_attempted {len(ledger.reps)}  ops_failed {ledger.failed}")
        traced = ledger.good("traced")
        doc["workloads"][workload] = {
            "why": why(workload),
            "sim_digest": ledger.digest,
            "digest_changed": changed,
            "end_to_end": e2e,
            "per_layer": layers,
            "layer_self_s": traced[0]["layer_self_s"] if traced else {},
            "counts": ledger.good("timed")[0]["counts"] if ledger.good("timed") else {},
            "ops_attempted": len(ledger.reps),
            "ops_failed": ledger.failed,
            "errors": [r["error"] for r in ledger.reps if not r["ok"]],
        }
        attempted += len(ledger.reps)
        failed += ledger.failed
    doc["ops_attempted"], doc["ops_failed"] = attempted, failed
    print(f"ops_attempted {attempted}  ops_failed {failed}")
    if out is not None:
        out.write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=catalog.WORKLOADS,
                        help="run this one workload and print one JSON result line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS,
                        help="with --workload: keep starting timed reps this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 prints the per-layer metrics")
    parser.add_argument("--out", type=Path, help="full set: write the JSON result here")
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json from e2e_catalog.py and exit")
    args = parser.parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.workload:
        return run_contract(args.workload, args.seed, args.seconds, bool(args.trace))
    return run_full(args.seed, args.out)


if __name__ == "__main__":
    sys.exit(main())
