"""Compare two result files of ``run.py --out``: does B regress on A?

    python benchmarks/e2e/compare.py A.json B.json

For every workload and end-to-end metric it prints both medians, the
ratio B/A, the bound and a verdict:

``ok``          B's median is not worse than A's by more than the bound
                (or every run of B reads better than every run of A);
``regressed``   B's median is worse by more than the bound, and either
                the runs of each side agree to within the bound or every
                run of B reads worse than every run of A;
``unresolved``  the run-to-run spread of either side is wider than the
                bound, so neither of the above can be said.

Two exceptions to the catalog's relative bounds.  ``setup_s`` medians
less than 0.05 s apart are ``ok``: most builds take milliseconds, where a
relative bound would judge timer noise.  And when A and B ran the same
seed and scale, the metrics that are pure functions of the simulation
(``wire_mb_per_update``, ``sim_steps_per_hour``) get a bound of 0: any
worsening is ``regressed``.  Their looser catalog bounds are only for
comparing runs of different seeds.

Exit status is non-zero on any ``regressed`` or when B failed a larger
share of its operations than A.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import e2e_catalog as catalog

__all__ = ["bound_of", "verdict", "compare", "main"]


def _spread(values: list[float], median: float) -> float:
    return (max(values) - min(values)) / abs(median) if median else 0.0


def bound_of(name: str, same_inputs: bool) -> float:
    """The bound ``name`` is judged with: 0 for a deterministic metric of
    two runs of the same seed and scale, the catalog's otherwise."""
    if same_inputs and name in catalog.DETERMINISTIC:
        return 0.0
    return catalog.BOUNDS[name]


def verdict(name: str, a: dict, b: dict, bound: float) -> tuple[str, float]:
    """``(verdict, worse)``: ``worse`` is the share of A's median by which
    B's median is worse (negative when it is better)."""
    sign = 1.0 if catalog.BETTER[name] == "lower" else -1.0
    worse = sign * (b["median"] - a["median"]) / abs(a["median"])
    if name == "setup_s" and abs(b["median"] - a["median"]) < catalog.SETUP_FLOOR_S:
        return "ok", worse
    a_runs = [sign * v for v in a["values"]]
    b_runs = [sign * v for v in b["values"]]
    if max(b_runs) <= min(a_runs):
        return "ok", worse
    spread = max(_spread(a["values"], a["median"]), _spread(b["values"], b["median"]))
    if worse > bound:
        separated = min(b_runs) > max(a_runs)
        return ("regressed" if spread <= bound or separated else "unresolved"), worse
    return ("ok" if spread <= bound else "unresolved"), worse


def compare(a: dict, b: dict) -> int:
    """Print the table; return the exit status."""
    bad = 0
    ha, hb = a["header"], b["header"]
    same_inputs = (ha["seed"], ha["scale"]) == (hb["seed"], hb["scale"])
    print(f"A: {ha['git_sha'][:12]} seed {ha['seed']} scale {ha['scale']}   "
          f"B: {hb['git_sha'][:12]} seed {hb['seed']} scale {hb['scale']}")
    print(f"{'workload':22s} {'metric':20s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>7s} {'bound':>6s}  verdict")
    for workload in catalog.WORKLOADS:
        wa, wb = a["workloads"].get(workload), b["workloads"].get(workload)
        if wa is None or wb is None:
            print(f"{workload:22s} missing from {'A' if wa is None else 'B'}")
            bad += 1
            continue
        for name in catalog.END_TO_END_NAMES:
            ma, mb = wa["end_to_end"].get(name), wb["end_to_end"].get(name)
            if ma is None or mb is None:
                print(f"{workload:22s} {name:20s} no successful rep")
                bad += 1
                continue
            bound = bound_of(name, same_inputs)
            what, _ = verdict(name, ma, mb, bound)
            bad += what == "regressed"
            print(f"{workload:22s} {name:20s} {ma['median']:12.5g} {mb['median']:12.5g} "
                  f"{mb['median'] / ma['median']:7.3f} {bound:6.0%}  {what}")
        same = wa["sim_digest"] == wb["sim_digest"]
        print(f"{workload:22s} sim_digest {'identical' if same else 'digest_changed'}")
    share_a = a["ops_failed"] / a["ops_attempted"]
    share_b = b["ops_failed"] / b["ops_attempted"]
    print(f"failed share: A {a['ops_failed']}/{a['ops_attempted']}  "
          f"B {b['ops_failed']}/{b['ops_attempted']}")
    if share_b > share_a:
        print("B fails a larger share of its operations than A")
        bad += 1
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    return compare(a, b)


if __name__ == "__main__":
    sys.exit(main())
