#!/usr/bin/env python3
"""Alternating parent/change pairs of the ``e2e`` benchmark, with a verdict.

    python tools/ab_pairs.py --base REV --workload W [--workload ...]
                             [--head REV] [--pairs 10] [--seed0 N]

exports ``--base`` and ``--head`` with ``git archive`` into two temporary
non-git directories, runs the benchmark contract form declared in
``BENCHMARK.json`` (``command --workload W --seed S --seconds
run_seconds --trace 0``) once in each tree per pair — seeds ``seed0``,
``seed0 + 1``, ..., alternating which tree goes first — and prints, per
workload, one markdown table of every pair, one of medians, quartiles
and wins, and the ``choosing-metrics`` section 8 verdict of each
end-to-end metric:

``gain``
    at least ten pairs were run, the change wins at least nine tenths of
    them (ties count for neither side) **and** the medians differ by
    more than the distance between the parent's own quartiles (with
    fewer pairs the same evidence reads ``unresolved``);
``regressed``
    the change's median is worse than the parent's by more than the
    metric's ``BENCHMARK.json`` bound, or the change failed a larger
    share of operations;
``unresolved``
    neither, but the parent's quartiles lie further apart than the bound
    and not every run of the change beats every run of the parent;
``ok``
    none of the above.

Without ``--head`` the change is the working tree as ``git stash
create`` sees it: tracked and staged files, uncommitted edits included
(run ``git add`` on new files first).  Names, directions and bounds come
from ``BENCHMARK.json``; nothing is imported from ``benchmarks/e2e/``.
Use seeds no earlier run of the same claim has used.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: pairs to run, and the share of them the change must win, before a
#: gain may be claimed
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, quartiles, wins and the relative median gap of one metric.

    ``parent[i]`` and ``change[i]`` are the two runs of pair ``i``.
    ``gap`` is positive when the change's median is the better one.
    """
    sign = -1.0 if better == "lower" else 1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    return {
        "pairs": len(parent),
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "losses": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "gap": sign * (c_med - p_med),
        "parent_iqr": p_q3 - p_q1,
        "dominates": min(sign * c for c in change) > max(sign * p for p in parent),
    }


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """``gain`` / ``regressed`` / ``unresolved`` / ``ok`` for one metric."""
    s = summarize(parent, change, better)
    scale = abs(s["parent"][1])
    if s["wins"] >= WIN_SHARE * s["pairs"] and s["gap"] > s["parent_iqr"]:
        return "gain" if s["pairs"] >= MIN_PAIRS else "unresolved"
    if -s["gap"] > bound * scale:
        return "regressed"
    if s["parent_iqr"] > bound * scale and not s["dominates"]:
        return "unresolved"
    return "ok"


# -- running the benchmark --------------------------------------------------------

def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def export(rev: str, into: Path) -> None:
    """``git archive REV`` unpacked into ``into`` (no ``.git`` there)."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(into, filter="data")


def working_tree_rev() -> str:
    """A commit of the tracked and staged state, or HEAD when clean."""
    return git("stash", "create").decode().strip() or "HEAD"


def run_once(tree: Path, manifest: dict, workload: str, seed: int) -> dict:
    """One contract-form run in ``tree``; its last stdout line as a dict."""
    cmd = [sys.executable, *manifest["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(manifest["run_seconds"]),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(cmd)} in {tree} printed no result:\n"
                           f"{done.stdout}\n{done.stderr}")
    return json.loads(lines[-1])


def run_pairs(trees: dict[str, Path], manifest: dict, workload: str,
              pairs: int, seed0: int) -> list[dict]:
    """``pairs`` alternating pairs; each ``{"seed", "first", "parent", "change"}``."""
    out = []
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed0 + i, "first": order[0]}
        for side in order:
            pair[side] = run_once(trees[side], manifest, workload, seed0 + i)
            print(f"  {workload} seed {pair['seed']} {side}: "
                  + " ".join(f"{n}={m['value']:.6g}"
                             for n, m in pair[side]["metrics"].items()),
                  file=sys.stderr)
        out.append(pair)
    return out


# -- the report -------------------------------------------------------------------

def _failed_share(runs: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 1.0


def judge(pairs: list[dict], metrics: list[dict]) -> dict[str, tuple[dict, str]]:
    """``{metric: (summary, verdict)}`` over the runs of one workload."""
    shares = {side: _failed_share([p[side] for p in pairs])
              for side in ("parent", "change")}
    out = {}
    for m in metrics:
        parent = [p["parent"]["metrics"][m["name"]]["value"] for p in pairs]
        change = [p["change"]["metrics"][m["name"]]["value"] for p in pairs]
        # A gain does not count when more operations fail than at the parent.
        word = ("regressed" if shares["change"] > shares["parent"]
                else verdict(parent, change, m["better"], m["bound"]))
        out[m["name"]] = (summarize(parent, change, m["better"]), word)
    return out


def report(workload: str, pairs: list[dict], metrics: list[dict],
           judged: dict[str, tuple[dict, str]]) -> str:
    """The markdown section of one workload (``judged`` from :func:`judge`)."""
    names = [m["name"] for m in metrics]
    lines = [f"### `{workload}`: {len(pairs)} alternating pairs", "",
             "parent / change per pair:", "",
             "| seed | first | " + " | ".join(f"`{n}`" for n in names) + " |",
             "|---:|---|" + "---:|" * len(names)]
    for pair in pairs:
        cells = [f"{pair['parent']['metrics'][n]['value']:.6g} / "
                 f"{pair['change']['metrics'][n]['value']:.6g}" for n in names]
        lines.append(f"| {pair['seed']} | {pair['first']} | " + " | ".join(cells) + " |")
    lines += ["", "| metric | unit | better | parent median [q1, q3] | "
              "change median [q1, q3] | median change | wins | bound | verdict |",
              "|---|---|---|---:|---:|---:|---:|---:|---|"]
    for m in metrics:
        s, word = judged[m["name"]]
        (p_q1, p_med, p_q3), (c_q1, c_med, c_q3) = s["parent"], s["change"]
        moved = (c_med - p_med) / abs(p_med) if p_med else 0.0
        lines.append(
            f"| `{m['name']}` | {m['unit']} | {m['better']} | "
            f"{p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}] | "
            f"{c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}] | {moved:+.1%} | "
            f"{s['wins']}/{s['pairs']} | {m['bound']:.0%} | **{word}** |")
    lines += ["", "failed operations: "
              + ", ".join(f"{side} {_failed_share([p[side] for p in pairs]):.1%}"
                          for side in ("parent", "change")), ""]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="the parent revision")
    parser.add_argument("--head", help="the change (default: the working tree)")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, required=True,
                        help="seed of the first pair; pair i runs seed0 + i")
    args = parser.parse_args(argv)

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in manifest["workloads"]]
    unknown = [w for w in args.workload if w not in known]
    if unknown or args.pairs < 1:
        parser.error(f"unknown workload(s) {unknown}; BENCHMARK.json has {known}"
                     if unknown else "--pairs must be at least 1")
    revs = {"parent": args.base, "change": args.head or working_tree_rev()}
    failed = False
    with tempfile.TemporaryDirectory(prefix="ab-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in revs}
        for side, rev in revs.items():
            trees[side].mkdir()
            export(rev, trees[side])
        print(f"## parent `{args.base}` vs change "
              f"`{args.head or 'working tree'}`\n")
        for workload in args.workload:
            pairs = run_pairs(trees, manifest, workload, args.pairs, args.seed0)
            judged = judge(pairs, manifest["end_to_end"])
            print(report(workload, pairs, manifest["end_to_end"], judged), flush=True)
            failed |= any(word == "regressed" for _, word in judged.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
