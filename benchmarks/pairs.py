#!/usr/bin/env python3
"""Alternating parent/change pairs of the end-to-end benchmark.

    python3 benchmarks/pairs.py --parent REV [--pairs N] [--seed S]
                                [--seconds S] [--workload W ...]
                                [--record --pr LABEL]

The change is the working tree this script lives in; the parent is the
commit REV, exported with ``git archive`` into a temporary directory
(``TMPDIR`` chooses where) that is removed afterwards.  For each workload
the script runs N pairs of ``benchmarks/e2e/run.py --workload W --seed S``,
one run per side, alternating which side runs first, and prints per
end-to-end metric the median [q1, q3] of each side, the change's median
against the parent's (Δ, positive = worse) and how many pairs the change
won (ties count for neither side).  A run that exits without its JSON line
stops the script.

``--record`` appends the result as one JSON line to
``BENCH_trajectory.jsonl`` at the repository root, so a later change reads
a regression as a diff: ``pr``, ``parent`` (the full commit id measured),
``date``, ``seed``, ``pairs``, ``seconds`` and, per workload, both sides'
``[q1, median, q3]`` per metric, the pairs the change won, and the
operations each side attempted and failed.

Needs only the standard library, git and the statistics module of
``benchmarks/e2e``.
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))

from e2e.stats import relative_worsening  # noqa: E402

RUN = os.path.join("benchmarks", "e2e", "run.py")
TRAJECTORY = os.path.join(ROOT, "BENCH_trajectory.jsonl")
SIDES = ("parent", "change")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True).stdout


def export(rev: str, into: str) -> str:
    """Write the tree of *rev* into *into*; returns its full commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as tar:
        tar.extractall(into, filter="data")
    return commit


def run(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py`` of *workload* in the checkout at *root*: its JSON."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, RUN), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{root}: {workload} printed no result "
                         f"(exit {proc.returncode}): {proc.stderr.strip()}")


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]``; a single value is all three."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def summarise(runs: Dict[str, List[dict]], metrics: Dict[str, str]) -> dict:
    """One workload's pairs as the trajectory records them.  *runs* maps
    each side to its run results, pair by pair; *metrics* maps each
    end-to-end metric to its better direction (``lower``/``higher``)."""
    out = {side: {} for side in SIDES}
    out["wins"] = {}
    for name, better in metrics.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in SIDES}
        for side in SIDES:
            out[side][name] = quartiles(values[side])
        sign = 1 if better == "lower" else -1
        out["wins"][name] = sum(sign * (c - p) < 0 for p, c in
                                zip(values["parent"], values["change"]))
    for side in SIDES:
        out[f"{side}_ops"] = [sum(r["attempted"] for r in runs[side]),
                              sum(r["failed"] for r in runs[side])]
    return out


def show(workload: str, summary: dict, metrics: Dict[str, str],
         pairs: int) -> None:
    print(f"\n{workload}  ({pairs} pairs; ops attempted/failed: parent "
          f"{summary['parent_ops']}, change {summary['change_ops']})")
    print(f"  {'metric':28} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'Δ worse':>8} {'won':>5}")
    for name, better in metrics.items():
        cells = []
        for side in SIDES:
            q1, med, q3 = summary[side][name]
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
        worse = relative_worsening(summary["parent"][name][1],
                                   summary["change"][name][1], better)
        print(f"  {name:28} {cells[0]:>32} {cells[1]:>32} "
              f"{worse:+8.1%} {summary['wins'][name]:>2}/{pairs}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--parent", required=True,
                        help="the commit the change is measured against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True,
                        help="one seed for every run; pick one unused "
                        "while developing the change")
    parser.add_argument("--seconds", type=float,
                        help="measuring time of one run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--workload", action="append",
                        help="repeat to pick several (default: all)")
    parser.add_argument("--record", action="store_true",
                        help=f"append the result to {TRAJECTORY}")
    parser.add_argument("--pr", help="the change's label in the record")
    args = parser.parse_args(argv)
    if args.record and not args.pr:
        parser.error("--record needs --pr")

    spec = load_spec()
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or float(spec["run_seconds"])
    record = {"pr": args.pr, "parent": None,
              "date": datetime.date.today().isoformat(), "seed": args.seed,
              "pairs": args.pairs, "seconds": seconds, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="pairs-parent-") as parent_root:
        record["parent"] = export(args.parent, parent_root)
        roots = {"parent": parent_root, "change": ROOT}
        for workload in workloads:
            runs = {side: [] for side in SIDES}
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    runs[side].append(run(roots[side], workload, args.seed,
                                          seconds))
                print(f"{workload}: pair {i + 1}/{args.pairs} "
                      f"({order[0]} first)", file=sys.stderr, flush=True)
            summary = record["workloads"][workload] = summarise(runs,
                                                               metrics)
            show(workload, summary, metrics, args.pairs)
    if args.record:
        with open(TRAJECTORY, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
