#!/usr/bin/env python3
"""HAC's end-to-end benchmark: one command, four workloads, wall clock.

    python3 benchmarks/e2e/run.py                       every workload, untraced
    python3 benchmarks/e2e/run.py --trace 1             the per-layer run
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace T
    python3 benchmarks/e2e/run.py --selftest            unit tests + determinism
    python3 benchmarks/e2e/run.py --check-repeat N      the noise gate

One run of one workload is a closed loop with one client.  It starts
PROCESSES fresh interpreters one after another (``PYTHONHASHSEED=0``), each
of which builds the world from ``--seed``, warms it up and measures for its
share of ``--seconds``; every end-to-end metric is the median over those
processes, ``setup_s`` included.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end ones with ``--trace 0``, the per-layer ones with ``--trace 1``).
The exit code is non-zero when any operation failed or any answer differed
from the oracle.  Metric names, units, bounds and the workload list live in
``BENCHMARK.json`` at the root; README.md here explains each of them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[0] = os.path.dirname(HERE)      # the ``e2e`` package, see child.py

from e2e import stats                    # noqa: E402

DEFAULT_SEED = 1999
#: fresh interpreters per untraced run; a traced run starts two (one
#: untraced with the shape probes, one traced)
PROCESSES = 4
#: a child that has not finished by then is killed and the run fails
CHILD_TIMEOUT_S = 150


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child(workload: str, seed: int, seconds: float, *, traced: bool = False,
          probes: bool = False, out: str = "") -> dict:
    """Run one measuring process to its end and return what it printed."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:.3f}", "--traced", str(int(traced)),
           "--probes", str(int(probes)), "--out", out]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"{workload}: measuring process timed out")
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: measuring process exited "
                         f"{proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    reports = [child(workload, seed, seconds / PROCESSES)
               for _ in range(PROCESSES)]
    metrics = {name: statistics.median(r["e2e"][name] for r in reports)
               for name in reports[0]["e2e"]}
    return {"metrics": metrics, "reports": reports}


def run_traced(workload: str, seed: int, seconds: float, out: str) -> dict:
    plain = child(workload, seed, seconds / 3, probes=True)
    traced = child(workload, seed, seconds / 3, traced=True, out=out)
    metrics = dict(traced["layers"]["metrics"])
    metrics.update(traced["ratios"])
    metrics.update(plain["probes"])
    for name, tail in plain["tails"].items():
        metrics[name] = tail["value"]
    # both processes ran the same first rounds: same work under the timers
    metrics["trace.overhead_ratio"] = \
        traced["window_timed_s"] / plain["window_timed_s"]
    return {"metrics": metrics, "reports": [plain, traced]}


def run_once(spec: dict, workload: str, seed: int, seconds: float,
             trace: int, out: str) -> dict:
    """One run in the contract's shape, plus the raw child reports."""
    result = run_traced(workload, seed, seconds, out) if trace \
        else run_untraced(workload, seed, seconds)
    listed = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        raise SystemExit(f"{workload}: metrics not measured: {missing}")
    reports = result["reports"]
    failed = sum(r["failed"] for r in reports)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
        "reports": reports,
    }


def show(workload: str, result: dict) -> None:
    reports = result["reports"]
    print(f"== {workload}: {result['attempted']} operations attempted, "
          f"{result['failed']} failed, rounds "
          f"{[r['rounds'] for r in reports]}")
    for report in reports:
        for failure in report["failures"]:
            print(f"   FAILED {failure}")
    for name, metric in result["metrics"].items():
        print(f"   {name:44s} {metric['value']:>14.6g} {metric['unit']}")
    for name, tail in reports[0]["tails"].items():
        print(f"   ({name}, first process: p{100 * tail['share']:.0f} of "
              f"{tail['samples']} samples = {tail['value']:.4g} ms)")
    for report in reports:
        layers = report.get("layers")
        if layers:
            print(f"   ({layers['spans']} spans under {layers['roots']} "
                  f"facade calls; wrapper cost in/out "
                  f"{layers['wrapper_cost_us'][0]:.2f}/"
                  f"{layers['wrapper_cost_us'][1]:.2f} us; "
                  f"{layers.get('jsonl_spans', 0)} spans in "
                  f"{layers.get('jsonl', '-')})")
            if layers["missing"]:
                print(f"   (not found, so not traced: {layers['missing']})")
            print("   share of each op class's facade wall, top layers:")
            for cls, shares in layers["by_class"].items():
                top = sorted(shares.items(), key=lambda kv: -kv[1])[:5]
                print(f"     {cls:12s} " + "  ".join(
                    f"{layer} {share:.0%}" for layer, share in top))


# ----------------------------------------------------------------------
# --check-repeat: the noise gate
# ----------------------------------------------------------------------

def check_repeat(spec: dict, workloads, n: int, seed: int,
                 seconds: float) -> int:
    """Two interleaved sets of *n* runs (A B A B ...), each run with another
    seed, as the driver does.  Fails when a set's quartile spread or the
    worsening of the second median exceeds the metric's bound, or when a
    reported p50 exceeds the maximum of its own sample set."""
    bad = 0
    for workload in workloads:
        sets = ({}, {})
        for i in range(2 * n):
            result = run_once(spec, workload, seed + i // 2, seconds, 0, "")
            if not result["correct"]:
                print(f"{workload}: {result['failed']} operations failed")
                bad += 1
            for name, metric in result["metrics"].items():
                sets[i % 2].setdefault(name, []).append(metric["value"])
            for report in result["reports"]:
                for name, shape in report["shape"].items():
                    if "p50" in name and report["e2e"][name] > shape["max"]:
                        print(f"{workload}: {name} above its own maximum")
                        bad += 1
        print(f"== {workload}: two sets of {n} runs")
        print(f"   {'metric':30s} {'median A':>11s} {'median B':>11s} "
              f"{'spread A':>9s} {'spread B':>9s} {'B worse':>8s} "
              f"{'bound':>6s}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = sets[0][name], sets[1][name]
            med_a, med_b = statistics.median(a), statistics.median(b)
            spread_a = stats.quartile_spread(a) if n > 1 else 0.0
            spread_b = stats.quartile_spread(b) if n > 1 else 0.0
            worse = stats.relative_worsening(med_a, med_b, metric["better"])
            flag = ""
            if worse > bound or (name != "setup_s"
                                 and max(spread_a, spread_b) > bound):
                flag = "  <-- over the bound"
                bad += 1
            print(f"   {name:30s} {med_a:11.5g} {med_b:11.5g} "
                  f"{spread_a:9.2%} {spread_b:9.2%} {worse:8.2%} "
                  f"{bound:6.0%}{flag}")
    return 1 if bad else 0


# ----------------------------------------------------------------------
# --selftest
# ----------------------------------------------------------------------

#: metrics that are counts, not times: equal seeds must give equal values
EXACT = ("index_bytes_per_corpus_byte", "write_amp")


def selftest(seed: int) -> int:
    """Run the unit tests under ``tests/``, then one short workload twice
    and require every count metric to be bit-identical."""
    import importlib

    bad = 0
    sys.path.insert(1, os.path.join(ROOT, "src"))
    for filename in sorted(os.listdir(os.path.join(HERE, "tests"))):
        if not (filename.startswith("test_") and filename.endswith(".py")):
            continue
        module = importlib.import_module(f"e2e.tests.{filename[:-3]}")
        for name in sorted(vars(module)):
            if not name.startswith("test_"):
                continue
            try:
                getattr(module, name)()
                print(f"ok     {filename}::{name}")
            except Exception as exc:             # boundary: report and go on
                bad += 1
                print(f"FAILED {filename}::{name}: "
                      f"{type(exc).__name__}: {exc}")
    first, second = (child("repo_churn", seed, 1.0) for _ in range(2))
    for name in EXACT:
        same = first["e2e"][name] == second["e2e"][name]
        bad += not same
        print(f"{'ok    ' if same else 'FAILED'} repeat repo_churn {name}: "
              f"{first['e2e'][name]!r} {second['e2e'][name]!r}")
    for name in first["ratios"]:
        same = first["ratios"][name] == second["ratios"][name]
        bad += not same
        print(f"{'ok    ' if same else 'FAILED'} repeat repo_churn {name}: "
              f"{first['ratios'][name]!r} {second['ratios'][name]!r}")
    # attempted counts every round run; only MIN_ROUNDS of them are fixed
    per_round = [r["attempted"] / r["rounds"] for r in (first, second)]
    print(f"       attempted per round: {per_round}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time of one run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_out"),
                        help="where a traced run writes its spans (JSONL)")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--check-repeat", type=int, metavar="N", default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("benchmarks/e2e: no src/repro next to BENCHMARK.json — "
              "nothing to measure", file=sys.stderr)
        return 2
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; one of {known}")
    workloads = [args.workload] if args.workload else known
    seconds = args.seconds if args.seconds else float(spec["run_seconds"])

    if args.selftest:
        return selftest(args.seed)
    if args.check_repeat:
        return check_repeat(spec, workloads, args.check_repeat, args.seed,
                            seconds)
    status = 0
    started = time.perf_counter()
    for workload in workloads:
        result = run_once(spec, workload, args.seed, seconds, args.trace,
                          args.out)
        show(workload, result)
        if not result["correct"]:
            status = 1
    print(f"({time.perf_counter() - started:.1f} s)")
    if args.workload:
        del result["reports"]
        print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
