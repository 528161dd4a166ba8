"""One measuring process: build one workload's world, warm it up, run
class rounds round-robin until the time budget is spent, print one JSON
object.  ``run.py`` starts this in a fresh interpreter (``PYTHONHASHSEED=0``)
several times per run and reports the median over those processes, because
the speed of one process varies by a few percent whatever it executes.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()           # set-up time counts the imports below

import argparse                      # noqa: E402
import gc                            # noqa: E402
import json                          # noqa: E402
import os                            # noqa: E402
import sys                           # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
# import this directory as the ``e2e`` package (trace.py must not shadow the
# standard library's ``trace``) and HAC from the checkout's ``src``
sys.path[0] = os.path.dirname(HERE)
sys.path.insert(1, os.path.join(ROOT, "src"))

from e2e import stats, trace         # noqa: E402
from e2e.workloads import CLASSES, WORKLOADS   # noqa: E402

pc = time.perf_counter

#: rounds every run completes whatever the clock says; count metrics are
#: read over exactly these, so they repeat bit for bit (rules 2 and 5)
MIN_ROUNDS = 5
#: share of a class round's sample counts the untimed warm-up round runs
WARM_SCALE = 0.25

#: end-to-end timing metrics: name -> (sample set, per-round statistic,
#: factor to the reported unit)
TIMINGS = {
    "path_op_us": ("path", stats.mean, 1e6),
    "write_op_us": ("write", stats.mean, 1e6),
    "drain_per_doc_us": ("drain", stats.mean, 1e6),
    "query_p50_ms": ("query", stats.p50, 1e3),
    "query_mean_ms": ("query", stats.mean, 1e3),
    "query_snap_p50_ms": ("snap", stats.p50, 1e3),
    "fresh_p50_ms": ("fresh", stats.p50, 1e3),
    "smkdir_p50_ms": ("smkdir", stats.p50, 1e3),
    "dirmove_p50_ms": ("dirmove", stats.p50, 1e3),
    "restore_p50_ms": ("restore", stats.p50, 1e3),
}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counter_ratios(delta) -> dict:
    """The exact per-layer ratios, from counter deltas over the counted
    window.  A cluster keeps its engine counters under ``cluster.*``."""
    def c(*names):
        return sum(delta.get(n, 0.0) for n in names)

    shard_calls = sum(v for k, v in delta.items()
                      if k.startswith("rpc.shard.") and k.endswith(".calls"))
    searches = c("engine.searches", "cluster.searches")
    drains = c("sched.drains")
    cascades = c("consistency.cascades")
    intents = c("journal.begins")
    return {
        "vfs.pathmap.hit_ratio": ratio(
            c("pathmap.hit"), c("pathmap.hit", "pathmap.miss")),
        "vfs.walker.steps_per_cascade": ratio(c("vfs.walk_steps"), cascades),
        "core.consistency.reevals_per_cascade": ratio(
            c("consistency.reevaluations"), cascades),
        "core.scheduler.coalesce_ratio": ratio(
            c("sched.coalesced"), c("sched.events")),
        "core.scheduler.docs_per_drain": ratio(
            c("sched.drained_docs"), drains),
        "core.journal.wal_bytes_per_mutation": ratio(
            c("journal.wal_bytes"), intents),
        "vfs.blockdev.write_ops_per_mutation": ratio(
            c("blockdev.write_ops"), intents),
        "cba.engine.tokenisations_per_drained_doc": ratio(
            c("engine.tokenisations"), c("sched.drained_docs")),
        "cba.engine.cache_hit_ratio": ratio(c("engine.cache_hits"), searches),
        "cba.engine.postings_answer_ratio": ratio(
            c("engine.postings_answers"), searches),
        "cba.glimpse.blocks_nominated_per_lookup": ratio(
            c("glimpse.blocks_nominated"), c("glimpse.block_lookups")),
        "cba.cas.probes_per_query": ratio(c("cas.probes"), searches),
        "cba.cas.splits": c("cas.splits"),
        "cba.segments.seals": c("segments.seals"),
        "cba.segments.rows_per_seal": ratio(
            c("segments.sealed_rows"), c("segments.seals")),
        "cba.snapshot.publishes_per_drain": ratio(
            c("engine.publishes", "cluster.publishes"), drains),
        "cluster.shard.calls_per_query": ratio(
            shard_calls, c("cluster.searches")),
    }


def measure(workload, seconds: float) -> dict:
    """Run class rounds round-robin until *seconds* are spent (at least
    MIN_ROUNDS of them) and reduce the samples to metrics."""
    rounds = {}                      # sample set -> list of per-round lists
    timed = {cls: 0.0 for cls in CLASSES}
    attempted = 0
    window = {"user_bytes": 0.0, "dev_bytes": 0.0, "timed_s": 0.0}
    counters = workload.hac.counters
    before = counters.snapshot()
    delta = {}
    tracer = workload.tracer
    spans = {cls: [] for cls in CLASSES}     # class -> span index ranges
    started = pc()
    done = 0

    def another_round_fits() -> bool:
        elapsed = pc() - started
        return elapsed + elapsed / done <= seconds

    while done < MIN_ROUNDS or another_round_fits():
        done += 1
        for cls in CLASSES:
            gc.collect()
            first_span = len(tracer) if tracer is not None else 0
            result = workload.run_class(cls, done)
            if tracer is not None:
                spans[cls].append((first_span, len(tracer)))
            attempted += result.attempted
            timed[cls] += result.timed_s
            for name, samples in result.samples.items():
                rounds.setdefault(name, []).append(samples)
            if done <= MIN_ROUNDS:
                window["timed_s"] += result.timed_s
                for key, value in result.extra.items():
                    window[key] += value
        if done == MIN_ROUNDS:
            delta = counters.diff(before)
    empty = [name for name in ["mix"] + [t[0] for t in TIMINGS.values()]
             if not rounds.get(name)]
    if empty:
        raise SystemExit(f"no samples for {empty}: {workload.failures}")

    e2e = {"ops_per_s": 1.0 / stats.median_of_rounds(rounds["mix"],
                                                     stats.mean)}
    shape = {}
    for metric, (name, stat, factor) in TIMINGS.items():
        e2e[metric] = factor * stats.median_of_rounds(rounds[name], stat)
        samples = stats.pooled(rounds[name])
        shape[metric] = {"samples": len(samples),
                         "max": factor * max(samples)}
    e2e["index_bytes_per_corpus_byte"] = workload.index_ratio
    e2e["write_amp"] = ratio(window["dev_bytes"], window["user_bytes"])
    tails = {}
    for metric, name in (("query_p99_ms.info", "query"),
                         ("fresh_p99_ms.info", "fresh")):
        samples = stats.pooled(rounds[name])
        share, value = stats.tail(samples)
        tails[metric] = {"value": 1e3 * value, "share": share,
                         "samples": len(samples)}
    return {"e2e": e2e, "shape": shape, "tails": tails, "rounds": done,
            "attempted": attempted, "timed_s": timed,
            "timed_total_s": sum(timed.values()),
            "window_timed_s": window["timed_s"], "span_ranges": spans,
            "ratios": counter_ratios(delta)}


def layer_metrics(tracer, timed_total: float, ranges: dict) -> dict:
    """The per-layer metrics over the whole traced run, and each layer's
    share of every op class on its own (a class's facade wall is what its
    end-to-end metric is made of)."""
    inside, outside = trace.calibrate()
    own = trace.self_times(tracer, inside, outside)
    table = trace.breakdown(tracer, own=own)
    total = sum(table.self_s.values())
    out = {}
    for layer in trace.LAYERS:
        out[f"{layer}.self_share"] = ratio(table.self_s[layer], total)
        out[f"{layer}.calls_per_op"] = ratio(table.calls[layer], table.roots)
    out["trace.unattributed_share"] = max(
        0.0, 1.0 - ratio(table.root_wall_s, timed_total))
    by_class = {}
    for cls, spans in ranges.items():
        part = trace.breakdown(tracer, ranges=spans, own=own).self_s
        whole = sum(part.values())
        by_class[cls] = {layer: ratio(value, whole)
                         for layer, value in part.items() if value}
    return {"metrics": out, "by_class": by_class, "spans": len(tracer),
            "roots": table.roots,
            "wrapper_cost_us": [1e6 * inside, 1e6 * outside]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--probes", type=int, default=0)
    parser.add_argument("--out", default="")
    args = parser.parse_args(argv)

    tracer = patches = None
    missing = []
    if args.traced:
        tracer = trace.Tracer()
        patches, missing = trace.install(tracer)
    workload = WORKLOADS[args.workload](args.seed)
    workload.build()
    for cls in CLASSES:
        workload.run_class(cls, 0, scale=WARM_SCALE)
    gc.collect()
    gc.freeze()
    setup_s = pc() - _T0

    workload.tracer = tracer         # spans are recorded under timers only
    report = measure(workload, args.seconds)
    report["e2e"]["setup_s"] = setup_s
    report.update(workload=args.workload, seed=args.seed,
                  traced=bool(args.traced), failed=workload.failed,
                  failures=workload.failures)
    if tracer is not None:
        trace.uninstall(patches)
        report["layers"] = layer_metrics(tracer, report["timed_total_s"],
                                         report.pop("span_ranges"))
        report["layers"]["missing"] = missing
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(
                args.out, f"spans-{args.workload}-{args.seed}.jsonl")
            report["layers"]["jsonl"] = path
            report["layers"]["jsonl_spans"] = trace.write_jsonl(tracer, path)
    if args.probes:
        from e2e import probes
        report["probes"] = probes.run(workload.backend)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
