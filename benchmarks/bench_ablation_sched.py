"""Ablation K — batched maintenance vs eager per-write upkeep.

The maintenance scheduler coalesces watch-driven index updates per
document (last-write-wins) and applies each batch under a single
``sched_batch`` group-commit intent.  On a write-heavy mail workload —
the paper's "as soon as new mail comes in" example at drafting volume,
where most messages are rewritten several times before they settle —
eager mode pays one tokenisation pass and one journal intent per write,
while batched mode pays one tokenisation per *settled document* and one
intent per *batch*.

The cost model to verify, all on deterministic counters: batched mode
performs at least 2x fewer journal record writes (``journal.begins`` +
``journal.preimages``) and at least 2x fewer tokenisation passes
(``engine.tokenisations``) than eager mode for the identical event
sequence, while the final index state and every query answer stay
bit-identical (doc ids are reserved at enqueue time, so block placement
matches the eager world's exactly).

Wall times are report-only; every asserted guard reads counters.
"""

import pytest

from repro.bench.harness import BenchResult, report, time_call
from repro.cba.queryparser import parse_query
from repro.core.hacfs import HacFileSystem
from repro.workloads.mailgen import MailGenerator

VERSIONS = 3          # drafts per message before it settles
REMOVE_EVERY = 7      # every Nth message is spam: written, then unlinked

QUERIES = ["fingerprint", "project", "fingerprint AND project",
           "budget OR deadline", "glimpse AND NOT lunch"]


def build_world(mode):
    hac = HacFileSystem()
    hac.makedirs("/mail")
    hac.clock.tick()
    hac.ssync("/")
    hac.smkdir("/fp", "fingerprint")
    hac.watch("/mail")
    hac.maintenance.set_mode(mode)
    return hac


def run_workload(hac, count):
    """Write *count* messages in drafting bursts, unlink the spam, then
    settle everything with an explicit drain (a no-op in eager mode)."""
    gen = MailGenerator()
    for index in range(count):
        path = f"/mail/msg{index:04d}.txt"
        for version in range(VERSIONS):
            hac.clock.tick()
            text = gen.render(index) + f"draft revision {version}\n"
            hac.write_file(path, text.encode("utf-8"))
        if index % REMOVE_EVERY == 0:
            hac.clock.tick()
            hac.unlink(path)
    hac.maintenance.drain()


def wal_writes(counters):
    return counters.get("journal.begins") + counters.get("journal.preimages")


def snapshot(hac):
    return {
        "wal": wal_writes(hac.counters),
        "tokenisations": hac.counters.get("engine.tokenisations"),
        "drains": hac.counters.get("sched.drains"),
        "coalesced": hac.counters.get("sched.coalesced"),
        "events": hac.counters.get("sched.events"),
    }


def delta(before, after):
    return {name: after[name] - before[name] for name in before}


def answers(hac):
    return [hac.engine.search(parse_query(q)).to_bytes() for q in QUERIES]


@pytest.mark.benchmark(group="ablation-sched")
def test_batched_maintenance_cost(benchmark, record_report, scale):
    count = 60 * scale

    def run():
        eager = build_world("eager")
        base = snapshot(eager)
        eager_secs, _ = time_call(lambda: run_workload(eager, count))
        eager_cost = delta(base, snapshot(eager))

        batched = build_world("batched")
        base = snapshot(batched)
        batched_secs, _ = time_call(lambda: run_workload(batched, count))
        batched_cost = delta(base, snapshot(batched))
        return (eager, eager_secs, eager_cost,
                batched, batched_secs, batched_cost)

    (eager, eager_secs, eager_cost, batched, batched_secs,
     batched_cost) = benchmark.pedantic(run, rounds=1, iterations=1,
                                        warmup_rounds=1)

    # --- correctness: the two worlds are indistinguishable --------------
    assert answers(batched) == answers(eager)
    assert set(batched.links("/fp")) == set(eager.links("/fp"))
    assert batched.engine.all_docs().to_bytes() == \
        eager.engine.all_docs().to_bytes()

    # --- deterministic guards: the group commit pays for itself ---------
    wal_ratio = eager_cost["wal"] / max(batched_cost["wal"], 1)
    assert wal_ratio >= 2.0, (
        f"group commit must at least halve journal record writes: "
        f"{eager_cost['wal']} eager vs {batched_cost['wal']} batched")
    tok_ratio = eager_cost["tokenisations"] / \
        max(batched_cost["tokenisations"], 1)
    assert tok_ratio >= 2.0, (
        f"coalescing must at least halve tokenisation passes: "
        f"{eager_cost['tokenisations']} eager vs "
        f"{batched_cost['tokenisations']} batched")
    # the same event stream reached both schedulers, and batching showed
    assert batched_cost["events"] == eager_cost["events"]
    assert batched_cost["coalesced"] > 0
    assert batched_cost["drains"] < eager_cost["drains"]

    results = [
        BenchResult("messages", count),
        BenchResult("write events", eager_cost["events"]),
        BenchResult("eager workload s", eager_secs, unit="s"),
        BenchResult("batched workload s", batched_secs, unit="s"),
        BenchResult("eager wal record writes", eager_cost["wal"]),
        BenchResult("batched wal record writes", batched_cost["wal"]),
        BenchResult("wal write ratio (>= 2)", wal_ratio),
        BenchResult("eager tokenisations", eager_cost["tokenisations"]),
        BenchResult("batched tokenisations", batched_cost["tokenisations"]),
        BenchResult("tokenisation ratio (>= 2)", tok_ratio),
        BenchResult("eager drains", eager_cost["drains"]),
        BenchResult("batched drains", batched_cost["drains"]),
        BenchResult("batched events coalesced", batched_cost["coalesced"]),
    ]
    record_report(report("Ablation K: batched maintenance pipeline", results))
