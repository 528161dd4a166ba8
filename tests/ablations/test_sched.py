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
"""

from repro.cba.queryparser import parse_query
from repro.core.hacfs import HacFileSystem
from repro.workloads.mailgen import MailGenerator

MESSAGES = 60
VERSIONS = 3          # drafts per message before it settles
REMOVE_EVERY = 7      # every Nth message is spam: written, then unlinked

QUERIES = ["fingerprint", "project", "fingerprint AND project",
           "budget OR deadline", "glimpse AND NOT lunch"]
COUNTED = ("journal.begins", "journal.preimages", "engine.tokenisations",
           "sched.drains", "sched.coalesced", "sched.events")


def run_world(mode):
    """A world in *mode*, and what the workload cost it: MESSAGES messages
    written in drafting bursts, the spam unlinked, then everything settled
    with an explicit drain (a no-op in eager mode)."""
    hac = HacFileSystem()
    hac.makedirs("/mail")
    hac.clock.tick()
    hac.ssync("/")
    hac.smkdir("/fp", "fingerprint")
    hac.watch("/mail")
    hac.maintenance.set_mode(mode)
    before = {name: hac.counters.get(name) for name in COUNTED}
    gen = MailGenerator()
    for index in range(MESSAGES):
        path = f"/mail/msg{index:04d}.txt"
        for version in range(VERSIONS):
            hac.clock.tick()
            text = gen.render(index) + f"draft revision {version}\n"
            hac.write_file(path, text.encode("utf-8"))
        if index % REMOVE_EVERY == 0:
            hac.clock.tick()
            hac.unlink(path)
    hac.maintenance.drain()
    cost = {name: hac.counters.get(name) - was
            for name, was in before.items()}
    cost["wal"] = cost["journal.begins"] + cost["journal.preimages"]
    return hac, cost


def answers(hac):
    return [hac.engine.search(parse_query(q)).to_bytes() for q in QUERIES]


def test_batched_maintenance_cost():
    eager, eager_cost = run_world("eager")
    batched, batched_cost = run_world("batched")

    # --- correctness: the two worlds are indistinguishable --------------
    assert answers(batched) == answers(eager)
    assert set(batched.links("/fp")) == set(eager.links("/fp"))
    assert batched.engine.all_docs().to_bytes() == \
        eager.engine.all_docs().to_bytes()

    # --- deterministic guards: the group commit pays for itself ---------
    assert eager_cost["wal"] / max(batched_cost["wal"], 1) >= 2.0, (
        f"group commit must at least halve journal record writes: "
        f"{eager_cost['wal']} eager vs {batched_cost['wal']} batched")
    tokenised = eager_cost["engine.tokenisations"], \
        batched_cost["engine.tokenisations"]
    assert tokenised[0] / max(tokenised[1], 1) >= 2.0, (
        f"coalescing must at least halve tokenisation passes: "
        f"{tokenised[0]} eager vs {tokenised[1]} batched")
    # the same event stream reached both schedulers, and batching showed
    assert batched_cost["sched.events"] == eager_cost["sched.events"]
    assert batched_cost["sched.coalesced"] > 0
    assert batched_cost["sched.drains"] < eager_cost["sched.drains"]
