"""Unit and property tests for the recovery primitives.

:class:`TokenJournal` + :class:`ReplayDedup` implement an at-least-once
wire (journal, resend, replay) squeezed back to exactly-once at the
consumer (dedup).  The hypothesis properties drive the pair through
random drop/replay interleavings and assert the two invariants the
engine relies on: every token is admitted exactly once per consumer,
and both structures stay bounded (journal by un-acked tokens, dedup by
its FIFO cap).
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.recovery import (
    FaultPolicy,
    ReplayDedup,
    TokenJournal,
    plan_rebalance,
    plan_remap,
)


def _env(group_id, index):
    return SimpleNamespace(
        frames=[SimpleNamespace(group_id=group_id, index=index)])


# ----------------------------------------------------------------------
# TokenJournal
# ----------------------------------------------------------------------

def test_journal_record_prune_roundtrip():
    j = TokenJournal()
    envs = [_env(7, i) for i in range(4)]
    for i, env in enumerate(envs):
        j.record(env, now=float(i))
    assert len(j) == 4
    j.prune(7, 1)
    j.prune(7, 3)
    j.prune(7, 99)  # unknown: no-op
    assert [e.frames[-1].index for e in j.replay_all(10.0)] == [0, 2]


def test_journal_on_drained_fires_once_on_the_last_prune():
    """The member barrier's wakeup: the prune that removes the last
    entry calls ``on_drained``, and nothing else does — not a prune
    that leaves entries, not a no-op prune of an empty journal."""
    drained = []
    j = TokenJournal(on_drained=lambda: drained.append(len(j)))
    for i in range(3):
        j.record(_env(7, i), now=0.0)
    j.prune(7, 0)
    j.prune(7, 99)  # unknown: no-op
    j.prune(7, 2)
    assert drained == []
    j.prune(7, 1)
    assert drained == [0]
    j.prune(7, 1)  # already pruned
    j.prune(8, 0)
    assert drained == [0]


def test_journal_stale_scan_stops_at_first_fresh_entry():
    j = TokenJournal()
    j.record(_env(1, 0), now=0.0)
    j.record(_env(1, 1), now=5.0)
    # Only the entry older than 2s at t=6 is stale; insertion order
    # guarantees the scan may stop at the first fresh one.
    stale = j.stale(older_than=2.0, now=6.0)
    assert [e.frames[-1].index for e in stale] == [0]
    # The scan refreshed its timestamp: not stale again right away.
    assert j.stale(older_than=2.0, now=6.5) == []


def test_journal_replay_refreshes_timestamps():
    j = TokenJournal()
    j.record(_env(1, 0), now=0.0)
    assert len(j.replay_all(now=100.0)) == 1
    assert j.stale(older_than=50.0, now=101.0) == []


# ----------------------------------------------------------------------
# ReplayDedup
# ----------------------------------------------------------------------

def test_dedup_admits_once_per_consumer():
    d = ReplayDedup()
    assert d.fresh("merge", 1, 0) is True
    assert d.fresh("merge", 1, 0) is False
    # The same frame at a *different* consumer is legitimate traffic
    # (a split consumes it, then a downstream merge's completion token
    # carries the popped-back frame to the next merge).
    assert d.fresh("split", 1, 0) is True
    assert d.fresh("merge", 1, 1) is True


def test_dedup_remembers_completed_groups():
    """Entries survive group completion: a stale resend arriving after
    the merge finished must not recreate the group."""
    d = ReplayDedup()
    for i in range(5):
        assert d.fresh("m", 3, i)
    for i in range(5):
        assert d.fresh("m", 3, i) is False


def test_dedup_fifo_cap_bounds_memory():
    d = ReplayDedup(cap=8)
    for i in range(100):
        assert d.fresh("m", i, 0)
    assert len(d) == 8


# ----------------------------------------------------------------------
# properties: random drop/replay interleavings
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.data())
def test_drop_replay_interleavings_deliver_exactly_once(data):
    """An adversarial wire drops deliveries at will; the replay loop
    re-sends whatever is still journaled.  However the interleaving
    plays out, the consumer admits every token exactly once, and the
    journal drains to empty once everything is acked."""
    n_tokens = data.draw(st.integers(1, 30), label="n_tokens")
    journal = TokenJournal()
    dedup = ReplayDedup()
    for i in range(n_tokens):
        journal.record(_env(1, i), now=0.0)

    admitted = []
    rounds = 0
    while len(journal) and rounds < 200:
        rounds += 1
        for env in journal.replay_all(now=float(rounds)):
            frame = env.frames[-1]
            if data.draw(st.booleans(), label=f"deliver r{rounds}"):
                continue  # dropped on the wire; stays journaled
            if dedup.fresh("merge", frame.group_id, frame.index):
                admitted.append(frame.index)
            # Merge consumption acks the opener, which prunes — even
            # when the delivery was a duplicate (acks re-send too).
            journal.prune(frame.group_id, frame.index)
        # Journal never exceeds the number of un-acked emissions.
        assert len(journal) <= n_tokens

    assert len(journal) == 0, "dropped tokens must stay journaled until acked"
    assert sorted(admitted) == list(range(n_tokens))
    assert len(admitted) == n_tokens, "a token was admitted twice"


@settings(max_examples=60, deadline=None)
@given(
    n_tokens=st.integers(1, 50),
    duplicates=st.integers(1, 5),
    cap=st.integers(4, 64),
)
def test_dedup_stays_bounded_under_duplicate_storms(n_tokens, duplicates,
                                                    cap):
    """Memory is capped no matter how many duplicates the wire
    produces, and within one journal-window of traffic (<= cap un-acked
    tokens) admission stays exactly-once."""
    dedup = ReplayDedup(cap=cap)
    admitted = 0
    for i in range(n_tokens):
        for _ in range(duplicates):
            if dedup.fresh("merge", 1, i):
                admitted += 1
        assert len(dedup) <= cap
    # Every index was admitted at least once; exactly-once holds for the
    # last `cap` indices (older entries may have been evicted — the
    # engine's prune-on-ack keeps real traffic inside that window).
    assert admitted >= n_tokens
    assert admitted <= n_tokens + max(0, n_tokens - cap)


# ----------------------------------------------------------------------
# FaultPolicy / remap planning
# ----------------------------------------------------------------------

def test_fault_policy_parse_kill_specs():
    assert FaultPolicy.parse_kill("node03@0.5") == ("node03", 0.5, None)
    assert FaultPolicy.parse_kill("node03@#5") == ("node03", None, 5)
    with pytest.raises(ValueError, match="kill spec"):
        FaultPolicy.parse_kill("node03")


def test_fault_policy_rng_deterministic_per_kernel():
    p = FaultPolicy(drop_rate=0.5, seed=7)
    a = [p.rng_for("node01").random() for _ in range(3)]
    b = [p.rng_for("node01").random() for _ in range(3)]
    c = [p.rng_for("node02").random() for _ in range(3)]
    assert a == b
    assert a != c


def test_plan_remap_round_robin_and_no_survivors():
    coll = SimpleNamespace(name="c", placements=["n1", "dead", "dead", "n2"])
    graph = SimpleNamespace(collections=lambda: [coll])
    mapping = plan_remap([graph], "dead", ["n2", "n1"])
    # dead slots filled round-robin from the *sorted* survivor list
    assert mapping == {"c": ["n1", "n1", "n2", "n2"]}
    with pytest.raises(ValueError, match="no kernels survive"):
        plan_remap([graph], "dead", [])


def _graph(*colls):
    specs = [SimpleNamespace(name=name, placements=list(places))
             for name, places in colls]
    return SimpleNamespace(collections=lambda: specs), specs


def test_plan_remap_survivor_order_is_irrelevant():
    """The plan depends only on the survivor *set*: the console and any
    future replanner must agree regardless of iteration order."""
    plans = []
    for survivors in (["n2", "n1", "n3"], ["n3", "n2", "n1"],
                      ["n1", "n3", "n2"]):
        graph, _ = _graph(("c", ["dead", "dead", "dead", "n1"]))
        plans.append(plan_remap([graph], "dead", survivors))
    assert plans[0] == plans[1] == plans[2]


def test_plan_rebalance_spreads_onto_joiner():
    graph, _ = _graph(("w", ["n1", "n1"]), ("main", ["n2"]))
    mapping, moved = plan_rebalance([graph], ["n1", "n2", "n3"],
                                    joined=["n3"])
    # one stacked worker goes to the joiner; the pinned main stays put
    assert mapping == {"w": ["n1", "n3"]}
    assert moved == 1


def test_plan_rebalance_evacuates_retiree():
    graph, _ = _graph(("w", ["n1", "n3"]), ("main", ["n3"]))
    mapping, moved = plan_rebalance([graph], ["n1", "n2"])
    assert mapping["w"][0] == "n1"      # in-place instance never moves
    assert mapping["w"][1] in ("n1", "n2")
    assert mapping["main"] != ["n3"]    # pinned, but its host is leaving
    assert moved == 2


def test_plan_rebalance_minimal_move_keeps_balanced_spread():
    graph, _ = _graph(("w", ["n1", "n2", "n3"]))
    mapping, moved = plan_rebalance([graph], ["n1", "n2", "n3", "n4"],
                                    joined=["n4"])
    # already balanced at one instance per node: nothing moves
    assert mapping == {} and moved == 0


def test_plan_rebalance_is_deterministic_under_member_order():
    plans = []
    for members in (["n3", "n1", "n2"], ["n1", "n2", "n3"],
                    ["n2", "n3", "n1"]):
        graph, _ = _graph(("w", ["n1", "n1", "n1", "n1"]), ("m", ["n2"]))
        plans.append(plan_rebalance([graph], members, joined=["n3"]))
    assert plans[0] == plans[1] == plans[2]


def test_plan_rebalance_prefers_shallow_queues():
    graph, _ = _graph(("solo", ["gone"]))
    mapping, moved = plan_rebalance([graph], ["n1", "n2"],
                                    depths={"n1": 9, "n2": 0})
    assert mapping == {"solo": ["n2"]}  # least-loaded member wins
    assert moved == 1
    # and with equal depths the sorted-name tiebreak decides
    graph, _ = _graph(("solo", ["gone"]))
    mapping, _ = plan_rebalance([graph], ["n2", "n1"])
    assert mapping == {"solo": ["n1"]}
