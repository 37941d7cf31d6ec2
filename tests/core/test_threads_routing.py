"""Unit tests for thread collections, mapping strings and routing."""

import pytest

from repro.core import (
    ConstantRoute,
    DpsThread,
    LoadBalancedRoute,
    RoundRobinRoute,
    RoutingContext,
    ThreadCollection,
    parse_mapping,
    route_fn,
)
from repro.serial import SimpleToken


class PosToken(SimpleToken):
    def __init__(self, pos=0):
        self.pos = pos


# ---------------------------------------------------------------------------
# mapping strings
# ---------------------------------------------------------------------------

def test_parse_mapping_paper_example():
    assert parse_mapping("nodeA*2 nodeB") == ["nodeA", "nodeA", "nodeB"]


def test_parse_mapping_single():
    assert parse_mapping("n1") == ["n1"]


def test_parse_mapping_whitespace():
    assert parse_mapping("  a   b*3 ") == ["a", "b", "b", "b"]


@pytest.mark.parametrize("bad", ["", "a*0", "a**2", "a*x", "*3"])
def test_parse_mapping_rejects(bad):
    with pytest.raises(ValueError):
        parse_mapping(bad)


# ---------------------------------------------------------------------------
# thread collections
# ---------------------------------------------------------------------------

class ComputeThread(DpsThread):
    def __init__(self):
        self.member = 0


def test_collection_map_and_properties():
    tc = ThreadCollection(ComputeThread, "proc").map("nodeA*2 nodeB")
    assert tc.thread_count == 3
    assert tc.placements == ["nodeA", "nodeA", "nodeB"]
    assert tc.node_of(2) == "nodeB"


def test_collection_map_nodes():
    tc = ThreadCollection(ComputeThread).map_nodes(["x", "y"])
    assert tc.thread_count == 2
    assert tc.name == "ComputeThread"


def test_collection_unmapped_raises():
    tc = ThreadCollection(ComputeThread)
    assert not tc.is_mapped
    with pytest.raises(RuntimeError, match="not mapped"):
        tc.thread_count


def test_collection_lookups_do_not_copy_placements():
    """thread_count and node_of read the placements in place (routing
    asks several times per hop); placements still hands out a copy, and
    every accessor of an unmapped collection raises the same error."""

    class CountingList(list):
        copies = 0

        def __iter__(self):
            CountingList.copies += 1
            return super().__iter__()

    tc = ThreadCollection(ComputeThread, "proc").map("a*2 b")
    tc._placements = CountingList(tc._placements)
    assert tc.thread_count == 3 and tc.node_of(2) == "b"
    assert CountingList.copies == 0
    copy = tc.placements
    assert CountingList.copies == 1
    copy.append("c")
    assert tc.thread_count == 3
    unmapped = ThreadCollection(ComputeThread, "idle")
    for probe in (lambda: unmapped.placements,
                  lambda: unmapped.thread_count,
                  lambda: unmapped.node_of(0)):
        with pytest.raises(RuntimeError,
                           match="thread collection 'idle' is not mapped"):
            probe()


def test_collection_make_thread_sets_runtime_fields():
    tc = ThreadCollection(ComputeThread, "proc").map("a b")
    t = tc.make_thread(1)
    assert isinstance(t, ComputeThread)
    assert t.index == 1
    assert t.node_name == "b"
    assert t.collection_name == "proc"
    assert t.member == 0


def test_collection_node_of_range():
    tc = ThreadCollection(ComputeThread).map("a")
    with pytest.raises(IndexError):
        tc.node_of(5)


def test_collection_requires_thread_subclass():
    with pytest.raises(TypeError):
        ThreadCollection(int)


def test_collection_remap_is_dynamic():
    tc = ThreadCollection(ComputeThread).map("a")
    assert tc.thread_count == 1
    tc.map("a*4 b*4")  # runtime reshaping, no rebuild needed
    assert tc.thread_count == 8


# ---------------------------------------------------------------------------
# routes
# ---------------------------------------------------------------------------

def make_ctx(n, outstanding=None):
    tc = ThreadCollection(DpsThread).map_nodes([f"n{i}" for i in range(n)])
    return RoutingContext(tc, outstanding)


def test_constant_route():
    r = ConstantRoute(2).bind(make_ctx(4))
    assert r(PosToken()) == 2


def test_round_robin_route_cycles():
    r = RoundRobinRoute().bind(make_ctx(3))
    got = [r(PosToken()) for _ in range(7)]
    assert got == [0, 1, 2, 0, 1, 2, 0]


def test_route_fn_macro_paper_example():
    # ROUTE(RoundRobinRoute, ComputeThread, CharToken, pos % threadCount())
    ModRoute = route_fn("ModRoute", lambda tok, n: tok.pos % n)
    r = ModRoute().bind(make_ctx(4))
    assert r(PosToken(5)) == 1
    assert r(PosToken(8)) == 0


def test_route_out_of_range_rejected():
    Bad = route_fn("Bad", lambda tok, n: n)  # one past the end
    r = Bad().bind(make_ctx(2))
    with pytest.raises(ValueError, match="must be an int"):
        r(PosToken())


def test_route_unbound_raises():
    with pytest.raises(RuntimeError, match="before bind"):
        ConstantRoute()(PosToken())


def test_load_balanced_route_prefers_least_loaded():
    loads = {0: 5, 1: 2, 2: 4}
    r = LoadBalancedRoute().bind(make_ctx(3, outstanding=lambda i: loads[i]))
    assert r(PosToken()) == 1
    loads[1] = 9
    assert r(PosToken()) == 2


def test_load_balanced_route_tie_breaks_low_index():
    r = LoadBalancedRoute().bind(make_ctx(3, outstanding=lambda i: 1))
    assert r(PosToken()) == 0


def test_load_balanced_without_feedback_defaults_to_zero():
    r = LoadBalancedRoute().bind(make_ctx(3))
    assert r(PosToken()) == 0


def test_queue_depth_route_prefers_shallowest_inbox():
    from repro.core import QueueDepthRoute
    depths = {0: 4, 1: 1, 2: 3}
    tc = ThreadCollection(DpsThread).map_nodes(["n0", "n1", "n2"])
    ctx = RoutingContext(tc, depth=lambda i: depths[i])
    r = QueueDepthRoute().bind(ctx)
    assert r(PosToken()) == 1
    depths[1] = 9
    assert r(PosToken()) == 2  # re-reads the feed on every emission


def test_queue_depth_route_tie_breaks_low_index():
    from repro.core import QueueDepthRoute
    r = QueueDepthRoute().bind(make_ctx(3))
    # no depth feed: outstanding stands in (all zero) -> deterministic 0
    assert r(PosToken()) == 0


def test_routing_context_depth_falls_back_to_outstanding():
    loads = {0: 2, 1: 0}
    ctx = make_ctx(2, outstanding=lambda i: loads[i])
    assert ctx.depth(0) == 2 and ctx.depth(1) == 0


def test_routing_policy_substitutes_only_load_spreading_routes():
    from repro.core import QueueDepthRoute, RoutingPolicy
    ModRoute = route_fn("ModRoute", lambda tok, n: tok.pos % n)
    adaptive = RoutingPolicy(kind="queue_depth")
    assert adaptive.route_class_for(RoundRobinRoute) is QueueDepthRoute
    assert adaptive.route_class_for(LoadBalancedRoute) is QueueDepthRoute
    # content-addressed routes encode merge affinity: never overridden
    assert adaptive.route_class_for(ConstantRoute) is ConstantRoute
    assert adaptive.route_class_for(ModRoute) is ModRoute
    default = RoutingPolicy()
    assert default.route_class_for(RoundRobinRoute) is RoundRobinRoute
