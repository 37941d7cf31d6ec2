"""Tests for inter-application split/merge — scatter calls (paper §6).

The paper's stated future work: "Inter-application split and merge
operations are the key to interoperable parallel program components.
They allow a server application having knowledge about the distribution
of data, to serve a request to access in parallel many data items by
performing a split operation.  The client application may then directly
process the data items in parallel and combine them into a useful
result by performing a merge operation."
"""

import pytest

from repro.cluster import paper_cluster
from repro.core import (
    ConstantRoute,
    DpsThread,
    Flowgraph,
    FlowgraphNode,
    GraphError,
    LeafOperation,
    MergeOperation,
    RoundRobinRoute,
    SplitOperation,
    ThreadCollection,
    route_fn,
)
from repro.runtime import ScheduleError, SimEngine
from repro.serial import SimpleToken


class SQuery(SimpleToken):
    def __init__(self, n=0):
        self.n = n


class SItem(SimpleToken):
    def __init__(self, value=0, shard=0):
        self.value = value
        self.shard = shard


class SAnswer(SimpleToken):
    def __init__(self, total=0, items=0):
        self.total = total
        self.items = items


class ServerThread(DpsThread):
    """Holds a shard of the server's distributed data."""

    def __init__(self):
        self.shard_data = None


class ClientThread(DpsThread):
    pass


# --- the server application: knows the data distribution -----------------

class ServerScatter(SplitOperation):
    """The server-side split: one request token per shard."""

    thread_type = ServerThread
    in_types = (SQuery,)
    out_types = (SItem,)

    n_shards = 3

    def execute(self, tok: SQuery):
        for shard in range(self.n_shards):
            self.post(SItem(shard, shard))


class ServerRead(LeafOperation):
    """Each shard owner attaches its data item."""

    thread_type = ServerThread
    in_types = (SItem,)
    out_types = (SItem,)

    def execute(self, tok: SItem):
        self.post(SItem(100 + tok.shard, tok.shard))


_ByShard = route_fn("SByShard", lambda tok, n: tok.shard % n)


def server_scatter_graph(server_threads, name, with_leaf=True):
    split = FlowgraphNode(ServerScatter, server_threads, ConstantRoute)
    if with_leaf:
        builder = split >> FlowgraphNode(ServerRead, server_threads, _ByShard)
    else:
        builder = split.as_builder()
    return Flowgraph(builder, name, scatter=True)


# --- the client application: processes and merges itself ------------------

class ClientScatterCall(SplitOperation):
    """The client split whose tokens come from the remote scatter."""

    thread_type = ClientThread
    in_types = (SQuery,)
    out_types = (SItem,)

    service = "server.scatter"

    def execute(self, tok: SQuery):
        count = yield self.call_scatter(self.service, tok)
        assert count >= 1


class ClientProcess(LeafOperation):
    thread_type = ClientThread
    in_types = (SItem,)
    out_types = (SItem,)

    def execute(self, tok: SItem):
        self.post(SItem(tok.value * 10, tok.shard))


class ClientMerge(MergeOperation):
    thread_type = ClientThread
    in_types = (SItem,)
    out_types = (SAnswer,)

    def execute(self, tok: SItem):
        total = items = 0
        while tok is not None:
            total += tok.value
            items += 1
            tok = yield self.next_token()
        yield self.post(SAnswer(total, items))


def build_world(with_leaf=True, service_name="server.scatter"):
    engine = SimEngine(paper_cluster(5))
    servers = ThreadCollection(ServerThread, f"srv-{service_name}").map(
        "node01 node02 node03"
    )
    scatter_graph = server_scatter_graph(servers, service_name, with_leaf)
    engine.register_graph(scatter_graph, app_name="server")

    clients = ThreadCollection(ClientThread, f"cli-{service_name}").map(
        "node04 node05"
    )
    call_cls = type("ClientScatterCall_" + service_name.replace(".", "_"),
                    (ClientScatterCall,), {"service": service_name})
    client_graph = Flowgraph(
        FlowgraphNode(call_cls, clients, ConstantRoute)
        >> FlowgraphNode(ClientProcess, clients, RoundRobinRoute)
        >> FlowgraphNode(ClientMerge, clients, ConstantRoute),
        f"client-{service_name}",
    )
    engine.register_graph(client_graph, app_name="client")
    return engine, client_graph


def test_scatter_graph_validation():
    servers = ThreadCollection(ServerThread, "val-srv").map("node01")
    # balanced graphs cannot be declared scatter
    class Closed(MergeOperation):
        thread_type = ServerThread
        in_types = (SItem,)
        out_types = (SAnswer,)

        def execute(self, tok):
            yield self.post(SAnswer())

    with pytest.raises(GraphError, match="exactly one open group"):
        Flowgraph(
            FlowgraphNode(ServerScatter, servers)
            >> FlowgraphNode(Closed, servers),
            "closed-scatter", scatter=True,
        )
    # scatter graph records which opener leaves the graph open
    g = server_scatter_graph(servers, "val.scatter")
    assert g.scatter
    assert g.scatter_opener == 0


def test_client_merges_server_side_split():
    engine, client_graph = build_world(service_name="sv1.scatter")
    result = engine.run(client_graph, SQuery(1), driver_node="node04")
    # server posted items 100,101,102; client processed x10 and merged
    assert result.token.items == 3
    assert result.token.total == 10 * (100 + 101 + 102)


def test_scatter_with_split_as_exit():
    engine, client_graph = build_world(with_leaf=False,
                                       service_name="sv2.scatter")
    result = engine.run(client_graph, SQuery(1), driver_node="node04")
    # without the server leaf, raw shard indices arrive (0,1,2)
    assert result.token.items == 3
    assert result.token.total == 10 * (0 + 1 + 2)


def test_scatter_graph_cannot_be_run_directly():
    engine, _ = build_world(service_name="sv3.scatter")
    with pytest.raises(ScheduleError, match="call_scatter"):
        engine.run("sv3.scatter", SQuery(1))


def test_call_scatter_on_ordinary_graph_rejected():
    engine, client_graph = build_world(service_name="sv4.scatter")

    class BadCall(ClientScatterCall):
        service = f"client-sv4.scatter"  # an ordinary, balanced graph

    clients = ThreadCollection(ClientThread, "bad-cli").map("node04")
    bad = Flowgraph(
        FlowgraphNode(BadCall, clients)
        >> FlowgraphNode(ClientProcess, clients, ConstantRoute)
        >> FlowgraphNode(ClientMerge, clients),
        "bad-client",
    )
    with pytest.raises(ScheduleError, match="not a scatter graph"):
        engine.run(bad, SQuery(1), driver_node="node04")


def test_call_scatter_from_leaf_rejected():
    class LeafCaller(LeafOperation):
        thread_type = ClientThread
        in_types = (SQuery,)
        out_types = (SAnswer,)

        def execute(self, tok):
            yield self.call_scatter("whatever", tok)

    op = LeafCaller()
    with pytest.raises(TypeError, match="split/stream"):
        op.call_scatter("whatever", SQuery())


def test_sequential_scatter_calls():
    engine, client_graph = build_world(service_name="sv5.scatter")
    r1 = engine.run(client_graph, SQuery(1), driver_node="node04")
    r2 = engine.run(client_graph, SQuery(2), driver_node="node04")
    assert r1.token.total == r2.token.total == 10 * 303


# ---------------------------------------------------------------------------
# engine parity: the same scatter code in real time
# ---------------------------------------------------------------------------

def test_scatter_on_threaded_engine():
    from repro.runtime.threaded_engine import ThreadedEngine

    with ThreadedEngine() as engine:
        servers = ThreadCollection(ServerThread, "t-srv").map(
            "hostA hostB hostC"
        )
        engine.register_graph(
            server_scatter_graph(servers, "tsv.scatter")
        )
        clients = ThreadCollection(ClientThread, "t-cli").map("hostD")
        call_cls = type("ClientScatterCall_tsv", (ClientScatterCall,),
                        {"service": "tsv.scatter"})
        client_graph = Flowgraph(
            FlowgraphNode(call_cls, clients, ConstantRoute)
            >> FlowgraphNode(ClientProcess, clients, ConstantRoute)
            >> FlowgraphNode(ClientMerge, clients, ConstantRoute),
            "t-client",
        )
        result = engine.run(client_graph, SQuery(1), timeout=30)
        assert result.items == 3
        assert result.total == 10 * (100 + 101 + 102)


def test_scatter_graph_rejected_by_threaded_run():
    from repro.runtime.threaded_engine import ThreadedEngine

    with ThreadedEngine() as engine:
        servers = ThreadCollection(ServerThread, "t2-srv").map("hostA")
        g = server_scatter_graph(servers, "tsv2.scatter")
        with pytest.raises(ScheduleError, match="call_scatter"):
            engine.run(g, SQuery(1), timeout=10)
