"""Public-API surface check: ``repro.__all__`` is the documented API.

Every exported name must import cleanly, the list must stay sorted and
duplicate-free, and the names the README/DESIGN docs rely on must be
present — so an accidental removal fails CI before it breaks a user.
"""

import repro


def test_all_names_resolve():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, \
            f"repro.__all__ exports {name!r} but repro.{name} is missing"


def test_all_is_sorted_and_unique():
    assert list(repro.__all__) == sorted(set(repro.__all__))


def test_documented_api_present():
    documented = {
        # engines + factory (README "Engines", "Observability")
        "Engine", "SimEngine", "ThreadedEngine", "MultiprocessEngine",
        "create_engine",
        # observability layer
        "Tracer", "MetricsRegistry", "export_chrome_trace",
        # graph construction core (README quickstart)
        "Flowgraph", "FlowgraphBuilder", "FlowgraphNode", "ThreadCollection",
        "DpsThread", "SplitOperation", "LeafOperation", "MergeOperation",
        "StreamOperation", "FlowControlPolicy",
        # cluster + tokens
        "paper_cluster", "Token", "Buffer", "Application",
        # fault tolerance (README "Fault tolerance")
        "FaultPolicy", "KernelFailure",
    }
    missing = documented - set(repro.__all__)
    assert not missing, f"documented names absent from __all__: {missing}"


def test_exact_public_surface():
    """The package's public surface, name for name.

    Additions are deliberate API decisions: extend this list *and* the
    docs in the same change.  Removals must go through a deprecation
    shim first, deleted once nothing imports it (as the module-level
    ``checkpoint.fail_node`` was, for ``engine.fail_node(node)``).
    """
    assert list(repro.__all__) == [
        "AdmissionPolicy", "Application", "ArrivalProcess", "Buffer",
        "Cluster", "ClusterSpec", "ComplexToken", "ConstantRoute",
        "DpsThread", "Engine", "FaultPolicy", "FlowControlPolicy",
        "Flowgraph", "FlowgraphBuilder", "FlowgraphNode", "GraphError",
        "KernelFailure", "LeafOperation", "LoadBalancedRoute",
        "MergeOperation", "MetricsRegistry", "MultiprocessEngine",
        "NetworkSpec", "NodeSpec", "Operation", "QueueDepthRoute",
        "RoundRobinRoute", "Route", "RoutingPolicy", "RunResult",
        "ScalingPolicy", "ScheduleError", "ServiceClient", "ServiceEngine",
        "SimEngine", "SimpleToken", "SplitOperation", "StreamOperation",
        "StreamPolicy", "StreamSource", "ThreadCollection",
        "ThreadedEngine", "Token", "Tracer", "TransportPolicy", "Vector",
        "Watermark", "WindowSpec", "WindowedStream", "create_engine",
        "export_chrome_trace", "paper_cluster", "route_fn",
    ]


def test_stream_api_semantics():
    """The streaming API redesign: StreamPolicy resolution, the
    emit()/end_of_stream() contract, and create_engine(stream=)."""
    import dataclasses

    import pytest

    from repro import StreamOperation, StreamPolicy, create_engine

    # StreamPolicy is a frozen dataclass that validates eagerly.
    assert dataclasses.is_dataclass(StreamPolicy)
    with pytest.raises(dataclasses.FrozenInstanceError):
        StreamPolicy().shedding = "shed"
    with pytest.raises(ValueError, match="shedding"):
        StreamPolicy(shedding="drop-newest")
    with pytest.raises(ValueError, match="credit window"):
        StreamPolicy(credit_window=0)

    # Per-edge credits override the streaming default; non-streaming
    # openers keep the engine-wide flow-control window and never shed.
    policy = StreamPolicy(credit_window=4, shedding="shed",
                          edge_credits={"ingest": 2, "bulk": None})
    assert policy.window_for("ingest", streaming=True, default=16) == 2
    assert policy.window_for("bulk", streaming=True, default=16) is None
    assert policy.window_for("other", streaming=True, default=16) == 4
    assert policy.window_for("other", streaming=False, default=16) == 16
    assert policy.shedding_for(streaming=True) == "shed"
    assert policy.shedding_for(streaming=False) == "block"

    # The callback contract is part of the base class surface.
    for attr in ("emit", "end_of_stream", "on_token", "on_close"):
        assert hasattr(StreamOperation, attr)

    # Every engine kind accepts stream=; unknown options still fail.
    engine = create_engine("threaded", stream=policy)
    try:
        assert engine.stream is policy
    finally:
        engine.shutdown()
    with pytest.raises(ValueError, match="streem"):
        create_engine("sim", streem=policy)


def test_failure_and_faultpolicy_semantics():
    """The redesigned failure API: one exception type, engine-level
    fail_node, RunResult recovery fields."""
    import pytest

    from repro import (Engine, FaultPolicy, KernelFailure, RunResult,
                       ScheduleError, ThreadedEngine)

    # KernelFailure is catchable both as a schedule error (new code) and
    # as a ConnectionError (pre-redesign call sites).
    assert issubclass(KernelFailure, ScheduleError)
    assert issubclass(KernelFailure, ConnectionError)

    # Engines expose fail_node; engines without kill support say so.
    assert hasattr(Engine, "fail_node")
    with pytest.raises(NotImplementedError, match="fail_node"):
        ThreadedEngine().fail_node("node01")

    # RunResult carries the recovery outcome.
    r = RunResult(None, 0.0, 1.0)
    assert r.recovered is False and r.replayed_tokens == 0
    r = RunResult(None, 0.0, 1.0, recovered=True, replayed_tokens=7)
    assert r.recovered is True and r.replayed_tokens == 7

    # FaultPolicy is frozen and validates its spec.
    with pytest.raises(ValueError, match="kill_after"):
        FaultPolicy(kill_kernel="node01")
    assert FaultPolicy().enabled is False


def test_membership_verbs_and_policy_api():
    """The elastic-membership API: membership verbs on the Engine base,
    RunResult rebalance fields, and the frozen routing/scaling policies."""
    import dataclasses

    import pytest

    from repro import (Engine, RoutingPolicy, RunResult, ScalingPolicy,
                       ThreadedEngine)

    # Membership verbs exist on the base; engines without elastic
    # membership say which engines have it.
    for verb in ("add_kernel", "retire_kernel", "members"):
        assert hasattr(Engine, verb)
    with pytest.raises(NotImplementedError, match="add_kernel"):
        ThreadedEngine().add_kernel()
    with pytest.raises(NotImplementedError, match="retire_kernel"):
        ThreadedEngine().retire_kernel("node01")

    # RunResult carries the rebalance outcome.
    r = RunResult(None, 0.0, 1.0)
    assert r.rebalances == 0 and r.tokens_moved == 0
    r = RunResult(None, 0.0, 1.0, rebalances=2, tokens_moved=3)
    assert r.rebalances == 2 and r.tokens_moved == 3

    # Both policies are frozen dataclasses that validate eagerly.
    assert dataclasses.is_dataclass(RoutingPolicy)
    assert dataclasses.is_dataclass(ScalingPolicy)
    with pytest.raises(dataclasses.FrozenInstanceError):
        RoutingPolicy().kind = "queue_depth"
    with pytest.raises(ValueError, match="kind"):
        RoutingPolicy(kind="fastest")
    with pytest.raises(ValueError, match="max_kernels"):
        ScalingPolicy(min_kernels=4, max_kernels=2)
    assert RoutingPolicy(kind="queue_depth").adaptive is True
    assert RoutingPolicy().adaptive is False


def test_star_import_matches_all():
    ns = {}
    exec("from repro import *", ns)  # noqa: S102 - the point of the test
    exported = {n for n in ns if not n.startswith("_")}
    assert set(repro.__all__) <= exported
