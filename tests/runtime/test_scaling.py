"""ScalingPolicy: the pure grow/shrink decision, env parsing, and the
multiprocess autoscaler that drives membership from it."""

import time

import pytest

from repro.apps.ring import RingJobToken, build_ring_graph
from repro.runtime import MultiprocessEngine, ScalingPolicy


# ---------------------------------------------------------------------------
# the pure decision function
# ---------------------------------------------------------------------------

def test_decide_grows_on_high_watermark():
    p = ScalingPolicy(max_kernels=4, queue_high=8, queue_low=1, cooldown=0.0)
    assert p.decide(2, {"a": 9, "b": 0}, 0.0, 1.0) == "grow"
    # peak, not mean: one saturated kernel is enough
    assert p.decide(2, {"a": 8, "b": 0}, 0.0, 1.0) == "grow"
    assert p.decide(2, {"a": 7, "b": 7}, 0.0, 1.0) is None


def test_decide_shrinks_when_everyone_is_idle():
    p = ScalingPolicy(min_kernels=2, queue_high=8, queue_low=1, cooldown=0.0)
    assert p.decide(3, {"a": 0, "b": 1, "c": 0}, 0.0, 1.0) == "shrink"
    assert p.decide(3, {"a": 0, "b": 2, "c": 0}, 0.0, 1.0) is None


def test_decide_respects_bounds():
    p = ScalingPolicy(min_kernels=2, max_kernels=3, queue_high=8,
                      queue_low=1, cooldown=0.0)
    assert p.decide(3, {"a": 99}, 0.0, 1.0) is None   # at max
    assert p.decide(2, {"a": 0}, 0.0, 1.0) is None    # at min


def test_decide_honours_cooldown_and_missing_depths():
    p = ScalingPolicy(max_kernels=4, queue_high=8, cooldown=5.0)
    assert p.decide(2, {"a": 99}, 0.0, 1.0) is None   # in cooldown
    assert p.decide(2, {"a": 99}, 0.0, 6.0) == "grow"
    assert p.decide(2, {}, 0.0, 6.0) is None          # no observations


def test_decide_is_pure():
    p = ScalingPolicy(cooldown=0.0)
    args = (2, {"a": 9}, 0.0, 1.0)
    assert p.decide(*args) == p.decide(*args) == "grow"


def test_validation():
    with pytest.raises(ValueError, match="min_kernels"):
        ScalingPolicy(min_kernels=0)
    with pytest.raises(ValueError, match="max_kernels"):
        ScalingPolicy(min_kernels=3, max_kernels=2)
    with pytest.raises(ValueError, match="queue_high"):
        ScalingPolicy(queue_high=1, queue_low=1)
    with pytest.raises(ValueError, match="cooldown"):
        ScalingPolicy(cooldown=-1)


# ---------------------------------------------------------------------------
# the multiprocess autoscaler thread
# ---------------------------------------------------------------------------

def test_autoscaler_grows_and_shrinks_only_elastic_kernels():
    """Feed the autoscaler synthetic depth observations: sustained
    backlog must fork exactly one kernel (cooldown gates the second),
    idleness must retire that kernel and never a seed kernel."""
    nodes = ["node01", "node02"]
    graph = build_ring_graph(nodes)
    scaling = ScalingPolicy(min_kernels=2, max_kernels=3, queue_high=8,
                            queue_low=1, cooldown=0.3)
    with MultiprocessEngine(scaling=scaling, heartbeat_interval=0.05) \
            as engine:
        engine.register_graph(graph)
        engine.run(graph, RingJobToken(256, 2), timeout=60)

        depths = {"value": {n: 20 for n in nodes}}
        engine._poll_depths = lambda: dict(depths["value"])

        def elastic():  # the autoscaler's bookkeeping is the loop's
            return engine._console._call(
                lambda: list(engine._elastic_kernels))

        deadline = time.time() + 15
        while not elastic() and time.time() < deadline:
            time.sleep(0.05)
        assert elastic(), "autoscaler never grew"
        grown = elastic()
        assert len(grown) == 1  # capped by max_kernels=3
        assert set(engine.members()) == set(nodes) | set(grown)

        depths["value"] = {n: 0 for n in engine.members()}
        deadline = time.time() + 15
        while elastic() and time.time() < deadline:
            time.sleep(0.05)
        assert not elastic(), "autoscaler never shrank"
        # only its own join retired; the seed topology is untouched
        assert set(engine.members()) == set(nodes)

        done = engine.run(graph, RingJobToken(256, 4), timeout=60)
        assert done.blocks == 4
