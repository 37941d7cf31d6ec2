"""create_engine(): uniform options, helpful rejection of the rest."""

import os
import subprocess
import sys

import pytest

from repro.core import FlowControlPolicy, RoutingPolicy
from repro.net import TransportPolicy
from repro.net.recovery import FaultPolicy
from repro.runtime import (
    MultiprocessEngine,
    SimEngine,
    ThreadedEngine,
    create_engine,
)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown engine kind"):
        create_engine("cloud")


def test_common_options_accepted_by_every_kind():
    policy = FlowControlPolicy(window=2)
    for kind, cls in (("sim", SimEngine), ("threaded", ThreadedEngine),
                      ("multiprocess", MultiprocessEngine)):
        engine = create_engine(kind, policy=policy, nodes=3,
                               transport=None, faults=None)
        assert isinstance(engine, cls)
        assert engine.policy.window == 2
        engine.shutdown()


def test_unknown_option_names_owning_engines():
    with pytest.raises(ValueError) as exc:
        create_engine("threaded", recover=True)
    # The message teaches where the option belongs...
    assert "'recover' is a multiprocess option" in str(exc.value)
    # ...and lists what this kind does accept.
    assert "routing" in str(exc.value)


def test_option_that_no_engine_accepts():
    with pytest.raises(ValueError, match="'retries' is not an engine option"):
        create_engine("sim", retries=3)


def test_non_none_transport_rejected_outside_multiprocess():
    with pytest.raises(ValueError, match="only honoured by the multiprocess"):
        create_engine("sim", transport=TransportPolicy())
    with pytest.raises(ValueError, match="no wire"):
        create_engine("threaded", transport=TransportPolicy())


def test_non_none_faults_rejected_outside_multiprocess():
    faults = FaultPolicy(drop_rate=0.1)
    with pytest.raises(ValueError, match="no kernel processes"):
        create_engine("threaded", faults=faults)


def test_multiprocess_accepts_recovery_options():
    engine = create_engine("multiprocess", recover=True,
                           faults=FaultPolicy(drop_rate=0.1),
                           heartbeat_interval=0.5, heartbeat_miss_limit=2)
    try:
        assert engine.recover is True
        assert engine.faults.drop_rate == 0.1
        assert engine.heartbeat_interval == 0.5
    finally:
        engine.shutdown()


def test_sim_specific_options_still_work():
    engine = create_engine("sim", nodes=2, serialize_payloads=False)
    assert len(engine.cluster.node_names) == 2


def test_routing_is_a_common_option():
    from repro.runtime import RoutingPolicy
    for kind in ("sim", "threaded", "multiprocess"):
        engine = create_engine(kind, routing=RoutingPolicy(
            kind="queue_depth"))
        try:
            assert engine.routing.adaptive is True
        finally:
            engine.shutdown()


def test_scaling_is_multiprocess_only():
    from repro.runtime import ScalingPolicy
    with pytest.raises(ValueError) as exc:
        create_engine("sim", scaling=ScalingPolicy())
    assert "'scaling' is a multiprocess option" in str(exc.value)
    engine = create_engine("multiprocess",
                           scaling=ScalingPolicy(max_kernels=3))
    try:
        assert engine.scaling.max_kernels == 3
    finally:
        engine.shutdown()


#: Every runtime variable the engines used to read.  None selects
#: anything now: an engine is configured by its arguments alone.
RETIRED_ENV = {
    "REPRO_SHM": "0", "REPRO_SHM_THRESHOLD": "1", "REPRO_CODEC": "pure",
    "REPRO_ROUTING": "queue_depth", "REPRO_RECOVER": "1",
    "REPRO_FAULT_KILL": "node01@#1", "REPRO_FAULT_DROP": "0.9",
    "REPRO_FAULT_DELAY_MS": "500", "REPRO_FAULT_SEED": "13",
    "REPRO_SCALING_MIN": "7", "REPRO_SCALING_MAX": "9",
    "REPRO_SCALING_HIGH": "2", "REPRO_SCALING_LOW": "1",
    "REPRO_SCALING_COOLDOWN": "0",
}


def test_retired_env_names_are_inert(monkeypatch):
    """Hostile values in all 14 retired variables change no engine: a
    ``None`` policy is the dataclass default on every kind, and an
    unconfigured engine must not fork kernels on its own."""
    for name, value in RETIRED_ENV.items():
        monkeypatch.setenv(name, value)
    for kind in ("sim", "threaded", "multiprocess"):
        engine = create_engine(kind)
        try:
            assert engine.routing == RoutingPolicy(), kind
        finally:
            engine.shutdown()
    assert engine.transport == TransportPolicy()
    assert engine.faults == FaultPolicy()
    assert engine.recover is False
    assert engine.scaling is None
    # the codec tier follows from what imported, not from a variable
    probe = [sys.executable, "-c",
             "from repro.serial import codec_in_use; print(codec_in_use())"]
    hostile = subprocess.run(probe, capture_output=True, text=True,
                             check=True)
    clean_env = {k: v for k, v in os.environ.items() if k not in RETIRED_ENV}
    clean = subprocess.run(probe, capture_output=True, text=True, check=True,
                           env=clean_env)
    assert hostile.stdout == clean.stdout
    assert clean.stdout.strip() in ("compiled", "pure")
