"""CLI engine flags: each becomes a constructor argument, nothing ambient.

The flags reach the engine as ``create_engine`` keyword arguments (no
environment round trip), an engine that cannot honour one refuses it
with a usage error, and commands that build no engine from the command
line take none.
"""

import os

import pytest

from repro.cli import main as cli_main
from repro.core import RoutingPolicy
from repro.net import TransportPolicy
from repro.net.recovery import FaultPolicy
from repro.runtime import MultiprocessEngine, ScalingPolicy


class _Built(Exception):
    """Raised by the patched constructors: the options were recorded,
    no engine is needed."""


@pytest.fixture
def built(monkeypatch):
    """Record what the CLI hands ``create_engine`` / ``ServiceEngine``."""
    calls = []

    def record(*args, **opts):
        calls.append((args, opts))
        raise _Built

    monkeypatch.setattr("repro.runtime.create_engine", record)
    monkeypatch.setattr("repro.service.ServiceEngine", record)
    return calls


KILL_AT_MESSAGE = FaultPolicy(kill_kernel="node03", kill_after_messages=5)

FLAG_TABLE = [
    ([], {}),
    (["--no-shm"], {"transport": TransportPolicy(shm_enabled=False)}),
    (["--routing", "queue_depth"],
     {"routing": RoutingPolicy(kind="queue_depth")}),
    (["--routing", "round_robin"], {"routing": RoutingPolicy()}),
    (["--min-kernels", "2"], {"scaling": ScalingPolicy(min_kernels=2)}),
    (["--max-kernels", "3"], {"scaling": ScalingPolicy(max_kernels=3)}),
    (["--min-kernels", "2", "--max-kernels", "3"],
     {"scaling": ScalingPolicy(min_kernels=2, max_kernels=3)}),
    (["--kill-kernel", "node03@#5"],
     {"faults": KILL_AT_MESSAGE, "recover": True}),
    (["--kill-kernel", "node03@0.5"],
     {"faults": FaultPolicy(kill_kernel="node03", kill_after=0.5),
      "recover": True}),
    (["--drop-rate", "0.25"],
     {"faults": FaultPolicy(drop_rate=0.25), "recover": True}),
    (["--fault-seed", "7"], {"faults": FaultPolicy(seed=7)}),
    (["--no-shm", "--routing", "queue_depth", "--max-kernels", "5",
      "--kill-kernel", "node03@#5", "--drop-rate", "0.1", "--fault-seed", "7"],
     {"transport": TransportPolicy(shm_enabled=False),
      "routing": RoutingPolicy(kind="queue_depth"),
      "scaling": ScalingPolicy(max_kernels=5),
      "faults": FaultPolicy(kill_kernel="node03", kill_after_messages=5,
                            drop_rate=0.1, seed=7),
      "recover": True}),
]

#: What the commands add on their own account, flags or no flags.
_OWN = {"nodes", "tracer", "stream", "metrics", "admission", "ns_port"}


@pytest.mark.parametrize("flags, expected", FLAG_TABLE,
                         ids=[" ".join(f) or "no flags"
                              for f, _ in FLAG_TABLE])
def test_flag_becomes_constructor_argument(built, flags, expected):
    with pytest.raises(_Built):
        cli_main(["ring", "--engine", "multiprocess", *flags])
    (args, opts), = built
    assert args == ("multiprocess",)
    assert {k: v for k, v in opts.items() if k not in _OWN} == expected


@pytest.mark.parametrize("command", ["demo", "ring", "stream", "serve"])
def test_every_engine_command_passes_the_same_options(built, command):
    with pytest.raises(_Built):
        cli_main([command, "--engine", "multiprocess", "--no-shm",
                  "--kill-kernel", "node03@#5"])
    (_, opts), = built
    assert {k: v for k, v in opts.items() if k not in _OWN} == {
        "transport": TransportPolicy(shm_enabled=False),
        "faults": KILL_AT_MESSAGE, "recover": True}


def _usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        cli_main(argv)
    assert exit_.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("engine, flags", [
    ("sim", ["--kill-kernel", "node03@#5"]),
    ("sim", ["--fault-seed", "7"]),
    ("sim", ["--no-shm"]),
    ("sim", ["--max-kernels", "3"]),
    ("threaded", ["--no-shm"]),
    ("threaded", ["--drop-rate", "0.5"]),
    ("threaded", ["--min-kernels", "2"]),
])
def test_engine_refuses_the_flag_it_cannot_honour(capsys, engine, flags):
    err = _usage_error(["demo", "--engine", engine, *flags], capsys)
    assert flags[0] in err
    assert f"--engine {engine}" in err


@pytest.mark.parametrize("engine", ["sim", "threaded"])
def test_routing_is_honoured_by_every_engine(capsys, engine):
    assert cli_main(["demo", "--engine", engine,
                     "--routing", "queue_depth"]) == 0
    assert "DYNAMIC PARALLEL SCHEDULES" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["fig9", "--fast", "--no-shm", "--routing", "queue_depth"],
    ["all", "--fast", "--fault-seed", "1"],
    ["list", "--routing", "queue_depth", "--drop-rate", "0.5"],
    ["call", "--discover", "--routing", "queue_depth"],
    ["join", "--no-shm"],
])
def test_commands_that_build_no_engine_take_no_engine_flags(capsys, argv):
    err = _usage_error(argv, capsys)
    assert argv[0] in err
    for word in argv:
        if word.startswith("--") and word not in ("--fast", "--discover"):
            assert word in err


@pytest.mark.parametrize("flags, names", [
    (["--min-kernels", "0"], "min_kernels"),
    (["--min-kernels", "9"], "max_kernels"),   # above the default ceiling
    (["--kill-kernel", "node03"], "kill spec"),
    (["--kill-kernel", "node03@#soon"], "invalid literal"),
    (["--drop-rate", "1.5"], "drop_rate"),
])
def test_out_of_range_flag_value_is_a_usage_error(capsys, flags, names):
    err = _usage_error(["ring", "--engine", "multiprocess", *flags], capsys)
    assert flags[0] in err
    assert names in err


def test_chaos_flags_in_process_leave_the_process_as_they_found_it(capsys):
    """A kill injected from the command line recovers to the clean run's
    result, and neither the environment nor the next engine built in
    this process can tell the flags were ever given."""
    def ring_line(*flags):
        assert cli_main(["ring", "--engine", "multiprocess", *flags]) == 0
        line, = [l for l in capsys.readouterr().out.splitlines()
                 if l.startswith("ring on multiprocess engine")]
        return line.rsplit(" in ", 1)[0]  # drop the wall time

    before = dict(os.environ)
    clean = ring_line()
    assert "32 blocks x 4096 B" in clean
    assert ring_line("--kill-kernel", "node03@#5", "--fault-seed", "7") \
        == clean
    assert dict(os.environ) == before
    engine = MultiprocessEngine()
    try:
        assert engine.recover is False
        assert engine.faults.enabled is False
        assert engine.scaling is None
    finally:
        engine.shutdown()
