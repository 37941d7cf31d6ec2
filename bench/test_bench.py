"""Self-test of the benchmark: ``python -m pytest bench -q`` (< 30 s).

Runs every workload at 2% size through both passes and checks the
contract with ``BENCHMARK.json``; proves that a wrong output reaches
``failed`` and the exit code; and checks the comparison rule on
synthetic samples.
"""

import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from bench import ROOT, compare, load_contract, run
from bench.workloads import WORKLOADS, ServiceClosed, StreamBursty

CONTRACT = load_contract()
SMALL = ["--scale", "0.02", "--seconds", "0.2"]


def _run_child(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", workload,
         "--seed", "3", "--trace", str(trace), *SMALL],
        cwd=ROOT, capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def runs():
    """Every workload x both passes, as the driver would call them."""
    jobs = [(name, trace) for name in WORKLOADS for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        done = list(pool.map(lambda job: _run_child(*job), jobs))
    return dict(zip(jobs, done))


def test_contract_names_every_workload():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert CONTRACT["paths"] == ["bench"]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_declared_metric_printed_once(runs, workload, trace):
    done = runs[(workload, trace)]
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {entry["name"] for entry in declared}
    table_names = [line.split()[1] for line in lines[:-1]
                   if line.startswith(workload)]
    for entry in declared:
        name = entry["name"]
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
        assert table_names.count(name) == 1, name
        metric = result["metrics"][name]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _session_members(session: int) -> list:
    """Processes, zombies included, whose session id is *session*."""
    members = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == session:
            members.append((int(pid), fields[0]))
    return members


def test_no_process_outlives_a_run():
    # a session of its own tells this run's descendants from everyone
    # else's, also after init has adopted them
    child = subprocess.Popen(
        [sys.executable, "-m", "bench.run", "--workload", "ring_small",
         "--seed", "3", "--trace", "0", *SMALL],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    assert child.wait(timeout=120) == 0
    assert _session_members(child.pid) == []


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_wrong_service_reply_is_counted(monkeypatch, capsys):
    verify, rep = ServiceClosed._verify, ServiceClosed.rep
    state = {"reps": 0, "spoil": False}

    def rep_spoiling_the_first(self):
        state["reps"] += 1
        state["spoil"] = state["reps"] == 1
        return rep(self)

    def verify_unless_spoiled(self, token, row, col):
        spoiled, state["spoil"] = state["spoil"], False
        return verify(self, token, row, col) and not spoiled

    monkeypatch.setattr(ServiceClosed, "rep", rep_spoiling_the_first)
    monkeypatch.setattr(ServiceClosed, "_verify", verify_unless_spoiled)
    status = run.main(["--workload", "service_closed", "--seed", "3", *SMALL])
    result = _last_json(capsys)
    assert status == 1
    assert result["correct"] is False and result["failed"] == 1


def test_wrong_stream_digest_is_counted(monkeypatch, capsys):
    init = StreamBursty.__init__

    def init_with_wrong_oracle(self, seed, scale=1.0):
        init(self, seed, scale)
        self.oracle.digest += 1

    monkeypatch.setattr(StreamBursty, "__init__", init_with_wrong_oracle)
    status = run.main(["--workload", "stream_bursty", "--seed", "3", *SMALL])
    result = _last_json(capsys)
    assert status == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_compare_verdicts():
    bound = 0.10
    wide = [80, 100, 120, 90, 110]
    steady = [100, 101, 99, 100, 102]
    slower = [120, 121, 119, 120, 122]
    # wide, overlapping spreads: the runs cannot tell
    assert compare.verdict(wide, [85, 105, 125, 95, 115],
                           "lower", bound) == "unresolved"
    # wide spread, but every B sample beats every A sample
    assert compare.verdict(wide, [40, 50, 60, 45, 55],
                           "lower", bound) == "improved"
    assert compare.verdict(steady, slower, "lower", bound) == "regressed"
    assert compare.verdict(steady, slower, "higher", bound) == "improved"
    assert compare.verdict(steady, [103, 104, 102, 103, 105],
                           "lower", bound) == "unchanged"


def test_compare_refuses_different_hosts(tmp_path):
    host = {"nproc": 2, "python": "3.11.7", "codec": "fast:plans"}
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"host": host, "workloads": {}}))
    b.write_text(json.dumps(
        {"host": {**host, "codec": "fast:plans+compiled"}, "workloads": {}}))
    assert compare.main([str(a), str(b)]) == 2
    assert compare.main([str(a), str(a)]) == 0
