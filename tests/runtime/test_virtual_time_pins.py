"""Bit-identical virtual time, enforced.

The simulated engine's contract is that a change which does not alter
the cluster model or the schedule leaves every virtual time exactly
where it was.  ``tests/experiments/test_harnesses.py`` checks table
structure only, so these literals — captured at commit 697fbfd, before
the scheduler core was extracted — are what pins the five paper
experiments, the ring and the streaming pipeline to their values.  A
deliberate model change updates the literal in the same commit and
says why.
"""

import pytest

from repro.apps import ring
from repro.apps.stream_pipeline import StreamJob, run_stream_pipeline
from repro.cluster import paper_cluster
from repro.core.flowcontrol import StreamPolicy
from repro.experiments import ALL
from repro.runtime import SimEngine

EXPERIMENT_PINS = {
    "fig6": "{'size': [1000, 10000, 100000, 1000000], 'sockets': [5.714285714285719, 24.999999999999975, 37.73584905660369, 39.761431411530815], 'dps': [4.3452944806069524, 21.54550194555878, 35.661633859152154, 38.161917505077554]}",
    "table1": "{'reductions': {(128, 1): 27.034332748192213, (128, 2): 38.57110421723435, (64, 1): 44.9410828573228, (64, 2): 37.47829969156749, (32, 1): 38.8411633709122, (32, 2): 25.237948924584096, (16, 1): 27.05888543135956, (16, 2): 18.378814388846475}, 'ratios': {(128, 1): 0.44992801121303017, (128, 2): 0.8998560224260603, (64, 1): 0.8666763305664061, (64, 2): 1.7333526611328123, (32, 1): 1.747955322265625, (32, 2): 3.49591064453125, (16, 1): 3.701642717633929, (16, 2): 7.403285435267858}}",
    "fig9": "{'speedups': {('400x400', 'std', 1): 1.0, ('400x400', 'imp', 1): 1.000499750124938, ('400x400', 'std', 2): 1.5585185572695577, ('400x400', 'imp', 2): 1.829392433369721, ('400x400', 'std', 4): 2.1272797596025836, ('400x400', 'imp', 4): 3.1515826234140922, ('4000x400', 'std', 1): 1.0, ('4000x400', 'imp', 1): 1.0000499975001251, ('4000x400', 'std', 2): 1.9413248209316738, ('4000x400', 'imp', 2): 1.9815040338793872, ('4000x400', 'std', 4): 3.6634853698688237, ('4000x400', 'imp', 4): 3.895049505413253}}",
    "table2": "{'none': {'call_ms': 0.0, 'iter_ms': 63.30015199999994, 'cps': 0.0}, '40x40': {'call_ms': 1.1042319999998718, 'iter_ms': 63.30015199999994, 'cps': 78.98875187535101}, '400x400': {'call_ms': 11.32243399999988, 'iter_ms': 63.30015199999994, 'cps': 47.39325112521061}, '400x1200': {'call_ms': 22.95320199999984, 'iter_ms': 63.30015199999994, 'cps': 31.595500750140406}}",
    "fig15": "{'speedups': {('pipelined', 1): 1.1531897459019105, ('non-pipelined', 1): 1.0, ('pipelined', 2): 1.9983224668692583, ('non-pipelined', 2): 1.6448007259293707, ('pipelined', 4): 3.0777059970197684, ('non-pipelined', 4): 2.453478069093731}}",
}


@pytest.mark.parametrize("name", sorted(EXPERIMENT_PINS))
def test_paper_experiment_virtual_times(name):
    """Every number in ``data`` derives from virtual time alone."""
    assert repr(ALL[name](fast=True).data) == EXPERIMENT_PINS[name]


def test_four_node_ring_elapsed():
    result = ring.run_dps_ring(paper_cluster(4), 1000, 200 * 1000)
    assert repr(result.elapsed) == "0.047879737999999984"


#: shedding mode -> (items, windows, digest, makespan, window stalls,
#: tokens posted, final virtual time) of a 128-item bursty stream through
#: a credit window of 4.  Stalls are counted where the body waits.
STREAM_PINS = {
    "block": "(128, 4, 1238183014492186669, 0.6213007470073055, 70, 132, 0.6215111470073055)",
    "drop-oldest": "(8, 2, 213963538050693351, 0.5592527, 0, 10, 0.5594631)",
    "shed": "(8, 1, 850403389923982894, 0.559045784, 0, 9, 0.559256184)",
}


@pytest.mark.parametrize("shedding", sorted(STREAM_PINS))
def test_stream_pipeline_virtual_times(shedding):
    engine = SimEngine(paper_cluster(4),
                       stream=StreamPolicy(credit_window=4, shedding=shedding))
    names = engine.cluster.node_names
    run = run_stream_pipeline(engine, StreamJob(items=128), names[0],
                              names[1:3], names[3])
    stats = engine.stats()
    got = (run.items, run.windows, run.digest, run.makespan,
           stats["window_stalls"], stats["tokens_posted"], stats["time"])
    assert repr(got) == STREAM_PINS[shedding]
