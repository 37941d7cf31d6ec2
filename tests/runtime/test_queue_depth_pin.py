"""The queue depth a DPS thread reports, pinned.

``QueueDepthRoute`` and the ``token_recv`` trace read the depth of a
thread's inbox when it starts an item.  The virtual-time pins do not
see that number, so this pins it for the traced block-mode stream
pipeline of ``test_virtual_time_pins.py``: every ``(time, node,
depth)`` of its ``token_recv`` events.
"""

import hashlib

from repro.apps.stream_pipeline import StreamJob, run_stream_pipeline
from repro.cluster import paper_cluster
from repro.core.flowcontrol import StreamPolicy
from repro.runtime import SimEngine
from repro.trace import Tracer

#: the ``token_recv`` events that saw a queued item behind them
NONZERO_DEPTHS = [
    (0.310474064, "node02", 1),
    (0.37068009599999996, "node03", 1),
    (0.49614612799999996, "node04", 3),
    (0.49614612799999996, "node04", 2),
    (0.49614612799999996, "node04", 1),
    (0.6191462903140238, "node01", 2),
    (0.6191462903140238, "node01", 1),
]
#: sha256 of ``repr()`` of the whole sequence
SEQUENCE_SHA256 = \
    "8d30df79f0e45a2db008ab0fe93e0b14c0a58b6b1441397b8f5346afb7a9fbc4"


def test_stream_pipeline_token_recv_depths():
    tracer = Tracer()
    engine = SimEngine(paper_cluster(4),
                       stream=StreamPolicy(credit_window=4, shedding="block"),
                       tracer=tracer)
    names = engine.cluster.node_names
    run_stream_pipeline(engine, StreamJob(items=128), names[0], names[1:3],
                        names[3])
    seq = [(ev.time, ev.fields["node"], ev.fields["depth"])
           for ev in tracer.events if ev.kind == "token_recv"]
    depths = [depth for _, _, depth in seq]
    assert (len(seq), sum(depths), max(depths)) == (261, 11, 3)
    assert [entry for entry in seq if entry[2]] == NONZERO_DEPTHS
    assert hashlib.sha256(repr(seq).encode()).hexdigest() == SEQUENCE_SHA256
