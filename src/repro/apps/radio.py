"""Parallel computation of radio listening rates (paper §1, ref. [21]).

One of the first-generation parallel-schedule applications: computing
radio listening rates from survey data — thousands of participants carry
watches that log the ambient-sound signature per minute; matching those
logs against the stations' broadcast signatures yields per-station,
per-time-slot listening rates.

The DPS structure is a classic farm with data-dependent task sizes:

- the survey (participant diaries) is partitioned into batches stored on
  the master;
- the split posts one batch per token; workers really match each diary
  minute against the station signatures (numpy correlation-style
  scoring), charging flops proportional to ``minutes × stations``;
- the merge accumulates the per-station × per-slot listening counts and
  posts the rate table.

Batches vary in size (participants log different amounts), so the
load-balanced route outperforms round-robin — this app doubles as the
showcase for feedback-driven routing on real (skewed) workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..cluster import ClusterSpec, costs
from ..core import (
    ConstantRoute,
    DpsThread,
    FlowControlPolicy,
    Flowgraph,
    FlowgraphNode,
    LeafOperation,
    LoadBalancedRoute,
    MergeOperation,
    Route,
    SplitOperation,
    ThreadCollection,
)
from ..runtime import SimEngine
from ..serial import Buffer, ComplexToken, SimpleToken

__all__ = [
    "RadioSurvey",
    "generate_survey",
    "compute_listening_rates",
    "reference_rates",
    "RadioRun",
]

#: equivalent simple operations per (diary-minute, station) match
MATCH_FLOPS_PER_SAMPLE = 12.0


# ---------------------------------------------------------------------------
# synthetic survey data
# ---------------------------------------------------------------------------

@dataclass
class RadioSurvey:
    """A synthetic listening survey.

    ``diaries[i]`` is an ``(minutes_i, 2)`` int array: column 0 is the
    time slot, column 1 the station actually heard (or -1 for none);
    diaries have skewed lengths, as real participants do.
    """

    n_stations: int
    n_slots: int
    diaries: List[np.ndarray]

    @property
    def total_minutes(self) -> int:
        return sum(len(d) for d in self.diaries)


def generate_survey(
    n_participants: int = 200,
    n_stations: int = 8,
    n_slots: int = 24,
    seed: int = 0,
) -> RadioSurvey:
    """Generate a survey with realistically skewed diary lengths."""
    rng = np.random.default_rng(seed)
    diaries = []
    for _ in range(n_participants):
        # lognormal lengths: a few participants log far more than most
        minutes = max(4, int(rng.lognormal(mean=3.0, sigma=0.9)))
        slots = rng.integers(0, n_slots, size=minutes)
        stations = rng.integers(-1, n_stations, size=minutes)
        diaries.append(
            np.stack([slots, stations], axis=1).astype(np.int32)
        )
    return RadioSurvey(n_stations, n_slots, diaries)


def reference_rates(survey: RadioSurvey) -> np.ndarray:
    """Single-threaded reference: listening counts[station, slot]."""
    counts = np.zeros((survey.n_stations, survey.n_slots), dtype=np.int64)
    for diary in survey.diaries:
        heard = diary[diary[:, 1] >= 0]
        np.add.at(counts, (heard[:, 1], heard[:, 0]), 1)
    return counts


# ---------------------------------------------------------------------------
# tokens / threads / operations
# ---------------------------------------------------------------------------

class RadioJobToken(ComplexToken):
    def __init__(self, n_stations: int = 0, n_slots: int = 0,
                 batch_size: int = 20):
        self.n_stations = n_stations
        self.n_slots = n_slots
        self.batch_size = batch_size


class RadioBatchToken(ComplexToken):
    """One batch of diaries, flattened with participant offsets."""

    def __init__(self, batch_id: int = 0, data=None,
                 n_stations: int = 0, n_slots: int = 0):
        self.batch_id = batch_id
        self.data = Buffer(data if data is not None else
                           np.empty((0, 2), np.int32))
        self.n_stations = n_stations
        self.n_slots = n_slots


class RadioCountsToken(ComplexToken):
    def __init__(self, batch_id: int = 0, counts=None, minutes: int = 0):
        self.batch_id = batch_id
        self.counts = Buffer(counts if counts is not None else [])
        self.minutes = minutes


class RadioRatesToken(ComplexToken):
    def __init__(self, counts=None, total_minutes: int = 0):
        self.counts = Buffer(counts if counts is not None else [])
        self.total_minutes = total_minutes


class RadioMasterThread(DpsThread):
    """Holds the survey (it arrives out-of-core batch by batch)."""

    def __init__(self):
        self.survey: Optional[RadioSurvey] = None


class RadioWorkerThread(DpsThread):
    def __init__(self):
        self.matched_minutes = 0


class RadioSplit(SplitOperation):
    """Post diary batches; batch sizes follow the skewed diary lengths."""

    thread_type = RadioMasterThread
    in_types = (RadioJobToken,)
    out_types = (RadioBatchToken,)

    def execute(self, tok: RadioJobToken):
        survey = self.thread.survey
        if survey is None:
            raise RuntimeError("survey not loaded on the master thread")
        diaries = survey.diaries
        for batch_id, start in enumerate(range(0, len(diaries),
                                               tok.batch_size)):
            chunk = diaries[start:start + tok.batch_size]
            flat = np.concatenate(chunk) if chunk else \
                np.empty((0, 2), np.int32)
            self.post(RadioBatchToken(batch_id, flat,
                                      survey.n_stations, survey.n_slots))


class RadioMatch(LeafOperation):
    """Match a batch against the station signatures (really computed)."""

    thread_type = RadioWorkerThread
    in_types = (RadioBatchToken,)
    out_types = (RadioCountsToken,)

    def execute(self, tok: RadioBatchToken):
        data = tok.data.array
        counts = np.zeros((tok.n_stations, tok.n_slots), dtype=np.int64)
        heard = data[data[:, 1] >= 0]
        if len(heard):
            np.add.at(counts, (heard[:, 1], heard[:, 0]), 1)
        self.thread.matched_minutes += len(data)
        yield self.charge_flops(
            MATCH_FLOPS_PER_SAMPLE * len(data) * tok.n_stations
        )
        yield self.post(RadioCountsToken(tok.batch_id, counts, len(data)))


class RadioMerge(MergeOperation):
    """Accumulate the per-batch counts into the rate table."""

    thread_type = RadioMasterThread
    in_types = (RadioCountsToken,)
    out_types = (RadioRatesToken,)

    def execute(self, tok: RadioCountsToken):
        total = np.zeros_like(tok.counts.array)
        minutes = 0
        while tok is not None:
            total += tok.counts.array
            minutes += tok.minutes
            tok = yield self.next_token()
        yield self.post(RadioRatesToken(total, minutes))


class _RadioLoad(LeafOperation):
    """Install the survey into the master thread (load step)."""

    thread_type = RadioMasterThread
    in_types = (RadioJobToken,)
    out_types = (RadioJobToken,)

    survey: Optional[RadioSurvey] = None

    def execute(self, tok):
        self.thread.survey = self.survey
        self.post(tok)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

@dataclass
class RadioRun:
    counts: np.ndarray
    total_minutes: int
    makespan: float
    #: minutes matched per worker thread index (load-balance visibility)
    worker_minutes: List[int]

    def rates(self) -> np.ndarray:
        """Listening rate: fraction of logged minutes per station/slot."""
        if self.total_minutes == 0:
            return self.counts.astype(float)
        return self.counts / float(self.total_minutes)


_radio_uid = [0]


def compute_listening_rates(
    spec: ClusterSpec,
    survey: RadioSurvey,
    n_workers: int,
    batch_size: int = 20,
    route_class: type[Route] = LoadBalancedRoute,
    window: Optional[int] = None,
) -> RadioRun:
    """Compute the survey's listening rates on the simulated cluster."""
    if n_workers < 1 or n_workers > len(spec.node_names) - 1:
        raise ValueError(
            f"need 1..{len(spec.node_names) - 1} workers on a "
            f"{len(spec.node_names)}-node cluster"
        )
    _radio_uid[0] += 1
    uid = _radio_uid[0]
    master_node = spec.node_names[0]
    worker_nodes = spec.node_names[1:n_workers + 1]
    engine = SimEngine(
        spec,
        policy=FlowControlPolicy(window=window if window else 2 * n_workers),
        serialize_payloads=False,
    )
    master = ThreadCollection(RadioMasterThread, f"radio{uid}-m").map(master_node)
    workers = ThreadCollection(RadioWorkerThread, f"radio{uid}-w").map_nodes(
        worker_nodes
    )
    load_cls = type(f"RadioLoad_{uid}", (_RadioLoad,), {"survey": survey})
    graph = Flowgraph(
        FlowgraphNode(load_cls, master, ConstantRoute)
        >> FlowgraphNode(RadioSplit, master, ConstantRoute)
        >> FlowgraphNode(RadioMatch, workers, route_class)
        >> FlowgraphNode(RadioMerge, master, ConstantRoute),
        f"radio{uid}.rates",
    )
    engine.register_graph(graph)
    engine.prelaunch()
    result = engine.run(
        graph,
        RadioJobToken(survey.n_stations, survey.n_slots, batch_size),
        driver_node=master_node,
    )
    worker_minutes = []
    for index in range(workers.thread_count):
        thread = engine.controllers[workers.node_of(index)].thread(workers,
                                                                   index)
        worker_minutes.append(thread.matched_minutes if thread else 0)
    return RadioRun(
        counts=result.token.counts.array,
        total_minutes=result.token.total_minutes,
        makespan=result.makespan,
        worker_minutes=worker_minutes,
    )
