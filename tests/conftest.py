"""Session-scoped simulation batteries shared by the acceptance suite.

Each battery runs once per pytest session and returns its results together
with its wall-clock cost, so every acceptance criterion can assert its own
runtime budget over exactly the work it consumed. A terminal-summary hook
prints one PASS/FAIL line per criterion at the end of the run.
"""

import time
from typing import Dict, List

import numpy as np
import pytest

from batchcast import codec, sim
from batchcast.analytics import (
    NetworkParams,
    optimize_batches,
    rank_distribution,
    stopping_time,
)

ACCEPTANCE_LINES: List[str] = []


def source_rows(payloads: np.ndarray) -> np.ndarray:
    """A batch's source packets as rows [coeff | payload]: [e_j | payloads[j]]."""
    eye = np.eye(len(payloads), dtype=np.uint8)
    return np.concatenate([eye, payloads], axis=1)


def encoded(tables, dist, bid: int, seed: int, batch_size: int):
    """Batch bid's descriptor, drawn from its stream under seed, and its
    (M, L) source payloads from tables, the file's gf.SplitTables."""
    desc = codec.make_descriptor(
        tables.shape[0], dist, codec.descriptor_rng(seed, bid), batch_size
    )
    return desc, codec.encode_batch(tables, desc)


def deliver(buffers: codec.BatchBuffers, bid: int, row, receiver: int = 0) -> bool:
    """Receive one row [coeff | payload] of batch bid at one receiver of
    buffers; True iff it raised that receiver's rank."""
    delivered = np.zeros((1, buffers.ranks.shape[1]), dtype=bool)
    delivered[0, receiver] = True
    gained = buffers.absorb(np.array([bid]), np.asarray(row)[None], delivered)
    return bool(gained[0, receiver])


def recoded(buffers: codec.BatchBuffers, bid: int, sender: int, rng) -> np.ndarray:
    """The row codec.recode sends from sender's rows of batch bid, with its
    draws: a mix as long as the rank, drawn again while it is all zero."""
    rank = int(buffers.ranks[bid, sender])
    if not rank:
        raise ValueError("cannot recode from an empty batch buffer")
    mix = np.zeros(rank, dtype=np.uint8)
    while not mix.any():
        mix = rng.integers(0, 256, size=rank, dtype=np.uint8)
    return buffers.recode([bid], [sender], mix[None])[0]


def held(buffers: codec.BatchBuffers, bid: int, receiver: int = 0) -> np.ndarray:
    """The rows [coeff | payload] receiver holds of batch bid, in arrival
    order; a BatchState's are held(state.buffers, 0)."""
    return buffers.raw[bid, receiver, : buffers.ranks[bid, receiver]]


def make_decoder(descriptors, file_packets: int, payload_len: int):
    """An IncrementalDecoder of descriptors on its own DecoderIndex."""
    index = codec.DecoderIndex(descriptors, file_packets)
    return codec.IncrementalDecoder(index, payload_len)


def batch_state(dec: codec.IncrementalDecoder, bid: int):
    """(u, rows, queued) of batch bid in dec: how many of its contributors
    are unresolved, how many rows it holds, and whether it waits in the fire
    queue."""
    i = dec.index.pos[bid]
    return int(dec._u[i]), int(dec._rows[i]), bool(dec._queued[i])


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


EX2 = NetworkParams(
    num_users=3,
    loss_common=0.05,
    loss_source=0.5,
    loss_peer=0.1,
    batch_size=16,
    file_packets=1600,
)
EX3 = NetworkParams(
    num_users=5,
    loss_common=0.05,
    loss_source=0.5,
    loss_peer=0.1,
    batch_size=16,
    file_packets=5000,
)
EXP = NetworkParams(
    num_users=3,
    loss_common=0.05,
    loss_source=0.5,
    loss_peer=0.2,
    batch_size=16,
    file_packets=2083,
)
COLLAPSE = NetworkParams(
    num_users=9,
    loss_common=0.0,
    loss_source=0.5,
    loss_peer=0.5,
    batch_size=16,
    file_packets=2000,
)
FIG9_DESIGN = NetworkParams(
    num_users=3,
    loss_common=0.05,
    loss_source=0.5,
    loss_peer=0.1,
    batch_size=16,
    file_packets=2083,
)


def _rank_battery(params: NetworkParams, batches: int, seeds: int) -> Dict:
    """Group repair run to the planned stopping point, rank law recorded.

    Decoders stay off (observe=[]) because the histogram only needs batch
    states; the planned budget is the instant the analytic law predicts.
    """
    t0 = time.perf_counter()
    budget = stopping_time(batches, params)
    hists = []
    for seed in range(seeds):
        rep = sim.run_session(
            params, seed, num_batches=batches, observe=[], phase2_budget=budget
        )
        hists.append(rep.rank_distribution)
    empirical = np.mean(hists, axis=0)
    exact = rank_distribution(batches, budget, params)
    approx = rank_distribution(batches, budget, params, approximate=True)
    return {
        "empirical": empirical,
        "exact": exact,
        "approx": approx,
        "seeds": seeds,
        "budget": budget,
        "wall": time.perf_counter() - t0,
    }


def _totals_battery(params: NetworkParams, batches: int, seeds: int) -> Dict:
    t0 = time.perf_counter()
    phase2, totals, innovative = [], [], []
    for seed in range(seeds):
        rep = sim.run_session(params, seed, num_batches=batches)
        phase2.append(rep.phase2_tx)
        totals.append(rep.total_tx)
        innovative.extend(rep.innovative_at_decode)
    return {
        "phase2": np.array(phase2, dtype=float),
        "totals": np.array(totals, dtype=float),
        "innovative_at_decode": np.array(innovative, dtype=float),
        "seeds": seeds,
        "wall": time.perf_counter() - t0,
    }


@pytest.fixture(scope="session")
def ex2_rank_battery() -> Dict:
    return _rank_battery(EX2, 129, 100)


@pytest.fixture(scope="session")
def ex3_rank_battery() -> Dict:
    return _rank_battery(EX3, 402, 100)


@pytest.fixture(scope="session")
def exp167_battery() -> Dict:
    return _totals_battery(EXP, 167, 50)


@pytest.fixture(scope="session")
def exp211_battery() -> Dict:
    return _totals_battery(EXP, 211, 50)


@pytest.fixture(scope="session")
def collapse_battery() -> Dict:
    t0 = time.perf_counter()
    plan = optimize_batches(COLLAPSE)
    two, single = [], []
    for seed in range(8):
        two.append(sim.run_session(COLLAPSE, seed, num_batches=plan.n_opt).total_tx)
        single.append(sim.run_single_phase(COLLAPSE, seed))
    return {
        "plan": plan,
        "two_phase": np.array(two, dtype=float),
        "single": np.array(single, dtype=float),
        "wall": time.perf_counter() - t0,
    }


@pytest.fixture(scope="session")
def fig7_battery() -> Dict:
    """Savings of two-phase over single-phase at k=9, no common loss."""
    t0 = time.perf_counter()
    arms = {}
    for tag, p1, p2 in (("A", 0.5, 0.1), ("B", 0.4, 0.2)):
        params = NetworkParams(
            num_users=9,
            loss_common=0.0,
            loss_source=p1,
            loss_peer=p2,
            batch_size=16,
            file_packets=2000,
        )
        plan = optimize_batches(params)
        two, single = [], []
        for seed in range(5):
            single.append(sim.run_single_phase(params, seed))
            two.append(sim.run_session(params, seed, num_batches=plan.n_opt).total_tx)
        arms[tag] = {
            "realized": float(np.mean(single)) - float(np.mean(two)),
            "planned": plan.n_max * params.batch_size
            - plan.total_of_n[plan.n_opt],
        }
    return {"arms": arms, "wall": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def robustness_battery() -> Dict:
    t0 = time.perf_counter()
    actual = NetworkParams(
        num_users=9,
        loss_common=FIG9_DESIGN.loss_common,
        loss_source=FIG9_DESIGN.loss_source,
        loss_peer=FIG9_DESIGN.loss_peer,
        batch_size=FIG9_DESIGN.batch_size,
        file_packets=FIG9_DESIGN.file_packets,
    )
    ideal_n = optimize_batches(actual).n_opt
    robust, ideal = [], []
    for seed in range(12):
        robust.append(sim.run_robustness(FIG9_DESIGN, 9, seed).total_tx)
        ideal.append(sim.run_session(actual, seed, num_batches=ideal_n).total_tx)
    return {
        "robust": np.array(robust, dtype=float),
        "ideal": np.array(ideal, dtype=float),
        "wall": time.perf_counter() - t0,
    }
