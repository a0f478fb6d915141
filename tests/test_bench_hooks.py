"""The benchmark's hooks still take hold of the library.

bench/tracer.py replaces library functions by name, and bench/workloads.py
wraps sim.make_users to see each session's users. A rename in the library
stops a traced benchmark run with KeyError, or leaves the workload checks
without users, while every library test still passes. These tests load both
modules from bench/ as they are and check that each hook goes on and comes
off again.
"""

import importlib.util
import os

import numpy as np
import pytest

from batchcast import codec, gf, sim
from batchcast.analytics import NetworkParams, stopping_time

BENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")
FAST = NetworkParams(
    num_users=3,
    loss_common=0.05,
    loss_source=0.5,
    loss_peer=0.1,
    batch_size=8,
    file_packets=300,
)


def bench_module(name):
    """bench/<name>.py, loaded under a private module name."""
    spec = importlib.util.spec_from_file_location(
        "_bench_" + name, os.path.join(BENCH, name + ".py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return bench_module("tracer")


def current(owner, attr):
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_wraps_every_target_and_restores_it(tracing):
    for owner, attr, name, _ in tracing.TARGETS:
        assert attr in vars(owner), "%s is gone from the library" % name
    originals = [current(owner, attr) for owner, attr, _, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr, name, _), orig in zip(tracing.TARGETS, originals):
            wrapped = current(owner, attr)
            assert wrapped is not orig, "%s is not traced" % name
            assert wrapped.__wrapped__ is orig
            # every traced module that imported the function by name
            for mod in tracing._MODULES:
                assert getattr(mod, attr, None) is not orig
    finally:
        tracer.restore()
    for (owner, attr, _, _), orig in zip(tracing.TARGETS, originals):
        assert current(owner, attr) is orig


def test_tracer_counts_products_on_both_kernels(tracing, monkeypatch):
    """A product of at least gf._SPLIT_ROWS rows, over an inner dimension
    that makes r * k * c more than gf._SPLIT_MULTS, takes the split-table
    kernel inside gf.matmul; the traced gf.matmul still counts it, in calls
    and in multiplications, as it counts a short one."""
    rows, mults = gf._SPLIT_ROWS, gf._SPLIT_MULTS
    edge = mults // (rows * 11) + 1
    shapes = [
        (rows - 1, 700, 11),
        (rows, edge - 1, 11),
        (16, 80, 30),  # r * k = 1280 but r * k * c = 38400
        (rows, edge, 11),
        (8, 100, 67),  # r * k = 800 but r * k * c = 53600
        (16, 300, 67),
        (150, 300, 67),
    ]
    rng = np.random.default_rng(4)
    pairs = [
        (
            rng.integers(0, 256, (r, k), dtype=np.uint8),
            rng.integers(0, 256, (k, c), dtype=np.uint8),
        )
        for r, k, c in shapes
    ]
    want = [gf.matmul(a, b) for a, b in pairs]
    split = []
    matmul_tall = gf._matmul_tall
    monkeypatch.setattr(
        gf, "_matmul_tall", lambda a, b: split.append(a.shape) or matmul_tall(a, b)
    )
    tracer = tracing.Tracer()
    with tracer:
        with tracer.root(0):
            # the decoder reaches the kernel as gf.matmul through codec's gf
            got = [codec.gf.matmul(a, b) for a, b in pairs]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert split == [(r, k) for r, k, _ in shapes[3:]]
    summary = tracer.summary()
    assert summary["gf.matmul"]["calls"] == len(shapes)
    assert summary["gf.matmul.in." + tracing.ROOT]["calls"] == len(shapes)
    mults = sum(r * k * c for r, k, c in shapes)
    assert tracer.counters["gf.matmul.mults"] == mults


def test_tracer_counts_one_encode_per_batch(tracing):
    """Phase 1 encodes every batch through codec.encode_batch, once per
    batch, from the file's split tables: the traced span counts batches,
    and no encode reaches gf.matmul."""
    tracer = tracing.Tracer()
    with tracer:
        with tracer.root(0):
            report = sim.run_session(FAST, 3, num_batches=64, payload_len=4)
    assert all(slot >= 0 for slot in report.decode_slots)
    summary = tracer.summary()
    assert summary["codec.encode_batch"]["calls"] == 64
    assert summary["gf.matmul.in.codec.encode_batch"]["calls"] == 0


def test_traced_repair_battery_draws_no_descriptor(tracing, monkeypatch):
    """A repair battery (observe=[], a phase-2 budget, payload 0) encodes
    and decodes nothing, so it never reads the session's descriptors and
    draws none, and fires no batch through gf.row_reduce; ex3-repair's cost
    leaves them out. A session with decoders reads them through the same
    hook."""
    reads = []
    lazy = vars(sim.CodingSession)["descriptors"]
    monkeypatch.setattr(
        sim.CodingSession,
        "descriptors",
        property(lambda s: reads.append(s) or lazy.__get__(s, type(s))),
    )
    n = 64
    tracer = tracing.Tracer()
    with tracer:
        with tracer.root(0):
            sim.run_session(
                FAST, 3, num_batches=n, observe=[], phase2_budget=stopping_time(n, FAST)
            )
    assert reads == []
    summary = tracer.summary()
    assert summary["codec.encode_batch"]["calls"] == 0
    assert summary["gf.row_reduce"]["calls"] == 0
    sim.run_session(FAST, 3, num_batches=n, observe=[0])
    assert reads


def test_tracer_counts_one_load_per_decoder(tracing):
    """prepare_phase2 loads each observed user's decoder from the group's
    buffers in one load_state call, so the traced span counts decoders, not
    batches; phase 2 feeds each innovative row through add_row, and each
    firing batch eliminates its block through gf.row_reduce."""
    tracer = tracing.Tracer()
    with tracer:
        with tracer.root(0):
            report = sim.run_session(
                FAST, 3, num_batches=64, payload_len=4, observe=[0, 2]
            )
    summary = tracer.summary()
    assert summary["codec.IncrementalDecoder.load_state"]["calls"] == 2
    decoded = [report.decode_slots[u] for u in (0, 2)]
    assert all(slot > 0 for slot in decoded)
    assert summary["codec.IncrementalDecoder.add_row"]["calls"] > 0
    assert summary["gf.row_reduce"]["calls"] > 0


def test_capture_hook_sees_each_sessions_users():
    workloads = bench_module("workloads")
    make_users = sim.make_users
    with workloads.CaptureUsers() as capture:
        assert sim.make_users is not make_users
        sim.run_session(FAST, 3, num_batches=64, payload_len=4)
        seen = capture.take()
    assert sim.make_users is make_users
    assert seen.session is not None and seen.session.payload_len == 4
    assert [u.user_id for u in seen.users] == [0, 1, 2]
    assert all(u.decoder is not None and u.decoded for u in seen.users)
