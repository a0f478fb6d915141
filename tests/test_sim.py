"""Tests for the two-phase broadcast simulator."""

import ast
import re
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.stats import binom

from batchcast import codec, gf, sim
from batchcast.analytics import (
    NetworkParams,
    optimize_batches,
    redundancy,
    stopping_time,
)
from conftest import EX2, deliver, held, source_rows

FAST = NetworkParams(
    num_users=3,
    loss_common=0.05,
    loss_source=0.5,
    loss_peer=0.1,
    batch_size=8,
    file_packets=300,
)


def fast_plan():
    return optimize_batches(FAST)


# ---------------------------------------------------------------- channel


def _per_packet_mask(num_packets, k, params, rng):
    """Reference draws: shared loss, then k user draws unless lost."""
    mask = np.zeros((num_packets, k), dtype=bool)
    for i in range(num_packets):
        if rng.random() >= params.loss_common:
            mask[i] = rng.random(k) >= params.loss_source
    return mask


def test_broadcast_clear_channel():
    clear = NetworkParams(3, 0.0, 0.0, 0.0, 8, 300)
    assert sim.phase1_deliveries(50, 3, clear, np.random.default_rng(0)).all()


def test_broadcast_source_delivery_rates():
    # Per-user success is (1-p0)(1-p1); any-user success is (1-p0)(1-p1^k).
    mask = sim.phase1_deliveries(40_000, 3, FAST, np.random.default_rng(42))
    assert np.all(np.abs(mask.mean(axis=0) - 0.475) < 0.01)
    assert abs(mask.any(axis=1).mean() - 0.95 * (1 - 0.5 ** 3)) < 0.01


@pytest.mark.parametrize("k", [1, 3, 9])
@pytest.mark.parametrize("loss_common", [0.0, 0.05, 0.9])
def test_phase1_mask_equals_per_packet_draws(k, loss_common):
    params = NetworkParams(k, loss_common, 0.5, 0.1, 8, 300)
    # every packet reads at least one double; at loss_common 0 every packet
    # reads 1 + k, so the last one's draws end at the end of the one read
    n = 49_157
    bulk = sim.phase1_deliveries(n, k, params, np.random.default_rng(k))
    ref = _per_packet_mask(n, k, params, np.random.default_rng(k))
    assert np.array_equal(bulk, ref)
    assert sim.phase1_deliveries(0, k, params, np.random.default_rng(k)).shape == (0, k)


@pytest.mark.parametrize("k", [1, 3, 5, 9])
def test_block_draws_equal_per_transmission_draws(k):
    """Phase 2 reads its delivery doubles with one rng.random((count, k))
    call per window: row i of consecutive windows' draws is the doubles that
    one rng.random(k) call per transmission would read."""
    one_by_one = sim._substream(31, sim._PHASE2_TAG)
    windows = sim._substream(31, sim._PHASE2_TAG)
    drawn = np.concatenate([windows.random((17, k)), windows.random((23, k))])
    for i in range(40):
        assert np.array_equal(one_by_one.random(k), drawn[i])
    assert one_by_one.random() == windows.random()


@pytest.mark.xfail(
    reason="descriptor_rng(seed, bid) and _substream(seed, tag) both seed "
    "SeedSequence((seed, x)), so batches 1 to 5 draw their descriptors from "
    "the phase-1, phase-2, mix, access and single-phase streams; separating "
    "them changes every report digest",
    strict=True,
)
def test_descriptor_streams_differ_from_the_channel_substreams():
    seed = 7
    tags = [
        sim._FILE_TAG,
        sim._PHASE1_TAG,
        sim._PHASE2_TAG,
        sim._MIX_TAG,
        sim._ACCESS_TAG,
        sim._SINGLE_TAG,
    ]
    channel = [sim._substream(seed, tag).random(4).tolist() for tag in tags]
    for bid in range(1, 65):
        assert codec.descriptor_rng(seed, bid).random(4).tolist() not in channel


@pytest.mark.parametrize("k", [3, 5])
def test_phase2_deliveries_match_per_transmission_draws(k):
    """Over a budget of many windows, every traced delivery is the draw of
    one rng.random(k) call per transmission, with the sender left out."""
    params = NetworkParams(k, 0.05, 0.5, 0.3, 8, 300)
    budget = sim._DRAW_BLOCK // k + 40
    rep = sim.run_session(
        params, 13, num_batches=16, observe=[], with_trace=True, phase2_budget=budget
    )
    assert len(rep.trace) == budget
    ref = sim._substream(13, sim._PHASE2_TAG)
    for row in rep.trace:
        want = ref.random(k) >= params.loss_peer
        want[row[1]] = False
        assert list(row[3 : 3 + k]) == want.astype(int).tolist()


@pytest.mark.parametrize("rank", range(1, 17))
def test_block_words_equal_per_call_byte_draws(rank):
    """A uint8 draw of r bytes takes ceil(r / 4) words of the uint32 stream,
    low byte first, so words read in one block hold the same bytes, the
    draws that recode repeats for an all-zero mix included."""
    per_call = np.random.default_rng(rank)
    blocks = np.random.default_rng(rank)
    draws = 3000
    words = blocks.integers(0, 1 << 32, size=2 * draws * 4, dtype=np.uint32)
    data = words.astype("<u4").view(np.uint8)
    pos = redraws = 0
    for _ in range(draws):
        want = per_call.integers(0, 256, size=rank, dtype=np.uint8)
        assert np.array_equal(data[4 * pos : 4 * pos + rank], want)
        pos += -(-rank // 4)
        redraws += not want.any()
    if rank == 1:
        assert redraws > 0
    assert per_call.integers(1 << 32, dtype=np.uint32) == words[pos]


def test_mix_draws_equal_recode_draws():
    """sim._MixDraws hands out, window by window and across its block
    refills, the mixes that one recode draw per transmission makes."""
    m = 16
    ours = sim._MixDraws(sim._substream(8, sim._MIX_TAG), m)
    ref = sim._substream(8, sim._MIX_TAG)
    picks = np.random.default_rng(1)
    redraws = words = 0
    while words < 3 * sim._DRAW_BLOCK:
        size = int(picks.integers(1, 40))
        # rank 1 half the time, so all-zero first draws come up
        ranks = np.where(picks.random(size) < 0.5, 1, picks.integers(1, m + 1, size))
        mixes = ours.take(ranks)
        assert mixes.shape == (size, m) and mixes.dtype == np.uint8
        for mix, rank in zip(mixes, ranks.tolist()):
            want = ref.integers(0, 256, size=rank, dtype=np.uint8)
            while not want.any():
                redraws += 1
                want = ref.integers(0, 256, size=rank, dtype=np.uint8)
            assert np.array_equal(mix[:rank], want) and not mix[rank:].any()
            words += -(-rank // 4)
    assert redraws > 0


def test_phase1_matches_per_packet_absorb():
    """Counters, group counts and buffers equal absorbing packet by packet."""
    n = 40
    session = sim.new_session(FAST, 5, n, payload_len=4)
    users = sim.make_users(3, session)
    sim.run_phase1(session, users, FAST, sim._substream(5, 1))
    rng = sim._substream(5, 1)
    ref = sim.make_users(3, session)
    ref_gd = np.zeros(n, dtype=np.int64)
    for bid in range(1, n + 1):
        for p in source_rows(session.source_payloads([bid])):
            flags = _per_packet_mask(1, 3, FAST, rng)[0]
            for u, hit in zip(ref, flags):
                if not hit:
                    continue
                u.receptions += 1
                if deliver(u.buffers, bid, p, u.user_id):
                    u.innovative += 1
                else:
                    u.redundant += 1
            ref_gd[bid - 1] += flags.any()
    assert users[0].buffers.distinct[0] == 0
    assert np.array_equal(users[0].buffers.distinct[1:], ref_gd)
    for u, r in zip(users, ref):
        assert (u.receptions, u.innovative, u.redundant) == (
            r.receptions,
            r.innovative,
            r.redundant,
        )
        assert np.array_equal(u.batch_ranks(), r.batch_ranks())
        for bid in range(1, n + 1):
            i = u.user_id
            assert u.buffers.ranks[bid, i] == r.buffers.ranks[bid, i]
            assert np.array_equal(held(u.buffers, bid, i), held(r.buffers, bid, i))
            assert np.array_equal(u.buffers.ops[bid, i], r.buffers.ops[bid, i])


# ---------------------------------------------------------------- phase 1


def test_phase1_counts_and_profiles():
    n = 64
    session = sim.new_session(FAST, 5, n)
    users = sim.make_users(3, session)
    tx = sim.run_phase1(session, users, FAST, sim._substream(5, 1))
    gd = users[0].buffers.distinct[1:]
    assert tx == n * FAST.batch_size
    mean = tx * 0.475
    sd = np.sqrt(tx * 0.475 * 0.525)
    for u in users:
        assert abs(u.receptions - mean) < 5 * sd
        assert u.innovative + u.redundant == u.receptions
        assert u.innovative <= min(FAST.file_packets, tx)
        ranks = u.batch_ranks()
        assert ranks.shape == (n,)
        assert int(ranks.sum()) == u.innovative
        # no user can hold more of a batch than the group ever received
        assert np.all(ranks <= gd)
    assert len(session.descriptors) == n


def test_phase1_encodes_from_file_tables_freed_on_return(monkeypatch):
    """Phase 1 builds the file's split tables once, encodes every batch from
    them, and keeps nothing of them once it returns."""
    built = []

    class Tables(gf.SplitTables):
        def __init__(self, b):
            super().__init__(b)
            built.append(weakref.ref(self))

    monkeypatch.setattr(gf, "SplitTables", Tables)
    n = 12
    session = sim.new_session(FAST, 5, n, payload_len=4)
    users = sim.make_users(3, session)
    sim.run_phase1(session, users, FAST, sim._substream(5, 1))
    assert len(built) == 1 and built[0]() is None
    assert list(session.descriptors) == list(range(1, n + 1))


def test_descriptors_without_payloads_are_drawn_on_first_read():
    """Phase 1 at payload 0 encodes nothing, so it reads no descriptor; the
    first read draws each from its batch's stream, equal to the ones a
    coded session encodes from."""
    n = 12
    bare = sim.new_session(FAST, 5, n)
    sim.run_phase1(bare, sim.make_users(3, bare), FAST, sim._substream(5, 1))
    assert "descriptors" not in vars(bare)
    coded = sim.new_session(FAST, 5, n, payload_len=4)
    sim.run_phase1(coded, sim.make_users(3, coded), FAST, sim._substream(5, 1))
    assert list(bare.descriptors) == list(range(1, n + 1))
    assert bare.descriptors is bare.descriptors
    for bid in range(1, n + 1):
        a, b = bare.descriptors[bid], coded.descriptors[bid]
        assert np.array_equal(a.contribs, b.contribs)
        assert np.array_equal(a.gen_t, b.gen_t)


def test_phase1_encodes_the_descriptors_read_before_it(monkeypatch):
    """Descriptors are drawn once per session: the ones read before phase 1
    are the objects it encodes from, and still the session's after it."""
    n = 12
    session = sim.new_session(FAST, 5, n, payload_len=4)
    before = session.descriptors
    first = list(before.values())
    encoded = []
    encode = codec.encode_batch

    def recorded(file, desc):
        encoded.append(desc)
        return encode(file, desc)

    monkeypatch.setattr(codec, "encode_batch", recorded)
    users = sim.make_users(3, session)
    sim.run_phase1(session, users, FAST, sim._substream(5, 1))
    assert session.descriptors is before
    assert len(encoded) == n
    assert all(a is b for a, b in zip(encoded, first))
    assert all(a is b for a, b in zip(session.descriptors.values(), first))


def test_decoders_hold_the_sessions_descriptor_arrays():
    """Every decoder references its session's read-only descriptor arrays
    and its one read-only DecoderIndex: no decoder converts or copies a
    batch's contributors or generator, or builds its own index."""
    n = 24
    session = sim.new_session(FAST, 7, n, payload_len=4)
    users = sim.make_users(3, session)
    sim.run_phase1(session, users, FAST, sim._substream(7, 1))
    sim.prepare_phase2(session, users, FAST)
    index = session.decoder_index
    assert session.decoder_index is index
    for u in users:
        assert u.decoder.index is index
    for bid, desc in session.descriptors.items():
        i = index.pos[bid]
        assert index.contribs[i] is desc.contribs and index.gen_t[i] is desc.gen_t
    for name in ("starts", "slot_batch", "inc_slot", "inc_ptr"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(index, name)[0] = 0
    desc = session.descriptors[1]
    with pytest.raises(ValueError, match="read-only"):
        desc.contribs[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        desc.gen_t[0, 0] = 0


def test_phase1_group_distinct_matches_binomial_law():
    # Distinct packets the group retains per batch follow B(M, q) with
    # q = (1-p0)(1-p1^k): the packet must clear the shared draw and reach
    # at least one of the k users.
    n = 4000
    session = sim.new_session(FAST, 11, n)
    users = sim.make_users(3, session)
    sim.run_phase1(session, users, FAST, sim._substream(11, 1))
    gd = users[0].buffers.distinct[1:]
    q = 0.95 * (1 - 0.5 ** 3)
    emp = np.bincount(gd, minlength=9)[:9] / float(n)
    ref = binom.pmf(np.arange(9), 8, q)
    assert 0.5 * np.abs(emp - ref).sum() < 0.025


@pytest.mark.xfail(
    reason="the composed group-distinct law treats the shared draw as if it "
    "were independent per user, so peers can 'cover' packets the shared draw "
    "erased for everyone; physically the histogram sits TV~0.17 away (the "
    "binomial-law test above pins the real distribution)",
    strict=True,
)
def test_phase1_group_distinct_matches_composed_law():
    # composition: own receptions B(M, (1-p0)(1-p1)), then each missed
    # packet covered by some peer with probability 1-p1^(k-1)
    n = 20000
    m = FAST.batch_size
    session = sim.new_session(FAST, 11, n)
    users = sim.make_users(3, session)
    sim.run_phase1(session, users, FAST, sim._substream(11, 1))
    gd = users[0].buffers.distinct[1:]
    own = 0.95 * 0.5
    cover = 1 - 0.5 ** 2
    ref = np.zeros(m + 1)
    for i in range(m + 1):
        ref[i:] += binom.pmf(i, m, own) * binom.pmf(
            np.arange(m + 1 - i), m - i, cover
        )
    emp = np.bincount(gd, minlength=m + 1)[: m + 1] / float(n)
    # sampling noise at this n is ~0.005, far below the model gap
    assert 0.5 * np.abs(emp - ref).sum() <= 0.02


def test_phase2_redundancy_tracks_model_at_moderate_load():
    # run repair for exactly the modeled transmission budget; per-user
    # redundant receptions should land near the analytic estimate
    params = NetworkParams(
        num_users=3,
        loss_common=0.05,
        loss_source=0.5,
        loss_peer=0.1,
        batch_size=16,
        file_packets=1600,
    )
    n = 129
    budget = stopping_time(n, params)
    model = redundancy(budget, n, params)
    vals = []
    for seed in range(50):
        rep = sim.run_session(
            params, seed, num_batches=n, observe=[], phase2_budget=budget
        )
        vals.append(rep.redundant_total / params.num_users)
    emp = float(np.mean(vals))
    assert abs(emp - model) <= 0.15 * model


@pytest.mark.xfail(
    reason="at light repair load the analytic redundancy is a positive-part "
    "Gaussian of a near-zero mean and assumes uniform batch scheduling; the "
    "usefulness-ranked scheduler duplicates less, measured ~36% below the "
    "estimate (10.6 vs 16.6 packets per user)",
    strict=True,
)
def test_phase2_redundancy_tracks_model_at_light_load():
    params = NetworkParams(
        num_users=3,
        loss_common=0.05,
        loss_source=0.5,
        loss_peer=0.2,
        batch_size=16,
        file_packets=2083,
    )
    n = 211
    budget = stopping_time(n, params)
    model = redundancy(budget, n, params)
    vals = []
    for seed in range(12):
        rep = sim.run_session(
            params, seed, num_batches=n, observe=[], phase2_budget=budget
        )
        vals.append(rep.redundant_total / params.num_users)
    emp = float(np.mean(vals))
    assert abs(emp - model) <= 0.15 * model


def test_zero_batches_edge():
    with pytest.raises(ValueError):
        sim.new_session(FAST, 0, -1)
    # batch ids travel in a 2-byte header
    assert sim.new_session(FAST, 0, 65535).num_batches == 65535
    with pytest.raises(ValueError, match="num_batches=65536 exceeds the 65535"):
        sim.new_session(FAST, 0, 65536)
    session = sim.new_session(FAST, 0, 0)
    users = sim.make_users(2, session)
    tx = sim.run_phase1(session, users, FAST, sim._substream(0, 1))
    assert tx == 0
    assert users[0].receptions == 0
    assert users[0].batch_ranks().size == 0
    assert users[0].buffers.distinct.tolist() == [0]


# ---------------------------------------------------------------- phase 2


def test_full_session_report_invariants():
    rep = sim.run_session(FAST, 7, num_batches=64, with_trace=True)
    assert rep.phase1_tx == 64 * FAST.batch_size
    assert rep.total_tx == rep.phase1_tx + rep.phase2_tx
    assert rep.num_users == 3 and rep.num_batches == 64
    for uid in range(3):
        assert rep.decode_slots[uid] >= 0
        assert rep.innovative_at_decode[uid] >= FAST.file_packets
        assert rep.receptions[uid] == rep.innovative[uid] + rep.redundant[uid]
    assert rep.redundant_total == sum(rep.redundant)
    assert max(rep.decode_slots) <= rep.phase2_tx
    dist = rep.rank_distribution
    assert dist.shape == (FAST.batch_size + 1,)
    assert np.all(dist >= 0) and abs(dist.sum() - 1.0) < 1e-12
    # mean rank at decode accounts for the innovative packets held then
    mean_rank_total = float(np.dot(np.arange(9), dist)) * 64
    assert FAST.file_packets <= mean_rank_total <= 1.08 * FAST.file_packets


def test_phase1_sized_run_skips_phase2():
    n = fast_plan().n_max + 4
    rep = sim.run_session(FAST, 7, num_batches=n)
    assert rep.phase2_tx == 0
    assert rep.decode_slots == [0, 0, 0]
    assert all(v >= FAST.file_packets for v in rep.innovative_at_decode)


def test_trace_structure():
    rep = sim.run_session(FAST, 7, num_batches=64, with_trace=True)
    assert len(rep.trace) == rep.phase2_tx
    k = rep.num_users
    slots = [row[0] for row in rep.trace]
    assert slots == sorted(slots)
    for row in rep.trace:
        assert len(row) == 3 + 2 * k
        slot, sender, bid = row[0], row[1], row[2]
        assert sender == (slot - 1) % k  # round robin
        assert 1 <= bid <= rep.num_batches
        delivered = row[3 : 3 + k]
        assert all(f in (0, 1) for f in delivered)
        assert delivered[sender] == 0
    # cumulative innovative column never decreases per user
    innov = np.array([row[3 + k :] for row in rep.trace])
    assert np.all(np.diff(innov, axis=0) >= 0)


def test_trace_csv_format():
    rep = sim.run_session(FAST, 7, num_batches=64, with_trace=True)
    text = sim.trace_to_csv(rep)
    lines = text.splitlines()
    assert lines[0] == (
        "slot,sender,batch_id,"
        "delivered_u0,delivered_u1,delivered_u2,"
        "innovative_u0,innovative_u1,innovative_u2"
    )
    assert len(lines) == rep.phase2_tx + 1
    assert text.endswith("\n")
    assert all(len(ln.split(",")) == 9 for ln in lines[1:])
    no_trace = sim.run_session(FAST, 7, num_batches=64)
    assert sim.trace_to_csv(no_trace) == ""


def test_determinism_bit_identical():
    a = sim.run_session(FAST, 31, num_batches=64, with_trace=True)
    b = sim.run_session(FAST, 31, num_batches=64, with_trace=True)
    assert a.phase2_tx == b.phase2_tx
    assert a.decode_slots == b.decode_slots
    assert a.innovative == b.innovative
    assert a.redundant == b.redundant
    assert a.receptions == b.receptions
    assert np.array_equal(a.rank_distribution, b.rank_distribution)
    assert a.trace == b.trace
    c = sim.run_session(FAST, 32, num_batches=64, with_trace=True)
    assert (
        c.decode_slots != a.decode_slots
        or c.phase2_tx != a.phase2_tx
        or c.trace != a.trace
    )


@hst.composite
def small_sessions(draw):
    k = draw(hst.integers(2, 6))
    m = draw(hst.integers(2, 8))
    f = draw(hst.integers(1, 60))
    loss_source = draw(hst.floats(0.0, 0.7))
    params = NetworkParams(
        num_users=k,
        loss_common=draw(hst.floats(0.0, 0.3)),
        loss_source=loss_source,
        loss_peer=draw(hst.floats(0.0, loss_source)),
        batch_size=m,
        file_packets=f,
    )
    fewest = -(-f // m)
    return (
        params,
        draw(hst.integers(fewest, 3 * fewest + 1)),
        draw(hst.integers(0, 2**16)),
        draw(hst.sampled_from(["round_robin", "uniform"])),
        draw(hst.sampled_from([0, 3])),
    )


@settings(max_examples=60, deadline=None)
@given(small_sessions())
def test_small_sessions_are_deterministic_and_within_their_bounds(case):
    """Same seed, same report and trace (or the same stall); a user decodes
    only once it holds at least F innovative packets; no batch rank ever
    exceeds what the group received of that batch."""
    params, n, seed, access, payload_len = case
    phase2_ends = []
    run_phase2 = sim.run_phase2

    def keep_buffers(session, users, *args, **kwargs):
        try:
            return run_phase2(session, users, *args, **kwargs)
        finally:
            phase2_ends.append(users)

    outcomes = []
    with mock.patch.object(sim, "run_phase2", keep_buffers):
        for _ in range(2):
            try:
                rep = sim.run_session(
                    params, seed, n, payload_len, access=access, with_trace=True
                )
            except sim.SimulationStallError as exc:
                outcomes.append(("stall", str(exc)))
                continue
            text = repr(rep) + rep.rank_distribution.tobytes().hex()
            outcomes.append(("report", text))
            for slot, at_decode in zip(rep.decode_slots, rep.innovative_at_decode):
                assert slot < 0 or at_decode >= params.file_packets
    assert outcomes[0] == outcomes[1]
    assert len(phase2_ends) == 2
    for users in phase2_ends:
        group_distinct = users[0].buffers.distinct[1:]
        assert group_distinct.max(initial=0) <= params.batch_size
        for u in users:
            assert (u.batch_ranks() <= group_distinct).all()


def reference_next_send(u, states):
    """The batch a sender picks when slots are scheduled one at a time."""
    while u.queue_pos < u.queue.size:
        bid = int(u.queue[u.queue_pos])
        u.queue_pos += 1
        if states[bid].rank:
            return bid
    for _ in range(u.tail.size):
        bid = int(u.tail[u.tail_pos % u.tail.size])
        u.tail_pos += 1
        if states[bid].rank:
            return bid
    return None


def one_packet_states(buffers, receiver):
    """A receiver's buffers as BatchStates, by batch id, each fed that
    batch's rows one at a time in arrival order."""
    m = buffers.ops.shape[-1]
    states = {}
    for bid in range(1, buffers.ranks.shape[0]):
        states[bid] = codec.BatchState(bid, m, buffers.raw.shape[-1] - m)
        for row in held(buffers, bid, receiver):
            assert states[bid].absorb(row)
    return states


def reference_phase2(session, users, params, seed, uniform, group_distinct, until_tx):
    """Phase 2 one transmission at a time, from the same substreams, on
    one-packet BatchStates built from the users' phase-1 buffers: one
    codec.recode, k delivery doubles, one absorb per receiver. Returns the
    outcome, ("done", transmissions) or ("stall", slot), the trace and
    every user's BatchStates."""
    states = [one_packet_states(u.buffers, u.user_id) for u in users]
    rng = sim._substream(seed, sim._PHASE2_TAG)
    mix_rng = sim._substream(seed, sim._MIX_TAG)
    access_rng = sim._substream(seed, sim._ACCESS_TAG) if uniform else None
    k, m, f = len(users), session.batch_size, session.file_packets
    cap = 10 * session.num_batches * m
    if until_tx is not None:
        cap = max(cap, 2 * until_tx)
    watched = [u for u in users if u.decoder is not None]
    pending = sum(not u.decoded for u in watched)
    group_total = int(group_distinct.sum())
    saturated = sum(not u.decoded and u.innovative == group_total for u in watched)
    trace = []
    transmissions = slot = 0
    while pending or (until_tx is not None and transmissions < until_tx):
        if slot >= cap or 0 < pending == saturated:
            return ("stall", slot), trace, states
        if access_rng is None:
            sender = users[slot % k]
        else:
            sender = users[int(access_rng.integers(k))]
        slot += 1
        bid = reference_next_send(sender, states[sender.user_id])
        if bid is None:
            continue
        transmissions += 1
        full = codec.recode(states[sender.user_id][bid], mix_rng)
        delivered = rng.random(k) >= params.loss_peer
        delivered[sender.user_id] = False
        for u, hit in zip(users, delivered):
            if not hit:
                continue
            u.receptions += 1
            if not states[u.user_id][bid].absorb(full):
                u.redundant += 1
                continue
            u.innovative += 1
            if u.decoder is not None and not u.decoded:
                u.decoder.add_row(bid, full)
                if u.innovative >= f and u.decoder.attempt():
                    u.decoded, u.decode_slot = True, transmissions
                    u.innovative_at_decode = u.innovative
                    pending -= 1
                elif u.innovative == group_total:
                    saturated += 1
        trace.append(
            (slot, sender.user_id, bid)
            + tuple(int(d) for d in delivered)
            + tuple(u.innovative for u in users)
        )
    return ("done", transmissions), trace, states


def prepared_group(params, n, seed, payload_len, observe, mute):
    """A session after phase 1 and prepare_phase2; user 0 receives nothing
    in phase 1 when mute, so its first slots pass empty."""
    k, m = params.num_users, params.batch_size
    session = sim.new_session(params, seed, n, payload_len)
    users = sim.make_users(k, session)
    mask = sim.phase1_deliveries(
        n * m, k, params, sim._substream(seed, sim._PHASE1_TAG)
    )
    if mute:
        mask[:, 0] = False
    payloads = None
    if payload_len:
        payloads = session.source_payloads(range(1, n + 1))
    users[0].buffers.load_sources(mask, payloads)
    for u, count in zip(users, mask.sum(axis=0).tolist()):
        u.receptions = u.innovative = count
    # the reference counts the group's distinct packets on its own
    group_distinct = mask.any(axis=1).reshape(n, m).sum(axis=1)
    assert np.array_equal(users[0].buffers.distinct[1:], group_distinct)
    sim.prepare_phase2(session, users, params, observe)
    return session, users, group_distinct


@hst.composite
def phase2_cases(draw):
    k = draw(hst.integers(2, 6))
    m = draw(hst.sampled_from([2, 4]))
    f = draw(hst.integers(1, 24))
    loss_source = draw(hst.floats(0.0, 0.7))
    params = NetworkParams(
        num_users=k,
        loss_common=draw(hst.floats(0.0, 0.3)),
        loss_source=loss_source,
        loss_peer=draw(hst.floats(0.0, loss_source)),
        batch_size=m,
        file_packets=f,
    )
    fewest = -(-f // m)
    observe = draw(hst.sampled_from([None, [0], [k - 1], []]))
    budget = hst.integers(1, 60)
    return (
        params,
        draw(hst.integers(fewest, 2 * fewest + 1)),
        draw(hst.integers(0, 2**16)),
        draw(hst.booleans()),
        draw(hst.sampled_from([0, 2])),
        observe,
        draw(budget if observe == [] else hst.none() | budget),
        draw(hst.booleans()),
    )


@settings(max_examples=150, deadline=None)
@given(phase2_cases())
def test_windowed_phase2_equals_one_transmission_at_a_time(case):
    """run_phase2's windows leave the counters, decode slots, queue
    positions, buffers and trace, or the stall slot, exactly as a loop of
    one transmission per step does."""
    params, n, seed, uniform, payload_len, observe, budget, mute = case
    session, users, _ = prepared_group(params, n, seed, payload_len, observe, mute)
    trace = []
    try:
        sent = sim.run_phase2(
            session,
            users,
            params,
            sim._substream(seed, sim._PHASE2_TAG),
            sim._substream(seed, sim._MIX_TAG),
            access_rng=sim._substream(seed, sim._ACCESS_TAG) if uniform else None,
            trace=trace,
            until_tx=budget,
        )
        outcome = ("done", sent)
    except sim.SimulationStallError as exc:
        outcome = ("stall", int(re.search(r"passed (\d+) slots", str(exc)).group(1)))
    session, ref, ref_gd = prepared_group(params, n, seed, payload_len, observe, mute)
    want, want_trace, states = reference_phase2(
        session, ref, params, seed, uniform, ref_gd, budget
    )
    assert (outcome, trace) == (want, want_trace)
    fields = (
        "receptions",
        "innovative",
        "redundant",
        "decoded",
        "decode_slot",
        "innovative_at_decode",
        "queue_pos",
        "tail_pos",
    )
    for u, r in zip(users, ref):
        assert [getattr(u, a) for a in fields] == [getattr(r, a) for a in fields]
    ours = users[0].buffers
    for i, theirs in enumerate(states):
        assert ours.ranks[1:, i].tolist() == [st.rank for st in theirs.values()]
        for bid, st in theirs.items():
            assert np.array_equal(ours.raw[bid, i], st.buffers.raw[0, 0])
            assert np.array_equal(ours.ops[bid, i], st.buffers.ops[0, 0])


class DenseRank:
    """Rank of rows over GF(256), one row at a time: an echelon basis with
    row p scaled to 1 at its leading column p."""

    def __init__(self):
        self.basis = {}

    def add(self, row: np.ndarray) -> None:
        row = row.copy()
        for p in sorted(self.basis):
            if row[p]:
                row ^= gf.MUL_TABLE[row[p]].take(self.basis[p])
        nz = np.flatnonzero(row)
        if nz.size:
            self.basis[int(nz[0])] = gf.MUL_TABLE[gf.inv(int(row[nz[0]]))].take(row)

    @property
    def rank(self) -> int:
        return len(self.basis)


def expanded(session, bid, coeff):
    """A buffered row's coefficients over the whole file."""
    desc = session.descriptors[bid]
    wide = np.zeros(session.file_packets, dtype=np.uint8)
    prods = gf.MUL_TABLE[coeff[:, None], desc.gen_t]
    wide[desc.contribs] = np.bitwise_xor.reduce(prods, axis=0)
    return wide


def oracle_sessions():
    """Small sessions: F <= 64, M in {2, 4}, both access modes, observed
    users only, some sized too small to decode."""
    rng = np.random.default_rng(2024)
    for seed in range(64):
        m = int(rng.choice([2, 4]))
        f = int(rng.integers(8, 65))
        loss_source = float(rng.uniform(0.1, 0.6))
        params = NetworkParams(
            num_users=int(rng.integers(2, 5)),
            loss_common=float(rng.uniform(0.0, 0.2)),
            loss_source=loss_source,
            loss_peer=float(rng.uniform(0.0, loss_source)),
            batch_size=m,
            file_packets=f,
        )
        fewest = -(-f // m)
        n = int(rng.integers(fewest, 3 * fewest // 2 + 2))
        access = ("round_robin", "uniform")[seed % 2]
        yield params, n, seed, access, 2 * (seed % 3 == 0)


def test_decode_slots_and_stalls_match_the_dense_rank():
    """Each decoder is exact over a whole session. A user's receptions are
    rebuilt in order from the trace and the buffers' raw rows (kept in
    arrival order), expanded over the file, and their stacked rank tracked
    by dense elimination: each decode slot is the first transmission at
    which that rank reaches F (0 for phase 1), and on a stall every pending
    user reports F minus that rank as unresolved, also a user below F
    innovative packets, whose decoder never attempted before the stall."""
    seen = []
    run_phase2 = sim.run_phase2

    def keep(session, users, *args, **kwargs):
        seen.append((session, users, [u.innovative for u in users], kwargs["trace"]))
        return run_phase2(session, users, *args, **kwargs)

    decoded = {"phase1": 0, "phase2": 0}
    stalled = 0
    with mock.patch.object(sim, "run_phase2", keep):
        for params, n, seed, access, payload_len in oracle_sessions():
            f, k = params.file_packets, params.num_users
            try:
                rep = sim.run_session(
                    params, seed, n, payload_len, access=access, with_trace=True
                )
            except sim.SimulationStallError as exc:
                rep = None
                pending = re.search(r"pending: (\[.*\]); the group", str(exc))
                stuck = ast.literal_eval(pending.group(1))
            session, users, start, trace = seen[-1]
            buffers = users[0].buffers
            # phase-2 gains per user, in transmission order
            held = np.array([start] + [row[3 + k :] for row in trace])
            gains = np.diff(held, axis=0) > 0
            later = np.zeros(buffers.ranks.shape, dtype=np.int64)
            for row, gain in zip(trace, gains):
                later[row[2]] += gain
            for u in range(k):
                dense = DenseRank()
                nxt = buffers.ranks[:, u] - later[:, u]
                for bid in range(1, n + 1):
                    for coeff in buffers.raw[bid, u, : nxt[bid], : params.batch_size]:
                        dense.add(expanded(session, bid, coeff))
                first = 0 if dense.rank == f else -1
                for t, (row, gain) in enumerate(zip(trace, gains[:, u]), start=1):
                    if gain:
                        bid = row[2]
                        coeff = buffers.raw[bid, u, nxt[bid], : params.batch_size]
                        nxt[bid] += 1
                        dense.add(expanded(session, bid, coeff))
                        if first < 0 and dense.rank == f:
                            first = t
                assert (nxt == buffers.ranks[:, u]).all()
                if rep is not None:
                    assert rep.decode_slots[u] == first, (seed, u)
                    decoded["phase1" if first == 0 else "phase2"] += 1
                    continue
                assert first < 0
                for uid, innovative, unresolved in stuck:
                    if uid == u:
                        assert unresolved == f - dense.rank, (seed, u)
                        stalled += 1
    assert decoded["phase1"] >= 20 and decoded["phase2"] >= 60 and stalled >= 10


def test_observe_subset_matches_full_run():
    full = sim.run_session(FAST, 7, num_batches=64)
    one = sim.run_session(FAST, 7, num_batches=64, observe=[0])
    assert one.decode_slots[0] == full.decode_slots[0]
    assert one.decode_slots[1] == -1 and one.decode_slots[2] == -1
    assert one.phase2_tx <= full.phase2_tx
    assert one.innovative_at_decode[0] == full.innovative_at_decode[0]


def test_phase2_budget_is_a_floor_while_an_observed_user_pends():
    """A budget below the decode point runs on until the observed user
    decodes; with no observed user the budget is exact."""
    for budget in (1, 10, 50):
        rep = sim.run_session(FAST, 7, 64, observe=[0], phase2_budget=budget)
        assert (rep.phase2_tx, rep.decode_slots[0]) == (98, 98)
    rep = sim.run_session(FAST, 7, 64, observe=[], phase2_budget=10)
    assert rep.phase2_tx == 10 and rep.decode_slots == [-1, -1, -1]


@pytest.mark.parametrize(
    "params, n, payload_len",
    [(FAST, 64, 12), (EX2, 152, 64)],
    ids=["fast", "ex2"],
)
def test_payload_bytes_survive_the_protocol(params, n, payload_len):
    session = sim.new_session(params, 13, n, payload_len=payload_len)
    users = sim.make_users(params.num_users, session)
    sim.run_phase1(session, users, params, sim._substream(13, 1))
    sim.prepare_phase2(session, users, params)
    sim.run_phase2(session, users, params, sim._substream(13, 2), sim._substream(13, 3))
    for u in users:
        assert u.decoded
        got = u.decoder.extract()
        assert np.array_equal(got, session.file)


def test_uniform_access_mode():
    rep = sim.run_session(FAST, 9, num_batches=64, access="uniform")
    assert all(s >= 0 for s in rep.decode_slots)


def test_unknown_access_is_rejected():
    # a misspelt policy must not silently run another one
    with pytest.raises(ValueError, match="'roundrobin'"):
        sim.run_session(FAST, 9, num_batches=64, access="roundrobin")


@pytest.mark.parametrize("observe", [[3], [0, -1]])
def test_observe_outside_the_group_is_rejected(observe):
    # dropping unknown ids would report a run without decoders as finished
    with pytest.raises(ValueError, match=r"outside range\(3\)"):
        sim.run_session(FAST, 7, num_batches=64, observe=observe)


def test_phase2_requires_prepared_queues():
    session = sim.new_session(FAST, 9, 8)
    users = sim.make_users(3, session)
    with pytest.raises(ValueError):
        sim.run_phase2(session, users, FAST, sim._substream(9, 2), sim._substream(9, 3))


def test_stall_guard_fires_on_undersized_plan():
    # 20 batches of 8 can never reach rank 300, so phase 2 must stall
    # at its slot cap instead of spinning forever.
    with pytest.raises(sim.SimulationStallError) as err:
        sim.run_session(FAST, 3, num_batches=20)
    assert "pending" in str(err.value)


def test_phase2_stalls_once_no_pending_user_can_gain():
    # Once every pending user holds all the packets the group received, no
    # packet is innovative again and nobody can decode: phase 2 must stop
    # there rather than spend its whole 1600-slot cap.
    n = 20
    session = sim.new_session(FAST, 3, n)
    users = sim.make_users(3, session)
    sim.run_phase1(session, users, FAST, sim._substream(3, 1))
    sim.prepare_phase2(session, users, FAST)
    trace = []
    with pytest.raises(sim.SimulationStallError, match="pending"):
        sim.run_phase2(
            session,
            users,
            FAST,
            sim._substream(3, 2),
            sim._substream(3, 3),
            trace=trace,
        )
    assert all(u.innovative == users[0].buffers.distinct.sum() for u in users)
    assert trace[-1][0] < 1600 // 4


def test_group_bound_violation_is_detected():
    session = sim.new_session(FAST, 1, 2)
    users = sim.make_users(2, session)
    buffers = users[0].buffers
    for p in source_rows(session.source_payloads([1]))[:3]:
        assert deliver(buffers, 1, p, 1)
    for p in source_rows(session.source_payloads([2]))[:2]:
        assert deliver(buffers, 2, p, 0)
    bids = np.arange(1, 3)
    buffers.distinct[1:] = [3, 2]
    sim._check_group_bound(buffers, bids)
    buffers.distinct[1:] = [2, 1]
    # batches outer, users inner, as a window's receptions happen
    whole = "^user 1 holds rank 3 for batch 1 but the group only ever received 2 "
    with pytest.raises(RuntimeError, match=whole + "distinct packets$"):
        sim._check_group_bound(buffers, bids)


def test_phase2_raises_when_a_rank_passes_the_group_bound():
    """With group counts set to the highest rank any user holds after
    phase 1, phase 2 stops at the first reception that raises one past it."""
    n = 40
    session = sim.new_session(FAST, 5, n)
    users = sim.make_users(3, session)
    sim.run_phase1(session, users, FAST, sim._substream(5, 1))
    sim.prepare_phase2(session, users, FAST, observe=[])
    ranks = users[0].buffers.ranks
    low = ranks[1:].max(axis=1)
    users[0].buffers.distinct[1:] = low
    with pytest.raises(RuntimeError, match="group only ever received") as err:
        sim.run_phase2(
            session,
            users,
            FAST,
            sim._substream(5, 2),
            sim._substream(5, 3),
            until_tx=500,
        )
    assert not isinstance(err.value, sim.SimulationStallError)
    uid, rank, bid, bound = map(int, re.findall(r"\d+", str(err.value)))
    assert rank == ranks[bid, uid] == bound + 1 == low[bid - 1] + 1


# ---------------------------------------------------------- baselines


def test_single_phase_matches_negative_binomial_mean():
    p = NetworkParams(
        num_users=1,
        loss_common=0.0,
        loss_source=0.5,
        loss_peer=0.1,
        batch_size=8,
        file_packets=300,
    )
    vals = [sim.run_single_phase(p, s) for s in range(12)]
    # one user needs ceil(1.01*300)=303 receptions at rate 0.5
    assert abs(np.mean(vals) - 606.0) < 30.0
    assert min(vals) >= 303


def test_single_phase_worsens_with_loss():
    base = NetworkParams(
        num_users=3,
        loss_common=0.05,
        loss_source=0.5,
        loss_peer=0.1,
        batch_size=8,
        file_packets=300,
    )
    worse = NetworkParams(
        num_users=3,
        loss_common=0.05,
        loss_source=0.75,
        loss_peer=0.1,
        batch_size=8,
        file_packets=300,
    )
    a = np.mean([sim.run_single_phase(base, s) for s in range(6)])
    b = np.mean([sim.run_single_phase(worse, s) for s in range(6)])
    assert b > a * 1.5


def test_single_phase_determinism():
    p = NetworkParams(
        num_users=2,
        loss_common=0.0,
        loss_source=0.5,
        loss_peer=0.1,
        batch_size=8,
        file_packets=300,
    )
    assert sim.run_single_phase(p, 4) == sim.run_single_phase(p, 4)


# --------------------------------------------------------- robustness


def test_robustness_identity_when_group_matches_design():
    plan = fast_plan()
    via_robust = sim.run_robustness(FAST, FAST.num_users, 21)
    direct = sim.run_session(FAST, 21, num_batches=plan.n_opt)
    assert via_robust.phase2_tx == direct.phase2_tx
    assert via_robust.decode_slots == direct.decode_slots
    assert via_robust.innovative == direct.innovative


def test_robustness_larger_group_still_decodes():
    rep = sim.run_robustness(FAST, 6, 21)
    assert rep.num_users == 6
    assert rep.phase1_tx == fast_plan().n_opt * FAST.batch_size
    assert all(s >= 0 for s in rep.decode_slots)
    with pytest.raises(ValueError):
        sim.run_robustness(FAST, 2, 21)


# ------------------------------------------------------------- session


def test_session_defaults_to_planned_batch_count():
    rep = sim.run_session(FAST, 17)
    assert rep.num_batches == fast_plan().n_opt
    assert rep.phase1_tx == rep.num_batches * FAST.batch_size


def test_session_payload_roundtrip_through_report_path():
    # payload bytes do not change transmission counts or decode instants
    bare = sim.run_session(FAST, 23, num_batches=64)
    with_bytes = sim.run_session(FAST, 23, num_batches=64, payload_len=8)
    assert bare.phase2_tx == with_bytes.phase2_tx
    assert bare.decode_slots == with_bytes.decode_slots

    session = sim.new_session(FAST, 23, 64, payload_len=8)
    assert session.file.shape == (300, 8)
    other = sim.new_session(FAST, 24, 64, payload_len=8)
    assert not np.array_equal(session.file, other.file)
