"""Tests for the batch code: encoding, buffering, recoding, decoding.

The decoder is checked against a dense full-system elimination oracle on two
hundred small random instances; its unresolved count must equal the exact
global rank deficit every time, and recovered bytes must match the source
file whenever the rank is full. Round-trip, determinism, and the symbolic
back-substitution regression are pinned separately.
"""

import copy
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from batchcast import codec, gf
from conftest import (
    batch_state,
    deliver,
    encoded,
    held,
    make_decoder,
    recoded,
    source_rows,
)


def make_file(rng, file_packets: int, payload_len: int) -> np.ndarray:
    return rng.integers(0, 256, (file_packets, payload_len), dtype=np.uint8)


def build_session(file, dist, num_batches, batch_size, seed):
    """Source-side descriptors and each batch's source rows [e_j | payload]."""
    descriptors, batch_packets = {}, {}
    tables = gf.SplitTables(file)
    for bid in range(1, num_batches + 1):
        desc, payloads = encoded(tables, dist, bid, seed, batch_size)
        descriptors[bid] = desc
        batch_packets[bid] = source_rows(payloads)
    return descriptors, batch_packets


def coeffs(buffers, bid=0, receiver=0):
    """The coefficients of the rows receiver holds of batch bid; a
    BatchState's are coeffs(state.buffers)."""
    return held(buffers, bid, receiver)[:, : buffers.ops.shape[-1]]


def basis(buffers, bid=0, receiver=0):
    """The reduced row echelon basis B = ops ^ I of one buffer."""
    ops = buffers.ops[bid, receiver]
    return ops ^ np.eye(len(ops), dtype=np.uint8)


def received_sources(batch_packets, rng=None, p=1.0):
    """One-receiver buffers that got each source row of batch_packets with
    probability p, one rng.random() per row; every row without rng."""
    m, width = next(iter(batch_packets.values())).shape
    got = codec.BatchBuffers(len(batch_packets), 1, m, width - m)
    for bid, rows in batch_packets.items():
        for row in rows:
            if rng is None or rng.random() < p:
                deliver(got, bid, row)
    return got


def holding(like, rows):
    """One-receiver buffers shaped like like that hold rows[bid], in order,
    for each batch bid in rows; every row must raise the rank."""
    m = like.ops.shape[-1]
    part = codec.BatchBuffers(like.ranks.shape[0] - 1, 1, m, like.raw.shape[-1] - m)
    for bid, block in rows.items():
        for row in block:
            assert deliver(part, bid, row)
    return part


def global_rank(buffers, descriptors, file_packets, receiver=0):
    """Rank of every row receiver holds, expanded over the whole file."""
    rows = []
    for bid, desc in descriptors.items():
        if buffers.ranks[bid, receiver] == 0:
            continue
        expanded = gf.matmul(coeffs(buffers, bid, receiver), desc.gen_t)
        for r in expanded:
            wide = np.zeros(file_packets, dtype=np.uint8)
            wide[desc.contribs] = r
            rows.append(wide)
    if not rows:
        return 0
    return gf.rank(np.array(rows, dtype=np.uint8))


# -------------------------------------------------------- degree distribution


def test_distribution_validation():
    with pytest.raises(ValueError):
        codec.DegreeDistribution([0.45, 0.45])  # sums to 0.9
    with pytest.raises(ValueError):
        codec.DegreeDistribution([1.2, -0.2])
    with pytest.raises(ValueError):
        codec.DegreeDistribution([])
    # abs(nan - 1) > 1e-9 is False: the sum check alone lets NaN through
    for weights in ([np.nan, 1.0], [np.inf, 1.0], [0.5, 0.5, np.nan]):
        with pytest.raises(ValueError, match="finite"):
            codec.DegreeDistribution(weights)
    d = codec.DegreeDistribution([0.0, 1.0])
    assert d.max_degree == 2


def test_point_mass_sampling():
    d = codec.DegreeDistribution([0.0, 0.0, 1.0])
    rng = np.random.default_rng(1)
    draws = [d.sample(rng) for _ in range(1000)]
    assert set(draws) == {3}


def test_sampler_matches_probabilities():
    d = codec.DegreeDistribution([0.5, 0.5])
    rng = np.random.default_rng(2)
    draws = np.array([d.sample(rng) for _ in range(100_000)])
    frac_one = np.mean(draws == 1)
    assert frac_one == pytest.approx(0.5, abs=0.01)
    assert set(np.unique(draws)) == {1, 2}


@pytest.mark.parametrize("law", ["ex2", "ex3", "file"])
def test_sampler_draws_equal_generator_choice(law, tmp_path):
    if law == "ex2":
        dist = codec.design_distribution(1600, 152, 16)
    elif law == "ex3":
        dist = codec.design_distribution(5000, 402, 16)
    else:
        path = tmp_path / "psi.txt"
        path.write_text("1 0.1\n3 0.2\n7 0.3\n12 0.4\n")
        dist = codec.DegreeDistribution.from_file(str(path))
    support = np.nonzero(dist.psi)[0]
    degrees = support + 1
    probs = dist.psi[support] / dist.psi[support].sum()
    ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(10_000):
        assert dist.sample(ours) == theirs.choice(degrees, p=probs)


def test_distribution_file_roundtrip(tmp_path):
    psi = np.zeros(9)
    psi[0], psi[3], psi[8] = 0.2, 0.5, 0.3
    d = codec.DegreeDistribution(psi)
    path = str(tmp_path / "psi.txt")
    d.to_file(path)
    d2 = codec.DegreeDistribution.from_file(path)
    assert d2.max_degree == 9
    assert np.allclose(d2.psi, d.psi)


def test_distribution_file_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 0.5 extra\n")
    with pytest.raises(ValueError):
        codec.DegreeDistribution.from_file(str(bad))
    zero = tmp_path / "zero.txt"
    zero.write_text("0 1.0\n")
    with pytest.raises(ValueError):
        codec.DegreeDistribution.from_file(str(zero))
    empty = tmp_path / "empty.txt"
    empty.write_text("# only a comment\n\n")
    with pytest.raises(ValueError):
        codec.DegreeDistribution.from_file(str(empty))


def test_distribution_file_skips_comments(tmp_path):
    path = tmp_path / "psi.txt"
    path.write_text("# header\n\n2 0.25\n4 0.75\n")
    d = codec.DegreeDistribution.from_file(str(path))
    assert d.max_degree == 4
    assert d.psi[1] == pytest.approx(0.25)


def test_design_distribution_shape():
    d = codec.design_distribution(1600, 160, 16)
    assert d.psi.sum() == pytest.approx(1.0)
    assert d.max_degree == 1600
    support = np.nonzero(d.psi)[0] + 1
    # no degree below the cascade anchor, full-mix tier present
    assert support[0] >= 4
    assert d.psi[-1] > 0.01


def test_design_distribution_point_mass_for_tiny_files():
    d = codec.design_distribution(10, 5, 16)
    assert d.psi[9] == pytest.approx(1.0)
    rng = np.random.default_rng(3)
    assert d.sample(rng) == 10


def test_design_distribution_anchor_tracks_expected_rank():
    # expected ranks 1.01 * F / n of 5.0 and 12.6
    lo_rank = codec.design_distribution(2000, 404, 16)
    hi_rank = codec.design_distribution(2000, 160, 16)
    lo_support = np.nonzero(lo_rank.psi)[0][0] + 1
    hi_support = np.nonzero(hi_rank.psi)[0][0] + 1
    assert lo_support == 7
    assert hi_support == 15
    with pytest.raises(ValueError):
        codec.design_distribution(0, 4, 16)


# ----------------------------------------------------------------- descriptor


def test_descriptor_stream_is_deterministic():
    dist = codec.design_distribution(500, 50, 16)
    a = codec.make_descriptor(500, dist, codec.descriptor_rng(99, 7), 16)
    b = codec.make_descriptor(500, dist, codec.descriptor_rng(99, 7), 16)
    assert np.array_equal(a.contribs, b.contribs)
    assert np.array_equal(a.gen_t, b.gen_t)
    c = codec.make_descriptor(500, dist, codec.descriptor_rng(99, 8), 16)
    assert not (
        a.contribs.size == c.contribs.size and np.array_equal(a.contribs, c.contribs)
    )


def test_descriptor_contributors_valid():
    dist = codec.design_distribution(300, 30, 16)
    for bid in range(1, 40):
        desc = codec.make_descriptor(300, dist, codec.descriptor_rng(5, bid), 16)
        ids = desc.contribs
        assert ids.dtype == np.int64
        assert ids.min() >= 0 and ids.max() < 300
        assert len(set(ids.tolist())) == ids.size
        assert desc.gen_t.shape == (16, ids.size)
        assert desc.gen_t.flags.c_contiguous


def test_descriptor_shape_validation():
    with pytest.raises(ValueError):
        codec.BatchDescriptor(np.array([0, 1]), np.zeros((4, 3), dtype=np.uint8))


def test_descriptor_arrays_are_read_only():
    """Decoders hold a descriptor's arrays by reference, so neither can be
    written; the arrays a descriptor is built from stay writable."""
    contribs, gen_t = np.array([4, 0]), np.ones((3, 2), dtype=np.uint8)
    desc = codec.BatchDescriptor(contribs, gen_t)
    drawn = codec.make_descriptor(
        50, codec.design_distribution(50, 10, 4), codec.descriptor_rng(1, 1), 4
    )
    for d in (desc, drawn):
        with pytest.raises(ValueError, match="read-only"):
            d.contribs[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            d.gen_t[0, 0] = 1
    contribs[0] = 3
    gen_t[0, 0] = 2


# ------------------------------------------------------------------- encoding


def test_encode_batch_payload_algebra():
    rng = np.random.default_rng(11)
    file = make_file(rng, 50, 5)
    dist = codec.DegreeDistribution([0.0, 0.0, 1.0])  # degree 3
    desc, payloads = encoded(gf.SplitTables(file), dist, 1, 4, 4)
    assert desc.contribs.size == 3 and payloads.shape == (4, 5)
    for j, payload in enumerate(payloads):
        expect = np.zeros(5, dtype=np.uint8)
        for i, pkt in enumerate(desc.contribs):
            expect ^= gf.mul(int(desc.gen_t[j, i]), file[pkt])
        assert np.array_equal(payload, expect)


def test_encode_degree_one_is_scalar_multiple():
    rng = np.random.default_rng(12)
    file = make_file(rng, 20, 8)
    dist = codec.DegreeDistribution([1.0])
    desc, payloads = encoded(gf.SplitTables(file), dist, 3, 8, 4)
    src = file[desc.contribs[0]]
    for j, payload in enumerate(payloads):
        assert np.array_equal(payload, gf.mul(int(desc.gen_t[j, 0]), src))


@pytest.mark.parametrize("payload_len", [1, 7, 64])
def test_encode_from_file_tables_matches_matmul(payload_len):
    """encode_batch multiplies through the split tables of the whole file;
    its payloads equal gf.matmul(gen_t, file[contribs]) from
    degree 1 to degree F. At L = 64 a degree-F batch's contributors span
    several k-chunks of the table product."""
    rng = np.random.default_rng(payload_len)
    f, m = 1100, 16
    file = make_file(rng, f, payload_len)
    tables = gf.SplitTables(file)
    for degree in (1, 2, 37, f):
        psi = np.zeros(degree)
        psi[-1] = 1.0
        desc, payloads = encoded(tables, codec.DegreeDistribution(psi), 1, degree, m)
        assert desc.contribs.size == degree
        want = gf.matmul(desc.gen_t, file[desc.contribs])
        assert payloads.shape == (m, payload_len) and payloads.flags.c_contiguous
        assert np.array_equal(payloads, want)
    assert payload_len < 64 or gf._split_step(m, 8) < f


def test_encode_without_payload_builds_no_tables():
    """A file of L = 0 has no multiples to tabulate; its batches still get
    (M, 0) payloads."""
    file = np.zeros((50, 0), dtype=np.uint8)
    tables = gf.SplitTables(file)
    assert tables._t is None
    _, payloads = encoded(tables, codec.design_distribution(50, 10, 4), 2, 6, 4)
    assert payloads.shape == (4, 0)


# ---------------------------------------------------------------- batch state


def test_absorb_filters_duplicates_and_caps_rank():
    rng = np.random.default_rng(21)
    file = make_file(rng, 100, 6)
    dist = codec.design_distribution(100, 10, 4)
    desc, payloads = encoded(gf.SplitTables(file), dist, 1, 2, 4)
    pkts = source_rows(payloads)
    st = codec.BatchState(1, 4, 6)
    assert st.absorb(pkts[0]) is True
    assert st.absorb(pkts[0]) is False
    for p in pkts[1:]:
        st.absorb(p)
    assert st.rank == 4
    # rank is full; nothing further can be innovative
    mixed = codec.recode(st, rng)
    assert st.absorb(mixed) is False
    assert st.rank == 4


def test_absorb_rejects_malformed_rows():
    """A row is [coeff | payload], M + L wide; it carries no batch id."""
    st = codec.BatchState(2, 4, 3)
    for bad in (np.ones(8, np.uint8), np.ones(6, np.uint8), np.ones((1, 7), np.uint8)):
        with pytest.raises(ValueError):
            st.absorb(bad)
    assert st.rank == 0 and not st.buffers.raw.any()
    zero = np.zeros(7, np.uint8)
    assert st.absorb(zero) is False


def test_absorb_rank_matches_dense_elimination():
    """Innovation filtering agrees with true rank over random mixes."""
    rng = np.random.default_rng(22)
    for trial in range(200):
        m = int(rng.integers(2, 9))
        st = codec.BatchState(1, m, 2)
        for _ in range(int(rng.integers(1, 3 * m))):
            if rng.random() < 0.5:
                coeff = np.zeros(m, dtype=np.uint8)
                coeff[rng.integers(m)] = rng.integers(1, 256)
            else:
                coeff = rng.integers(0, 256, m, dtype=np.uint8)
            st.absorb(np.concatenate([coeff, rng.integers(0, 256, 2, dtype=np.uint8)]))
        assert st.rank == gf.rank(coeffs(st.buffers))


def assert_reduced_basis(buffers, bid=0, receiver=0):
    """A buffer's basis is the RREF of its received rows, row p holding
    pivot p."""
    red, pivots = gf.row_reduce(coeffs(buffers, bid, receiver))
    rank = buffers.ranks[bid, receiver]
    got = basis(buffers, bid, receiver)
    assert len(pivots) == rank
    assert np.array_equal(got[list(pivots)], red[:rank])
    others = np.setdiff1d(np.arange(len(got)), pivots)
    assert not got[others].any()


@hst.composite
def absorb_sequences(draw):
    m = draw(hst.sampled_from([1, 4, 16]))
    loaded = draw(hst.lists(hst.integers(0, m - 1), unique=True, max_size=m))
    steps = draw(
        hst.lists(
            hst.tuples(
                hst.sampled_from(["one-hot", "multiple", "recode", "dense"]),
                hst.integers(0, m - 1),
                hst.integers(1, 255),
                hst.integers(0, 2**32 - 1),
            ),
            max_size=3 * m,
        )
    )
    return m, loaded, steps


@settings(max_examples=150, deadline=None)
@given(absorb_sequences())
def test_absorb_is_exact_rank_growth(case):
    m, loaded, steps = case
    state = codec.BatchState(1, m, 2)
    # distinct source packets e_s: each is innovative and its own basis row
    sources = source_rows(np.full((m, 2), 9, dtype=np.uint8))
    for s in loaded:
        assert state.absorb(sources[s]) is True
    assert state.rank == len(loaded) == gf.rank(coeffs(state.buffers))
    assert np.array_equal(
        basis(state.buffers)[loaded], np.eye(m, dtype=np.uint8)[loaded]
    )
    assert_reduced_basis(state.buffers)
    for kind, slot, factor, seed in steps:
        rng = np.random.default_rng(seed)
        if kind == "one-hot" or (kind in ("multiple", "recode") and not state.rank):
            coeff = np.zeros(m, dtype=np.uint8)
            coeff[slot] = factor
        elif kind == "multiple":
            coeff = gf.mul(factor, coeffs(state.buffers)[slot % state.rank])
        elif kind == "recode":
            coeff = codec.recode(state, rng)[:m]
        else:
            coeff = rng.integers(0, 256, m, dtype=np.uint8)
        payload = rng.integers(0, 256, 2, dtype=np.uint8)
        before = state.rank
        rises = gf.rank(np.vstack([coeffs(state.buffers), coeff])) > before
        assert state.absorb(np.concatenate([coeff, payload])) is rises
        assert state.rank == before + rises == gf.rank(coeffs(state.buffers))
        if rises:
            assert np.array_equal(held(state.buffers, 0)[-1, :m], coeff)
            assert np.array_equal(held(state.buffers, 0)[-1, m:], payload)
        assert_reduced_basis(state.buffers)


def test_absorb_checks_the_payload_before_any_state():
    # a 1-byte payload must not be broadcast into a 6-byte row
    state = codec.BatchState(1, 4, 6)
    e = np.eye(4, dtype=np.uint8)

    def row(coeff, payload_len):
        return np.concatenate([coeff, np.ones(payload_len, np.uint8)])

    with pytest.raises(ValueError, match="payload"):
        state.absorb(row(e[0], 1))
    assert state.rank == 0 and not state.buffers.raw.any()
    assert np.array_equal(state.buffers.ops[0, 0], e)
    assert state.absorb(row(e[0], 6))
    # a 5- or 7-byte payload leaves rank and basis as they were, so e1
    # still fits
    for payload_len in (5, 7):
        with pytest.raises(ValueError, match="payload"):
            state.absorb(row(e[1], payload_len))
        assert state.rank == 1
        assert np.array_equal(basis(state.buffers), np.diag([1, 0, 0, 0]))
    assert state.absorb(row(e[1], 6))
    assert state.rank == 2 == gf.rank(coeffs(state.buffers))


@hst.composite
def group_receptions(draw):
    m = draw(hst.integers(1, 8))
    k = draw(hst.integers(1, 6))
    nb = draw(hst.integers(1, 3))
    steps = draw(
        hst.lists(
            hst.tuples(
                hst.sampled_from(["zero", "repeat", "one-hot", "dense", "recode"]),
                hst.integers(1, nb),
                hst.lists(hst.booleans(), min_size=k, max_size=k),
                hst.integers(0, 2**32 - 1),
            ),
            max_size=3 * m + 4,
        )
    )
    return m, k, nb, steps


@settings(max_examples=120, deadline=None)
@given(group_receptions())
def test_group_reduction_equals_one_absorb_per_receiver(case):
    """BatchBuffers.absorb, fed windows of packets of distinct batches, keeps
    each buffer exactly as absorbing each packet into it alone would."""
    m, k, nb, steps = case
    group = codec.BatchBuffers(nb, k, m, 2)
    bids = range(1, nb + 1)
    alone = [{b: codec.BatchState(b, m, 2) for b in bids} for _ in range(k)]
    arrived = {(b, i): [] for b in bids for i in range(k)}
    sent = []
    eye = np.eye(m, dtype=np.uint8)
    window = []

    def flush():
        if not window:
            return
        bids, fulls, delivered, rises = (np.array(col) for col in zip(*window))
        gained = group.absorb(bids, fulls, delivered)
        assert np.array_equal(gained, delivered & rises)
        for bid, full, hits, up in window:
            for i in np.flatnonzero(hits):
                assert alone[i][bid].absorb(full) is up[i]
                if up[i]:
                    arrived[bid, i].append(full)
        window.clear()

    for kind, bid, delivered, seed in steps:
        # a window holds each batch once
        if any(w[0] == bid for w in window):
            flush()
        rng = np.random.default_rng(seed)
        holders = [i for i in range(k) if group.ranks[bid, i]]
        if kind == "zero":
            coeff = np.zeros(m, dtype=np.uint8)
        elif kind == "repeat" and sent:
            coeff = sent[int(rng.integers(len(sent)))]
        elif kind == "recode" and holders:
            sender = holders[int(rng.integers(len(holders)))]
            coeff = recoded(group, bid, sender, rng)[:m]
        elif kind == "one-hot":
            coeff = eye[int(rng.integers(m))] * np.uint8(rng.integers(1, 256))
        else:
            coeff = rng.integers(0, 256, m, dtype=np.uint8)
        sent.append(coeff)
        payload = rng.integers(0, 256, 2, dtype=np.uint8)
        rises = [
            gf.rank(np.vstack([coeffs(group, bid, i), coeff]))
            > int(group.ranks[bid, i])
            for i in range(k)
        ]
        window.append((bid, np.concatenate([coeff, payload]), delivered, rises))
    flush()
    for i in range(k):
        for bid in bids:
            ref, rows = alone[i][bid], arrived[bid, i]
            rank, raw, ops = group.ranks[bid, i], group.raw[bid, i], group.ops[bid, i]
            assert rank == ref.rank == len(rows) == gf.rank(coeffs(group, bid, i))
            assert_reduced_basis(group, bid, i)
            assert np.array_equal(ops, basis(group, bid, i) ^ eye)
            assert np.array_equal(raw[:rank], np.array(rows).reshape(-1, m + 2))
            assert not raw[rank:].any()
            assert np.array_equal(raw, ref.buffers.raw[0, 0])
            assert np.array_equal(ops, ref.buffers.ops[0, 0])


def test_recode_stays_in_row_space():
    rng = np.random.default_rng(23)
    file = make_file(rng, 80, 4)
    dist = codec.design_distribution(80, 8, 8)
    desc, payloads = encoded(gf.SplitTables(file), dist, 1, 3, 8)
    pkts = source_rows(payloads)
    st = codec.BatchState(1, 8, 4)
    for p in pkts[:5]:
        st.absorb(p)
    base_rank = gf.rank(coeffs(st.buffers))
    for _ in range(50):
        mixed = codec.recode(st, rng)
        stacked = np.vstack([coeffs(st.buffers), mixed[None, :8]])
        assert gf.rank(stacked) == base_rank


def test_recode_applies_one_mix_to_coefficients_and_payloads():
    rng = np.random.default_rng(25)
    st = codec.BatchState(1, 8, 6)
    for _ in range(5):
        coeff = rng.integers(0, 256, 8, dtype=np.uint8)
        st.absorb(np.concatenate([coeff, rng.integers(0, 256, 6, dtype=np.uint8)]))
    rows = held(st.buffers, 0)
    ours, ref = np.random.default_rng(4), np.random.default_rng(4)
    for _ in range(20):
        mixed = codec.recode(st, ours)
        mix = np.zeros(st.rank, dtype=np.uint8)
        while not mix.any():
            mix = ref.integers(0, 256, size=st.rank, dtype=np.uint8)
        assert np.array_equal(mixed[:8], gf.matmul(mix[None, :], rows[:, :8])[0])
        assert np.array_equal(mixed[8:], gf.matmul(mix[None, :], rows[:, 8:])[0])


def test_recode_single_row_is_scalar_multiple():
    rng = np.random.default_rng(24)
    file = make_file(rng, 30, 4)
    dist = codec.DegreeDistribution([0.0, 1.0])
    desc, payloads = encoded(gf.SplitTables(file), dist, 1, 9, 4)
    pkts = source_rows(payloads)
    st = codec.BatchState(1, 4, 4)
    st.absorb(pkts[2])
    mixed = codec.recode(st, rng)
    nz = np.nonzero(pkts[2][:4])[0][0]
    factor = int(mixed[nz])
    assert factor != 0
    assert np.array_equal(mixed[:4], gf.mul(factor, pkts[2][:4]))
    assert np.array_equal(mixed[4:], gf.mul(factor, pkts[2][4:]))


def test_recode_empty_buffer_raises():
    st = codec.BatchState(1, 4, 4)
    with pytest.raises(ValueError):
        codec.recode(st, np.random.default_rng(0))


@settings(max_examples=80, deadline=None)
@given(hst.integers(1, 16), hst.integers(0, 8), hst.integers(0, 2**32 - 1))
def test_recode_row_is_the_product_of_the_same_draws(m, payload_len, seed):
    """At every rank, recode's row is mix . raw[:rank] for the mix a cloned
    generator draws, and it leaves the generator where the clone ends."""
    rng = np.random.default_rng(seed)
    st = codec.BatchState(1, m, payload_len)
    raw = st.buffers.raw[0, 0]
    # recode reads only rank and the raw rows, dependent or not
    raw[:] = rng.integers(0, 256, raw.shape, dtype=np.uint8)
    for rank in range(1, m + 1):
        st.buffers.ranks[0, 0] = rank
        clone = copy.deepcopy(rng)
        row = codec.recode(st, rng)
        mix = np.zeros(rank, dtype=np.uint8)
        while not mix.any():
            mix = clone.integers(0, 256, size=rank, dtype=np.uint8)
        assert row.shape == (m + payload_len,) and row.dtype == np.uint8
        assert np.array_equal(row, gf.matmul(mix[None, :], raw[:rank])[0])
        assert rng.bit_generator.state == clone.bit_generator.state


def test_recode_redraws_an_all_zero_mix():
    # a seed whose first one-element mix is 0: recode must draw again
    seed = next(
        s for s in range(10_000)
        if not np.random.default_rng(s).integers(0, 256, size=1, dtype=np.uint8)[0]
    )
    st = codec.BatchState(1, 3, 2)
    st.buffers.raw[0, 0, 0] = [1, 0, 0, 7, 9]
    st.buffers.ranks[0, 0] = 1
    rng, clone = np.random.default_rng(seed), np.random.default_rng(seed)
    row = codec.recode(st, rng)
    assert clone.integers(0, 256, size=1, dtype=np.uint8)[0] == 0
    factor = clone.integers(0, 256, size=1, dtype=np.uint8)[0]
    assert factor and np.array_equal(row, gf.mul(factor, st.buffers.raw[0, 0, 0]))
    assert rng.bit_generator.state == clone.bit_generator.state


def test_absorb_keeps_the_full_row():
    rng = np.random.default_rng(27)
    st = codec.BatchState(1, 6, 5)
    for _ in range(9):
        full = rng.integers(0, 256, 11, dtype=np.uint8)
        if rng.random() < 0.3 and st.rank:
            full = codec.recode(st, rng)
        before = st.rank
        rises = st.absorb(full)
        raw = st.buffers.raw[0, 0]
        assert st.rank == before + rises
        if rises:
            assert np.array_equal(raw[before], full)
            assert np.array_equal(held(st.buffers, 0)[-1, :6], full[:6])
            assert np.array_equal(held(st.buffers, 0)[-1, 6:], full[6:])
        assert not raw[st.rank :].any()
    assert st.rank == 6


# ------------------------------------------------- symbolic back-substitution


def test_symbolic_system_consistency_property():
    """Consistent constraint streams must never be flagged inconsistent.

    Regression for a view-aliasing bug where back-elimination updated the
    coefficient rows before the payload rows read their factors.
    """
    for trial in range(200):
        rng = np.random.default_rng(trial)
        k = int(rng.integers(1, 12))
        width = int(rng.integers(1, 9))
        hidden = rng.integers(0, 256, (k, width), dtype=np.uint8)
        sys_ = codec._ZSystem(width)
        for _ in range(int(rng.integers(1, 40))):
            w = int(rng.integers(1, k + 1))
            zrow = rng.integers(0, 256, w, dtype=np.uint8)
            brow = gf.matmul(zrow[None, :], hidden[:w])[0]
            sys_.add(np.concatenate([brow, zrow])[None])
        assert sys_.rank <= k
        if sys_.rank == k:
            assert np.array_equal(sys_.solve(k), hidden)
        else:
            with pytest.raises(gf.UnderdeterminedSystemError):
                sys_.solve(k)


def test_symbolic_system_grows_past_its_initial_capacity():
    """Rows and columns beyond the preallocated block keep the solve exact."""
    rng = np.random.default_rng(4)
    k, width = 70, 5
    hidden = rng.integers(0, 256, (k, width), dtype=np.uint8)
    sys_ = codec._ZSystem(width)
    wide = []
    for t in range(120):
        w = min(k, 1 + t)  # widths grow the way inactivations do
        zrow = rng.integers(0, 256, w, dtype=np.uint8)
        row = np.concatenate([gf.matmul(zrow[None, :], hidden[:w])[0], zrow])
        sys_.add(row[None])
        wide.append(np.pad(zrow, (0, k - w)))
    # a reduced basis has the same pivot columns as the rref of its span
    assert sorted(sys_.pivot_cols) == list(gf.row_reduce(np.array(wide))[1])
    assert sys_.rank == k
    assert np.array_equal(sys_.solve(k), hidden)


def test_symbolic_system_detects_true_inconsistency():
    sys_ = codec._ZSystem(2)
    sys_.add(np.array([[5, 5, 1]], np.uint8))
    with pytest.raises(gf.InconsistentSystemError):
        sys_.add(np.array([[5, 6, 1]], np.uint8))


def test_symbolic_system_blocks_equal_rows_one_at_a_time():
    """A block reaches the same reduced system as its rows added one at a
    time: the same rows, in the same order, with the same pivot columns.
    Blocks mix zero rows, rows dependent on the block and on the stored
    rows, and widths that grow the storage in rows and in columns."""
    seen = {"zero": 0, "dependent": 0, "grew_rows": 0, "grew_cols": 0}
    for trial in range(60):
        rng = np.random.default_rng(trial)
        lp = int(rng.integers(0, 5))
        num_z = int(rng.integers(1, 48))
        hidden = rng.integers(0, 256, (num_z, lp), dtype=np.uint8)
        by_block, by_row = codec._ZSystem(lp), codec._ZSystem(lp)
        for _ in range(int(rng.integers(1, 6))):
            k = int(rng.integers(1, 30))
            w = int(rng.integers(max(1, by_row.width), num_z + 1))
            z = rng.integers(0, 256, (k, w), dtype=np.uint8)
            z[rng.random((k, w)) < 0.3] = 0
            z[rng.random(k) < 0.1] = 0
            block = np.concatenate([gf.matmul(z, hidden[:w]), z], axis=1)
            if k >= 3:
                # a combination of two rows before it in the block
                block[-1] = gf.mul(block[0], 7) ^ block[1]
            if by_row.rank and k >= 2:
                # a stored row, widened to the block, mixed into a new one
                stored = np.zeros(lp + w, dtype=np.uint8)
                stored[: lp + by_row.width] = by_row.rows[0]
                block[-2] = stored ^ gf.mul(block[0], 3)
            seen["zero"] += int((~block.any(axis=1)).sum())
            shape = by_block._rows.shape
            added = by_block.add(block)
            assert added == sum(by_row.add(row[None]) for row in block)
            seen["dependent"] += k - added
            seen["grew_rows"] += by_block._rows.shape[0] > shape[0]
            seen["grew_cols"] += by_block._rows.shape[1] > shape[1]
            assert by_block.pivot_cols == by_row.pivot_cols
            assert by_block.rank == by_row.rank
            assert np.array_equal(by_block.rows, by_row.rows)
        # zero rows still widen the system to their width
        zero = np.zeros((2, lp + by_row.width + 3), dtype=np.uint8)
        assert by_block.add(zero) == sum(by_row.add(row[None]) for row in zero) == 0
        assert by_block.width == by_row.width == zero.shape[1] - lp
        assert np.array_equal(by_block.rows, by_row.rows)
        if by_block.rank == num_z:
            assert np.array_equal(by_block.solve(num_z), hidden)
    assert seen["zero"] >= 20 and seen["dependent"] >= 100
    assert seen["grew_rows"] >= 5 and seen["grew_cols"] >= 5


def test_symbolic_system_inconsistent_block_changes_nothing():
    """A block with one inconsistent row raises before it changes anything,
    also when the block would have grown the storage in rows and columns;
    the consistent rows before it are not kept either."""
    rng = np.random.default_rng(9)
    lp, num_z = 3, 40
    hidden = rng.integers(0, 256, (num_z, lp), dtype=np.uint8)

    def consistent(k, w):
        z = rng.integers(0, 256, (k, w), dtype=np.uint8)
        return np.concatenate([gf.matmul(z, hidden[:w]), z], axis=1)

    sys_ = codec._ZSystem(lp)
    assert sys_.add(consistent(10, 12)) == 10
    stored = sys_.rows.copy()
    for bad in (25, 0):
        block = consistent(30, 36)
        if bad:
            # dependent on two rows before it, with one payload byte off
            block[bad] = block[3] ^ block[4]
        else:
            # a stored row, with one payload byte off
            block[bad] = 0
            block[bad, : stored.shape[1]] = stored[5]
        block[bad, 1] ^= 1
        before = (sys_.rows.copy(), list(sys_.pivot_cols), sys_.width, sys_._rows.shape)
        with pytest.raises(gf.InconsistentSystemError):
            sys_.add(block)
        assert np.array_equal(sys_.rows, before[0])
        assert sys_.pivot_cols == before[1]
        assert (sys_.width, sys_._rows.shape) == before[2:]
    assert sys_.rank == 10 and np.array_equal(sys_.rows, stored)


# ------------------------------------------------------------------- decoding


def random_instance(seed):
    """Small session with lossy, partially recoded receptions: the file,
    descriptors and the one-receiver buffers of what was received."""
    rng = np.random.default_rng(seed)
    file_packets = int(rng.integers(8, 65))
    batch_size = int(rng.choice([4, 8]))
    num_batches = int(rng.integers(2, 17))
    payload_len = int(rng.integers(1, 9))
    file = make_file(rng, file_packets, payload_len)
    dist = codec.design_distribution(file_packets, num_batches, batch_size)
    descriptors, batch_packets = build_session(
        file, dist, num_batches, batch_size, seed
    )
    sender, got = (
        codec.BatchBuffers(num_batches, 1, batch_size, payload_len) for _ in range(2)
    )
    for bid in range(1, num_batches + 1):
        for p in batch_packets[bid]:
            if rng.random() < 0.8:
                deliver(sender, bid, p)
        deliveries = int(rng.integers(0, batch_size + 3))
        for _ in range(deliveries):
            if sender.ranks[bid, 0] and rng.random() < 0.7:
                deliver(got, bid, recoded(sender, bid, 0, rng))
            else:
                deliver(got, bid, batch_packets[bid][int(rng.integers(batch_size))])
    return file, descriptors, got


def test_decoder_matches_dense_elimination_oracle():
    """unresolved must equal the global rank deficit on every instance."""
    full, partial = 0, 0
    for seed in range(200):
        file, descriptors, got = random_instance(seed)
        file_packets = file.shape[0]
        rank = global_rank(got, descriptors, file_packets)
        result = codec.decode(got, 0, descriptors, file_packets)
        assert result.unresolved == file_packets - rank, "seed %d" % seed
        assert result.success == (rank == file_packets)
        if result.success:
            full += 1
            assert np.array_equal(result.payloads, file)
        else:
            partial += 1
            assert result.payloads is None
    # the instance generator must exercise both outcomes
    assert full >= 20 and partial >= 20


def test_incremental_feed_matches_oracle():
    """attempt() between deliveries must not disturb final exactness."""
    for seed in range(40):
        file, descriptors, got = random_instance(seed + 1000)
        file_packets = file.shape[0]
        dec = make_decoder(descriptors, file_packets, file.shape[1])
        bids = list(descriptors)
        half = len(bids) // 2
        dec.load_state(holding(got, {bid: held(got, bid) for bid in bids[:half]}), 0)
        dec.attempt()
        for bid in bids[half:]:
            for row in held(got, bid):
                dec.add_row(bid, row)
            dec.attempt()
        ok = dec.attempt()
        rank = global_rank(got, descriptors, file_packets)
        assert dec.unresolved == file_packets - rank, "seed %d" % seed
        if ok:
            assert np.array_equal(dec.extract(), file)


def test_late_row_for_partly_resolved_batch_matches_oracle():
    """Rows for a pending batch whose contributors partly resolved earlier.

    The decoder substitutes resolved contributors only when a batch fires or
    drains, so such rows are stored raw; the next attempt must still agree
    with dense elimination.
    """
    exercised = 0
    for seed in range(60):
        file, descriptors, got = random_instance(seed + 2000)
        file_packets = file.shape[0]
        dec = make_decoder(descriptors, file_packets, file.shape[1])
        bids = list(descriptors)
        dec.load_state(holding(got, {bid: held(got, bid) for bid in bids[::2]}), 0)
        dec.attempt()
        for bid in bids[1::2]:
            if got.ranks[bid, 0] and batch_state(dec, bid)[0] != 0:
                exercised += bool(dec.resolved[descriptors[bid].contribs].any())
            for row in held(got, bid):
                dec.add_row(bid, row)
            dec.attempt()
        rank = global_rank(got, descriptors, file_packets)
        assert dec.unresolved == file_packets - rank, "seed %d" % seed
        if dec.unresolved == 0:
            assert np.array_equal(dec.extract(), file)
    assert exercised >= 20


def test_flush_queues_batches_in_first_hit_order():
    """Batches enter the fire queue in the order the resolved packets reach
    them, not in batch-id order; that order decides the inactivation picks.

    Three degree-2 batches with one row each, on packets A={0, 1}, B={2, 3}
    and C={1, 3}. Resolving packet 3 then packet 0 reaches B, C, then A, and
    leaves each one unresolved contributor for its one row.
    """
    contribs = {1: [0, 1], 2: [2, 3], 3: [1, 3]}
    descriptors = {
        bid: codec.BatchDescriptor(np.array(ids), np.eye(2, dtype=np.uint8))
        for bid, ids in contribs.items()
    }
    dec = make_decoder(descriptors, 4, 0)
    for bid in contribs:
        dec.add_row(bid, np.array([1, 1], dtype=np.uint8))
    assert dec._fire_queue == []
    dec._subst_queue = [3, 0]
    dec._flush_substitutions()
    assert dec._fire_queue == [dec.index.pos[bid] for bid in (2, 3, 1)]
    assert [batch_state(dec, bid) for bid in contribs] == [(1, 1, True)] * 3


def dense_transform(block, u):
    """The dense oracle of a fire: gf.row_reduce of [C_active | I], C_active
    being block's first u columns, and its row transform applied to block.
    Returns (transformed block, whether C_active has full column rank)."""
    rows = block.shape[0]
    eye = np.eye(rows, dtype=np.uint8)
    rref, pivots = gf.row_reduce(np.concatenate([block[:, :u], eye], axis=1))
    return gf.matmul(rref[:, u:], block), pivots[u - 1] == u - 1


def test_fire_elimination_matches_the_dense_oracle():
    """_eliminate on u active columns against the full row reduction of
    [C_active | I]: it fails exactly when C_active lacks full column rank;
    otherwise its first u rows are the identity on the active columns and
    the rest zero there, every row stays in the block's row space, with no
    surplus row (rows = u) the block equals the oracle's, and with surplus
    rows these span the oracle's and the first u rows differ from the
    oracle's only by their combinations. Covers a zero first pivot entry
    (a row swap at the first step) and rank-deficient active blocks."""
    rng = np.random.default_rng(61)
    seen = {"square": 0, "surplus": 0, "deficient": 0, "swapped": 0}
    for trial in range(400):
        u = int(rng.integers(1, 9))
        rows = u + int(rng.integers(0, 4))
        block = rng.integers(0, 256, (rows, u + int(rng.integers(0, 40))), np.uint8)
        kind = trial % 4
        if kind == 1 and rows > 1:
            block[0, 0] = 0
        elif kind == 2:
            # one active column a multiple of another, or zero
            j = int(rng.integers(u))
            block[:, j] = gf.mul(block[:, 0], int(rng.integers(0, 256))) if j else 0
        want, full_rank = dense_transform(block, u)
        got = block.copy()
        assert codec._eliminate(got, u) == full_rank
        if not full_rank:
            seen["deficient"] += 1
            continue
        eye = np.eye(rows, u, dtype=np.uint8)
        assert np.array_equal(got[:, :u], eye)
        assert gf.rank(np.vstack([block, got])) == gf.rank(block) == gf.rank(got)
        if rows == u:
            seen["square"] += 1
            assert np.array_equal(got, want)
            continue
        seen["surplus"] += 1
        seen["swapped"] += kind == 1
        span = gf.rank(want[u:])
        assert span == gf.rank(got[u:]) == gf.rank(np.vstack([got[u:], want[u:]]))
        assert gf.rank(np.vstack([want[u:], got[:u] ^ want[:u]])) == span
    assert min(seen.values()) >= 30, seen


def test_queued_batch_finished_by_substitution_drains_once(monkeypatch):
    """Batches 1 and 2, both on packets {0, 1}, each get their two source
    rows and are queued in that order. The fire queue is last in, first
    out: batch 2 fires and resolves both packets, and the flush finishes
    batch 1 while it still waits in the queue. Its rows drain then, once;
    its turn in the queue later eliminates and drains nothing."""
    rng = np.random.default_rng(21)
    file = make_file(rng, 2, 3)
    descriptors = {
        bid: codec.BatchDescriptor(
            np.array([0, 1]), rng.integers(1, 256, (2, 2), dtype=np.uint8).T
        )
        for bid in (1, 2)
    }
    dec = make_decoder(descriptors, 2, 3)
    for bid, desc in descriptors.items():
        for j in range(2):
            payload = gf.matmul(desc.gen_t[j : j + 1], file[desc.contribs])[0]
            dec.add_row(bid, np.concatenate([np.eye(2, dtype=np.uint8)[j], payload]))
    assert dec._fire_queue == [dec.index.pos[1], dec.index.pos[2]]
    assert [batch_state(dec, bid) for bid in (1, 2)] == [(2, 2, True)] * 2
    drains, fires = [], []
    drain = dec._drain

    def logged(parts):
        drains.append([(i, len(r)) for i, r in parts])
        drain(parts)

    dec._drain = logged
    eliminate = codec._eliminate
    monkeypatch.setattr(
        codec, "_eliminate", lambda block, u: fires.append(u) or eliminate(block, u)
    )
    assert dec.attempt()
    assert drains == [[(dec.index.pos[1], 2)]]
    assert fires == [2]
    assert [batch_state(dec, bid) for bid in (1, 2)] == [(0, 2, False)] * 2
    assert dec._fire_queue == [] and dec.zsys.rank == 0 and dec.inactivated == 0
    assert np.array_equal(dec.extract(), file)


def test_rank_deficient_batch_stays_pending_until_more_rows_arrive():
    """A batch with u <= rows but rank < u on its unresolved contributors.

    One batch of degree 4 over the whole file (identity generator, so a
    reception's coefficients are its contributor coefficients). Packet 0 is
    inactivated; the three rows are independent, but on packets 1..3 the
    third is the sum of the other two, so rows >= u = 3 is not enough to
    fire. No expression and no symbolic constraint may come out of it (an
    early surplus row would pin Z). A later row must still reach the exact
    dense-elimination result.
    """
    rng = np.random.default_rng(43)
    file = make_file(rng, 4, 5)
    desc = codec.BatchDescriptor(np.arange(4), np.eye(4, dtype=np.uint8))
    dec = make_decoder({1: desc}, 4, 5)
    fed = []

    def feed(coeff):
        coeff = np.array(coeff, dtype=np.uint8)
        fed.append(coeff)
        dec.add_row(1, np.concatenate([coeff, gf.matmul(coeff[None, :], file)[0]]))

    feed([3, 5, 2, 0])
    feed([9, 1, 7, 0])
    feed([11, 4, 5, 0])
    dec._inactivate(0)
    dec._cascade()
    assert batch_state(dec, 1) + (dec.num_z,) == (3, 3, False, 1)
    assert np.array_equal(dec._raw[dec.index.pos[1], :3, :4], np.array(fed))
    assert list(dec.resolved) == [True, False, False, False]
    assert not dec.expr[1:].any()
    assert dec.zsys.rank == 0
    feed([0, 6, 0, 1])
    ok = dec.attempt()
    rank = gf.rank(np.array(fed))
    assert dec.unresolved == 4 - rank
    assert ok == (rank == 4)
    assert ok and np.array_equal(dec.extract(), file)


def test_decode_inactivation_count_is_pinned():
    """Inactivation picks depend only on structure; this count must not drift."""
    rng = np.random.default_rng(41)
    file = make_file(rng, 600, 4)
    dist = codec.design_distribution(600, 60, 16)
    descriptors, batch_packets = build_session(file, dist, 60, 16, 41)
    got = received_sources(batch_packets, rng, 0.8)
    result = codec.decode(got, 0, descriptors, 600)
    assert result.success
    assert np.array_equal(result.payloads, file)
    assert result.inactivated == 21


def test_decode_loopback_byte_identity():
    """Lossless full-rank delivery recovers the file exactly."""
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        file_packets = int(rng.integers(60, 200))
        batch_size = int(rng.choice([8, 16]))
        num_batches = int(-(-file_packets * 8 // (5 * batch_size)))  # 1.6x rank
        payload_len = int(rng.integers(1, 33))
        file = make_file(rng, file_packets, payload_len)
        dist = codec.design_distribution(file_packets, num_batches, batch_size)
        descriptors, batch_packets = build_session(
            file, dist, num_batches, batch_size, 10_000 + seed
        )
        got = received_sources(batch_packets)
        result = codec.decode(got, 0, descriptors, file_packets)
        assert result.success, "seed %d failed to reach full rank" % seed
        assert np.array_equal(result.payloads, file)


def test_decode_no_receptions():
    rng = np.random.default_rng(31)
    file = make_file(rng, 40, 4)
    dist = codec.design_distribution(40, 8, 8)
    descriptors, _ = build_session(file, dist, 8, 8, 31)
    empty = codec.BatchBuffers(len(descriptors), 1, 8, 4)
    result = codec.decode(empty, 0, descriptors, 40)
    assert not result.success
    assert result.unresolved == 40
    assert result.payloads is None


def test_decode_is_deterministic():
    file, descriptors, got = random_instance(77)
    a = codec.decode(got, 0, descriptors, file.shape[0])
    b = codec.decode(got, 0, descriptors, file.shape[0])
    assert a.success == b.success
    assert a.unresolved == b.unresolved
    assert a.inactivated == b.inactivated
    if a.success:
        assert np.array_equal(a.payloads, b.payloads)


def test_decode_runtime_scales_gently():
    """Doubling the file roughly doubles decode time at fixed M and L."""

    def timed(file_packets, num_batches, seed):
        rng = np.random.default_rng(seed)
        file = make_file(rng, file_packets, 4)
        dist = codec.design_distribution(file_packets, num_batches, 16)
        descriptors, batch_packets = build_session(
            file, dist, num_batches, 16, seed
        )
        got = received_sources(batch_packets, rng, 0.8)
        start = time.perf_counter()
        result = codec.decode(got, 0, descriptors, file_packets)
        elapsed = time.perf_counter() - start
        assert result.success
        return elapsed

    small = min(timed(600, 60, s) for s in (41, 42))
    big = min(timed(1800, 180, s) for s in (43, 44))
    assert big <= 8 * small + 0.25


# ------------------------------------------------- decoder work at its width


def pinned_instance():
    """The 600-packet instance of test_decode_inactivation_count_is_pinned."""
    rng = np.random.default_rng(41)
    file = make_file(rng, 600, 4)
    dist = codec.design_distribution(600, 60, 16)
    descriptors, batch_packets = build_session(file, dist, 60, 16, 41)
    return file, descriptors, received_sources(batch_packets, rng, 0.8)


def test_extract_in_width_bands_equals_the_full_width_product():
    """extract multiplies each packet's tails only as wide as they are: on
    decoders with many widths, banded (600 packets) or not (fewer than
    256), its bytes equal the one product at full num_z width."""
    instances = [pinned_instance()] + [random_instance(s) for s in range(60)]
    banded = 0
    for file, descriptors, got in instances:
        dec = make_decoder(descriptors, file.shape[0], file.shape[1])
        dec.load_state(got, 0)
        if not dec.attempt() or len(set(dec.width.tolist())) < 3:
            continue
        lp, z = dec.payload_len, dec.zsys.solve(dec.num_z)
        full = dec.expr[:, :lp] ^ gf.matmul(dec.expr[:, lp : lp + dec.num_z], z)
        got = dec.extract()
        assert np.array_equal(got, full) and np.array_equal(got, file)
        banded += file.shape[0] >= codec._BAND_MIN
    assert banded == 1


def full_width_pull(dec, c_rows, payloads, pkts):
    """A pull multiplied at the decoder's current full width."""
    lp = dec.payload_len
    rhs = gf.matmul(c_rows, dec.expr[pkts, : lp + dec.num_z])
    rhs[:, :lp] ^= payloads
    return rhs


def assert_expr_within_widths(dec):
    """Resolved rows are zero past their recorded width, the rest all zero."""
    cols = np.arange(dec.expr.shape[1])
    beyond = cols[None, :] >= dec.payload_len + dec.width[:, None]
    assert not (dec.expr * beyond).any()
    assert not dec.expr[~dec.resolved].any()
    assert dec.width.max(initial=0) <= dec.num_z


def assert_random_pulls_match(dec, rng, tries=4):
    """_pull equals the full-width product for random rows on resolved pkts."""
    resolved = np.flatnonzero(dec.resolved)
    for _ in range(tries):
        pkts = rng.permutation(resolved)[: int(rng.integers(0, resolved.size + 1))]
        rows = int(rng.integers(1, 17))
        c_rows = rng.integers(0, 256, (rows, pkts.size), dtype=np.uint8)
        payloads = rng.integers(0, 256, (rows, dec.payload_len), dtype=np.uint8)
        assert np.array_equal(
            dec._pull(c_rows, payloads, pkts),
            full_width_pull(dec, c_rows, payloads, pkts),
        )


def checked_pulls(dec):
    """Make every pull of dec also check itself against the full width."""
    calls = []
    pull = dec._pull

    def checked(c_rows, payloads, pkts):
        rhs = pull(c_rows, payloads, pkts)
        assert np.array_equal(rhs, full_width_pull(dec, c_rows, payloads, pkts))
        calls.append(pkts.size)
        return rhs

    dec._pull = checked
    return calls


def test_pulls_equal_the_full_width_product_mid_decode():
    """Stopped between attempts, with symbolic unknowns in play, a pull over
    any resolved packets equals the product at the full current width, and
    every pull the decoder makes on its own does too."""
    rng = np.random.default_rng(5)
    symbolic = 0
    for seed in range(40):
        file, descriptors, got = random_instance(seed + 3000)
        dec = make_decoder(descriptors, file.shape[0], file.shape[1])
        checked_pulls(dec)
        bids = list(descriptors)
        for part in (bids[::2], bids[1::2]):
            dec.load_state(holding(got, {bid: held(got, bid) for bid in part}), 0)
            dec.attempt()
            symbolic += dec.num_z > 0
            assert_expr_within_widths(dec)
            assert_random_pulls_match(dec, rng)
    assert symbolic >= 20


def test_large_pulls_take_the_banded_path():
    """The pinned instance drains full-mix batches of degree 600 through
    width bands; the decode and pulls over every packet stay exact."""
    file, descriptors, got = pinned_instance()
    dec = make_decoder(descriptors, 600, 4)
    calls = checked_pulls(dec)
    dec.load_state(got, 0)
    assert dec.attempt()
    assert np.array_equal(dec.extract(), file)
    assert max(calls) >= codec._BAND_MIN
    assert_expr_within_widths(dec)
    assert len(set(dec.width.tolist())) > codec._BANDS
    rng = np.random.default_rng(6)
    c_rows = rng.integers(0, 256, (16, 600), dtype=np.uint8)
    payloads = rng.integers(0, 256, (16, 4), dtype=np.uint8)
    pkts = rng.permutation(600)
    assert np.array_equal(
        dec._pull(c_rows, payloads, pkts),
        full_width_pull(dec, c_rows, payloads, pkts),
    )


def coverage_instance(seed, p):
    """120 packets in 24 batches of 8 under the designed degree law, so with
    full-mix and high-degree batches; each source packet kept with p."""
    rng = np.random.default_rng(seed)
    file = make_file(rng, 120, 3)
    dist = codec.design_distribution(120, 24, 8)
    descriptors, batch_packets = build_session(file, dist, 24, 8, seed)
    return file, descriptors, received_sources(batch_packets, rng, p)


def test_batches_a_flush_finishes_drain_as_one_pull(monkeypatch):
    """A flush that finishes several batches holding rows (full-mix and
    high-degree batches with other contributor sets) drains them in one
    pull over the union of their contributors. The Z system, unresolved,
    inactivated and the decoded bytes equal draining them one at a time,
    and the dense-elimination oracle."""
    together = []
    tall = []
    matmul_tall = gf._matmul_tall
    monkeypatch.setattr(
        gf, "_matmul_tall", lambda a, b: tall.append(1) or matmul_tall(a, b)
    )
    for seed in range(16):
        file, descriptors, got = coverage_instance(seed, 0.6 + 0.2 * (seed % 4 > 0))
        joint, alone = (make_decoder(descriptors, 120, 3) for _ in range(2))
        drain, drain_alone = joint._drain, alone._drain

        def logged(parts, drain=drain):
            rows = sum(len(r) for _, r in parts)
            before = len(tall)
            drain(parts)
            sets = [joint.index.contribs[i] for i, _ in parts]
            together.append((sets, rows, len(tall) > before))

        def one_at_a_time(parts, drain=drain_alone):
            for part in parts:
                drain([part])

        joint._drain, alone._drain = logged, one_at_a_time
        for dec in (joint, alone):
            dec.load_state(got, 0)
        ok = joint.attempt()
        assert alone.attempt() == ok
        assert joint.zsys.rank == alone.zsys.rank
        assert np.array_equal(joint.zsys.rows, alone.zsys.rows)
        assert joint.unresolved == alone.unresolved
        assert joint.inactivated == alone.inactivated
        assert joint.unresolved == 120 - global_rank(got, descriptors, 120)
        if ok:
            assert np.array_equal(joint.extract(), alone.extract())
            assert np.array_equal(joint.extract(), file)
    mixed = [
        (rows, split)
        for sets, rows, split in together
        if any(s.size == 120 for s in sets)
        and len({tuple(np.sort(s)) for s in sets if 16 < s.size < 120}) >= 2
    ]
    # some of them 32 rows or more, and through the split-table product
    assert len(mixed) >= 2 and max(rows for rows, _ in mixed) >= 32
    assert any(split for _, split in mixed)


def mixed_buffers(seed, kind):
    """A session whose buffers hold rows of one kind, or of every kind.

    kind is "unit" (source packets e_j), "scaled" (c . e_j with c != 1),
    "recoded" (random combinations) or "mixed" (any of the three per row).
    Each batch gets one try per slot j, delivered with probability 0.75.
    """
    rng = np.random.default_rng(seed)
    file_packets, batch_size, payload_len = 48, 8, 3
    num_batches = int(rng.integers(7, 12))
    file = make_file(rng, file_packets, payload_len)
    dist = codec.design_distribution(file_packets, num_batches, batch_size)
    descriptors, batch_packets = build_session(
        file, dist, num_batches, batch_size, seed
    )
    kinds = ("unit", "scaled", "recoded") if kind == "mixed" else (kind,)
    sender, got = (
        codec.BatchBuffers(num_batches, 1, batch_size, payload_len) for _ in range(2)
    )
    for bid, packets in batch_packets.items():
        for p in packets:
            deliver(sender, bid, p)
        for p in packets:
            if rng.random() >= 0.75:
                continue
            pick = kinds[int(rng.integers(len(kinds)))]
            if pick == "recoded":
                p = recoded(sender, bid, 0, rng)
            elif pick == "scaled":
                p = gf.mul(int(rng.integers(2, 256)), p)
            deliver(got, bid, p)
    return file, descriptors, got


@pytest.mark.parametrize("kind", ["unit", "scaled", "recoded", "mixed"])
def test_load_state_rows_equal_the_general_product(kind):
    """Rows load as received; unit rows expand as generator rows, and every
    kind of row, alone or mixed, expands as the product of its coefficients
    with the generator. The decode matches dense elimination."""
    outcomes = set()
    for seed in range(12):
        file, descriptors, got = mixed_buffers(seed + 50, kind)
        dec = make_decoder(descriptors, file.shape[0], file.shape[1])
        dec.load_state(got, 0)
        for bid, desc in descriptors.items():
            raw, rows = dec._raw[dec.index.pos[bid]], held(got, bid)
            assert batch_state(dec, bid)[1] == len(rows)
            assert np.array_equal(raw[: len(rows)], rows)
            assert np.array_equal(
                codec._expand(raw[: len(rows), :8], desc.gen_t),
                gf.matmul(rows[:, :8], desc.gen_t),
            )
        rank = global_rank(got, descriptors, file.shape[0])
        result = codec.decode(got, 0, descriptors, file.shape[0])
        assert result.unresolved == file.shape[0] - rank, "seed %d" % seed
        assert result.success == (rank == file.shape[0])
        if result.success:
            assert np.array_equal(result.payloads, file)
        outcomes.add(result.success)
    assert outcomes == {True, False}


def split_buffers(got, rng, parts=3):
    """Each batch's rows cut at random points into parts consecutive blocks.

    Returns one set of buffers per part, holding that part's rows of every
    batch in their order.
    """
    blocks = [{} for _ in range(parts)]
    for bid in range(1, got.ranks.shape[0]):
        rows = held(got, bid)
        cuts = np.sort(rng.integers(0, len(rows) + 1, parts - 1))
        for p, block in enumerate(np.split(rows, cuts)):
            blocks[p][bid] = block
    return [holding(got, block) for block in blocks]


def group_instance(seed):
    """A group of four receivers on a random_instance-sized code: each gets
    each source row with probability 0.5, then peers send recoded rows of
    random batches, each heard by every other receiver with probability
    0.7. Returns the file, descriptors and the group's buffers."""
    rng = np.random.default_rng(seed)
    file_packets = int(rng.integers(8, 65))
    batch_size = int(rng.choice([4, 8]))
    num_batches = int(rng.integers(2, 17))
    payload_len = int(rng.integers(1, 9))
    file = make_file(rng, file_packets, payload_len)
    dist = codec.design_distribution(file_packets, num_batches, batch_size)
    descriptors, batch_packets = build_session(
        file, dist, num_batches, batch_size, seed
    )
    k = 4
    group = codec.BatchBuffers(num_batches, k, batch_size, payload_len)
    for bid, rows in batch_packets.items():
        for row in rows:
            for i in np.flatnonzero(rng.random(k) < 0.5):
                deliver(group, bid, row, i)
    for _ in range(num_batches * batch_size):
        bid = int(rng.integers(1, num_batches + 1))
        holders = np.flatnonzero(group.ranks[bid])
        if not holders.size:
            continue
        sender = int(holders[rng.integers(holders.size)])
        delivered = rng.random(k) < 0.7
        delivered[sender] = False
        row = recoded(group, bid, sender, rng)
        group.absorb(np.array([bid]), row[None], delivered[None])
    return file, descriptors, group


def test_row_and_block_feeds_reach_the_same_decoder():
    """add_row row by row and load_state in blocks take the same path: with
    attempt() between parts, so that blocks also reach batches that already
    fired or drained, both decoders end in the same state. Loading one
    receiver of a group's buffers, which holds recoded rows after phase-2
    style exchanges, reaches what feeding its rows one at a time in
    batch-id order reaches."""
    rng = np.random.default_rng(8)
    late, decoded = 0, 0
    for seed in range(40):
        file, descriptors, got = random_instance(seed + 5000)
        by_row, by_block = (
            make_decoder(descriptors, file.shape[0], file.shape[1])
            for _ in range(2)
        )
        for part in split_buffers(got, rng):
            for bid in descriptors:
                late += part.ranks[bid, 0] * (batch_state(by_block, bid)[0] == 0)
                for row in held(part, bid):
                    by_row.add_row(bid, row)
            by_block.load_state(part, 0)
            ok = by_row.attempt()
            assert by_block.attempt() == ok
        assert np.array_equal(by_row.expr, by_block.expr)
        assert np.array_equal(by_row.width, by_block.width)
        assert np.array_equal(by_row.zsys.rows, by_block.zsys.rows)
        assert by_row.inactivated == by_block.inactivated
        assert by_row.unresolved == by_block.unresolved
        if ok:
            decoded += 1
            assert np.array_equal(by_row.extract(), by_block.extract())
            assert np.array_equal(by_block.extract(), file)
    assert late >= 20 and decoded >= 10
    outcomes, recoded_rows = set(), 0
    for seed in range(12):
        file, descriptors, group = group_instance(seed + 6000)
        m = group.ops.shape[-1]
        for i in range(group.ranks.shape[1]):
            by_row, by_load = (
                make_decoder(descriptors, file.shape[0], file.shape[1])
                for _ in range(2)
            )
            by_load.load_state(group, i)
            for bid in descriptors:
                rows = held(group, bid, i)
                recoded_rows += int((np.count_nonzero(rows[:, :m], axis=1) > 1).sum())
                for row in rows:
                    by_row.add_row(bid, row)
            ok = by_row.attempt()
            assert by_load.attempt() == ok
            assert by_row.inactivated == by_load.inactivated
            assert by_row.unresolved == by_load.unresolved
            rank = global_rank(group, descriptors, file.shape[0], i)
            assert by_row.unresolved == file.shape[0] - rank
            if ok:
                assert by_row.extract().tobytes() == by_load.extract().tobytes()
                assert np.array_equal(by_load.extract(), file)
            outcomes.add(ok)
    assert outcomes == {True, False} and recoded_rows >= 100


def decoder_state(dec):
    """Everything a feed may change, as comparable values."""
    return (
        [
            (dec._raw[i].tobytes(),) + batch_state(dec, bid)
            for bid, i in dec.index.pos.items()
        ],
        dec.stall_counts.tobytes(),
        list(dec._fire_queue),
        dec.zsys.rows.tobytes(),
        dec.num_z,
    )


def test_feeds_reject_malformed_rows_before_any_state():
    """A row [coeff | payload] whose payload is not payload_len wide (a
    length-1 payload used to broadcast) or whose coefficients are not M
    wide, a row that is not one row, or more rows than M for a pending
    batch raise ValueError from add_row and from load_state, on a pending
    batch and on a finished one, and change nothing; a load_state whose
    last batch overflows does not store the rows of the batches before it
    either.

    Batch 2 on packets {0, 1} fires from its two unit rows; batch 3 on all
    four packets then holds one row and is pending, and batch 1 on packets
    {2, 3} holds none.
    """
    rng = np.random.default_rng(12)
    file = make_file(rng, 4, 3)
    descriptors = {
        bid: codec.BatchDescriptor(
            np.array(ids), rng.integers(1, 256, (len(ids), 2), dtype=np.uint8).T
        )
        for bid, ids in {1: [2, 3], 2: [0, 1], 3: [0, 1, 2, 3]}.items()
    }

    def reception(bid, coeff):
        coeff = np.array(coeff, dtype=np.uint8)
        desc = descriptors[bid]
        mixed = gf.matmul(coeff[None, :], desc.gen_t)
        return coeff, gf.matmul(mixed, file[desc.contribs])[0]

    def buffer(rows):
        """Buffers holding rows[bid], (coeff, payload) pairs, of batch bid;
        M and L are the first pair's widths."""
        coeff, payload = next(iter(rows.values()))[0]
        got = codec.BatchBuffers(3, 1, coeff.size, payload.size)
        for bid, pairs in rows.items():
            for coeff, payload in pairs:
                assert deliver(got, bid, np.concatenate([coeff, payload]))
        return got

    dec = make_decoder(descriptors, 4, 3)
    dec.load_state(buffer({2: [reception(2, [1, 0]), reception(2, [0, 1])]}), 0)
    assert not dec.attempt()
    dec.add_row(3, np.concatenate(reception(3, [3, 7])))
    assert batch_state(dec, 2)[0] == 0
    assert batch_state(dec, 3) == (2, 1, False)
    assert batch_state(dec, 1) == (2, 0, False)
    before = decoder_state(dec)
    coeff, payload = reception(3, [5, 1])
    malformed = [
        (coeff, payload[:1]),
        (coeff, payload[:2]),
        (coeff, np.append(payload, 9)),
        (coeff[:1], payload),
        (np.append(coeff, 1), payload),
    ]
    row = np.concatenate([coeff, payload])
    for bid in (1, 2, 3):
        for c, p in malformed:
            with pytest.raises(ValueError):
                dec.add_row(bid, np.concatenate([c, p]))
            with pytest.raises(ValueError):
                dec.load_state(buffer({bid: [(c, p)]}), 0)
            assert decoder_state(dec) == before
        with pytest.raises(ValueError):
            dec.add_row(bid, row[None])
        assert decoder_state(dec) == before
    with pytest.raises(ValueError):
        dec.load_state(buffer({3: [(coeff, payload), reception(3, [1, 0])]}), 0)
    assert decoder_state(dec) == before
    late = buffer(
        {
            1: [reception(1, [1, 1])],
            2: [reception(2, [2, 1])],
            3: [(coeff, payload), reception(3, [1, 0])],
        }
    )
    with pytest.raises(ValueError):
        dec.load_state(late, 0)
    assert decoder_state(dec) == before
    dec.add_row(3, row)
    assert dec.attempt() and np.array_equal(dec.extract(), file)


def reference_pick(dec):
    """The inactivation rule as a per-contributor dict, without side effects.

    It scans every batch: each pending one holding rows one or two
    resolutions short of solvable weighs its unresolved contributors, read
    off dec.resolved, by 2 or 1. Between cascades u must equal their count.
    """
    counts = {}
    for bid, i in dec.index.pos.items():
        u, rows, queued = batch_state(dec, bid)
        contribs = dec.index.contribs[i]
        unres = contribs[~dec.resolved[contribs]] if u else contribs[:0]
        assert u == unres.size and not queued
        gap = u - rows
        if u == 0 or not rows or gap < 1 or gap > 2:
            continue
        w = 2 if gap == 1 else 1
        for pkt in unres.tolist():
            counts[pkt] = counts.get(pkt, 0) + w
    if counts:
        return max(counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]
    masked = np.where(dec.resolved, -1, dec.stall_counts)
    pkt = int(np.argmax(masked))
    return None if masked[pkt] <= 0 else pkt


def checked_picks(dec):
    picks = []
    pick = dec._pick_inactivation

    def checked():
        expect = reference_pick(dec)
        got = pick()
        assert got == expect
        picks.append(got)
        return got

    dec._pick_inactivation = checked
    return picks


def test_inactivation_pick_equals_the_dict_rule():
    """Every pick, in every attempt of incremental and one-shot decodes,
    equals the reference rule's pick."""
    total = 0
    for seed in range(30):
        file, descriptors, got = random_instance(seed + 4000)
        dec = make_decoder(descriptors, file.shape[0], file.shape[1])
        picks = checked_picks(dec)
        for bid in descriptors:
            dec.load_state(holding(got, {bid: held(got, bid)}), 0)
            dec.attempt()
        total += len(picks)
    file, descriptors, got = pinned_instance()
    dec = make_decoder(descriptors, 600, 4)
    picks = checked_picks(dec)
    dec.load_state(got, 0)
    assert dec.attempt()
    assert sum(p is not None for p in picks) == dec.inactivated == 21
    assert total + len(picks) >= 100


def test_inactivation_pick_breaks_ties_to_the_lowest_packet():
    """Packets 4 and 1 tie at weight 3; 4 is met first, 1 must win.

    Batch 1 on {4, 1} holds one row (one short: weight 2 each); batches 2
    on {4, 3, 0} and 3 on {1, 3, 5} hold one row each (two short: weight 1
    each), so 4 and 1 reach 3 and packet 3 reaches 2.
    """
    contribs = {1: [4, 1], 2: [4, 3, 0], 3: [1, 3, 5]}
    rng = np.random.default_rng(9)
    descriptors = {
        bid: codec.BatchDescriptor(
            np.array(ids), rng.integers(1, 256, (len(ids), 2), dtype=np.uint8).T
        )
        for bid, ids in contribs.items()
    }
    dec = make_decoder(descriptors, 6, 0)
    for bid in contribs:
        dec.add_row(bid, np.array([1, 0], dtype=np.uint8))
    states = [batch_state(dec, bid) for bid in contribs]
    assert states == [(2, 1, False), (3, 1, False), (3, 1, False)]
    assert reference_pick(dec) == 1
    assert dec._pick_inactivation() == 1


def test_decode_multiplication_count_is_pinned(monkeypatch):
    """Field multiplications of one decode, summed over gf.matmul calls.

    Pulls and extract at resolution width and unit-row loads must keep the
    pinned decode well under the count it takes at full width; a change
    that widens pulls or extract again moves this count. A fire applies its
    row transform to the payload columns while it eliminates, outside
    gf.matmul, so that work is not counted here (it was a product of rows x
    rows x (payload + num_z) per fire, 83,305 multiplications on this
    instance).
    """
    file, descriptors, got = pinned_instance()
    count = {"mults": 0, "full": 0}
    matmul = gf.matmul

    def counted(a, b):
        count["mults"] += a.shape[0] * a.shape[1] * b.shape[1]
        return matmul(a, b)

    pull = codec.IncrementalDecoder._pull

    def full_width_count(dec, c_rows, payloads, pkts):
        before = count["mults"]
        rhs = pull(dec, c_rows, payloads, pkts)
        count["full"] += c_rows.shape[0] * pkts.size * rhs.shape[1]
        count["full"] -= count["mults"] - before
        return rhs

    extract = codec.IncrementalDecoder.extract

    def full_width_extract(dec):
        before = count["mults"]
        out = extract(dec)
        count["full"] += dec.file_packets * dec.num_z * dec.payload_len
        count["full"] -= count["mults"] - before
        return out

    monkeypatch.setattr(gf, "matmul", counted)
    monkeypatch.setattr(codec.IncrementalDecoder, "_pull", full_width_count)
    monkeypatch.setattr(codec.IncrementalDecoder, "extract", full_width_extract)
    result = codec.decode(got, 0, descriptors, 600)
    assert result.success and np.array_equal(result.payloads, file)
    # the general product every source row took before unit-row loads
    loaded = sum(
        got.ranks[bid, 0] * 16 * d.contribs.size for bid, d in descriptors.items()
    )
    full = count["mults"] + count["full"] + loaded
    assert count["mults"] == 1_422_951
    assert count["mults"] < full == 4_689_366
