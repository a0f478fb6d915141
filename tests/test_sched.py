"""Tests for the phase-2 scheduler.

The worked four-packet, five-batch example is pinned to four decimal places,
including the complete transmission order with all its tie-breaks. Property
checks cover the binomial structure of the missing-packet law, column
monotonicity, and dominance of better-received batches.
"""

import numpy as np
import pytest

from batchcast import sched
from batchcast.analytics import NetworkParams


def small_cfg() -> NetworkParams:
    return NetworkParams(
        num_users=3,
        loss_common=0.0,
        loss_source=0.5,
        loss_peer=0.1,
        batch_size=4,
        file_packets=100,
    )


# printed to 4 decimal places; entries 0.3862 and 0.0448 are rounded from
# 0.38625 and 0.04475
EXPECTED_MATRIX = np.array(
    [
        [0.7500, 0.5000, 0.8750, 0.9375, 0.7500],
        [0.3000, 0.0500, 0.5375, 0.7125, 0.3000],
        [0.0525, 0.0050, 0.2000, 0.3862, 0.0525],
        [0.0075, 0.0005, 0.0448, 0.1410, 0.0075],
    ]
)

EXPECTED_QUEUE = [4, 3, 1, 5, 4, 3, 2, 4, 1, 5, 3, 4, 1, 5, 2, 3, 1, 5, 2, 2]


# ------------------------------------------------------------ missing-packet


def test_prob_exclusive_known_values():
    assert sched.prob_exclusive(2, 1, 0.5, 4) == pytest.approx(0.5)
    assert sched.prob_exclusive(2, 3, 0.5, 4) == 0.0
    assert sched.prob_exclusive(0, 0, 0.3, 4) == 1.0
    assert sched.prob_exclusive(4, 5, 0.5, 4) == 0.0


def test_prob_exclusive_sums_to_one():
    for p1 in (0.1, 0.5, 0.9):
        for received in range(17):
            total = sum(
                sched.prob_exclusive(received, m, p1, 16) for m in range(17)
            )
            assert abs(total - 1.0) < 1e-12


# ----------------------------------------------------------------- next-send


def test_usefulness_known_values():
    assert sched.usefulness(4, 0, 0.5, 0.1, 4) == pytest.approx(0.9375, abs=1e-12)
    assert sched.usefulness(4, 1, 0.5, 0.1, 4) == pytest.approx(0.7125, abs=1e-12)
    assert sched.usefulness(0, 0, 0.5, 0.1, 4) == 0.0
    assert sched.usefulness(0, 3, 0.5, 0.1, 4) == 0.0


def test_usefulness_matrix_pinned():
    mat = sched.build_matrix(np.array([2, 1, 3, 4, 2]), small_cfg())
    assert mat.shape == (4, 5)
    assert float(np.abs(mat - EXPECTED_MATRIX).max()) <= 5.1e-5


def test_matrix_zero_counts_give_zero_columns():
    mat = sched.build_matrix(np.zeros(6, dtype=int), small_cfg())
    assert not mat.any()


def test_matrix_columns_permute_with_counts():
    cfg = small_cfg()
    counts = np.array([2, 1, 3, 4, 2])
    perm = np.array([3, 0, 4, 1, 2])
    a = sched.build_matrix(counts, cfg)
    b = sched.build_matrix(counts[perm], cfg)
    assert np.array_equal(a[:, perm], b)


def test_matrix_rows_are_cached_across_calls(monkeypatch):
    """Each count's row is computed once per channel: a second matrix of
    the same channel computes no usefulness value again, another channel
    computes its own, and every entry equals usefulness() bit for bit."""
    params = NetworkParams(3, 0.05, 0.37, 0.11, 8, 40)  # no other test's channel
    counts = np.array([0, 3, 8, 3, 5])
    want = np.array(
        [[sched.usefulness(c, u, 0.37, 0.11, 8) for c in counts] for u in range(8)]
    )
    calls = []
    usefulness = sched.usefulness
    monkeypatch.setattr(
        sched, "usefulness", lambda *args: calls.append(args) or usefulness(*args)
    )
    first = sched.build_matrix(counts, params)
    assert len(calls) == 4 * 8  # counts 0, 3, 5 and 8
    again = sched.build_matrix(counts[::-1].copy(), params)
    assert len(calls) == 4 * 8
    assert first.tobytes() == want.tobytes()
    assert again.tobytes() == want[:, ::-1].tobytes()
    other = sched.build_matrix(counts, NetworkParams(3, 0.05, 0.37, 0.12, 8, 40))
    assert len(calls) == 2 * 4 * 8
    assert not np.array_equal(other, first)


def test_matrix_rejects_counts_above_batch_size():
    with pytest.raises(ValueError):
        sched.build_matrix(np.array([5]), small_cfg())


def test_matrix_rejects_negative_counts():
    # a negative count would otherwise index the usefulness table from the end
    with pytest.raises(ValueError):
        sched.build_matrix(np.array([2, -1]), small_cfg())


def test_column_monotone_and_dominance_properties():
    # strict monotonicity holds mathematically for any p1 in (0, 1), but near
    # p1 = 1 the first decrements fall below float64 resolution at values
    # close to 1.0 (e.g. both round to exactly 1.0), so the property is
    # sampled over the range where every gap is representable
    rng = np.random.default_rng(4)
    for _ in range(300):
        m = int(rng.choice([2, 4, 8, 16]))
        p1 = float(rng.uniform(0.05, 0.85))
        p2 = float(rng.uniform(0.02, 0.9))
        col = {
            c: [sched.usefulness(c, u, p1, p2, m) for u in range(m)]
            for c in range(m + 1)
        }
        for c in range(1, m + 1):
            vals = col[c]
            assert all(a > b for a, b in zip(vals, vals[1:])), (m, p1, p2, c)
        for c in range(1, m + 1):
            for u in range(m):
                assert col[c][u] > col[c - 1][u], (m, p1, p2, c, u)


# --------------------------------------------------------------------- queue


def test_queue_pinned_order():
    mat = sched.build_matrix(np.array([2, 1, 3, 4, 2]), small_cfg())
    q = sched.build_queue(mat)
    assert q.tolist() == EXPECTED_QUEUE


def test_queue_shape_and_ordering_invariants():
    rng = np.random.default_rng(21)
    cfg = small_cfg()
    for _ in range(20):
        n = int(rng.integers(1, 12))
        counts = rng.integers(0, 5, size=n)
        mat = sched.build_matrix(counts, cfg)
        q = sched.build_queue(mat)
        assert q.size == 4 * n
        ids, reps = np.unique(q, return_counts=True)
        assert ids.tolist() == list(range(1, n + 1))
        assert all(reps == 4)
        # the j-th send from a batch has usefulness mat[j - 1, batch - 1]
        sent = np.zeros(n, dtype=int)
        values = []
        for b in q - 1:
            values.append(mat[sent[b], b])
            sent[b] += 1
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_queue_single_batch():
    mat = sched.build_matrix(np.array([3]), small_cfg())
    q = sched.build_queue(mat)
    assert q.tolist() == [1, 1, 1, 1]


def test_queue_identical_columns_alternate():
    mat = sched.build_matrix(np.array([3, 3]), small_cfg())
    q = sched.build_queue(mat)
    assert q.tolist() == [1, 2, 1, 2, 1, 2, 1, 2]


# --------------------------------------------------------------- exhaustion


def test_exhaustion_order_follows_last_row():
    mat = sched.build_matrix(np.array([2, 1, 3, 4, 2]), small_cfg())
    assert sched.exhaustion_order(mat).tolist() == [4, 3, 1, 5, 2]
