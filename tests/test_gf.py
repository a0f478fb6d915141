"""Field arithmetic tests backed by independent bit-twiddling oracles."""

import tracemalloc

import numpy as np
import pytest

from batchcast import gf


def peasant_mul(a: int, b: int) -> int:
    """Shift-and-reduce product, written independently of the table path."""
    p = 0
    while b:
        if b & 1:
            p ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= 0x11D
    return p


def brute_rref(m):
    """Scalar Gauss-Jordan using only the peasant oracle, no library calls.

    Returns (rows, pivot_columns) with the pivot rule gf.row_reduce
    documents: the first row at or below the current one with a nonzero
    entry in the column.
    """
    rows = [list(map(int, r)) for r in m]
    cols = len(rows[0]) if rows else 0
    pivots = []
    rk = 0
    for c in range(cols):
        piv = None
        for r in range(rk, len(rows)):
            if rows[r][c]:
                piv = r
                break
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        inv = next(x for x in range(1, 256) if peasant_mul(rows[rk][c], x) == 1)
        rows[rk] = [peasant_mul(inv, v) for v in rows[rk]]
        for r in range(len(rows)):
            if r != rk and rows[r][c]:
                f = rows[r][c]
                rows[r] = [v ^ peasant_mul(f, w) for v, w in zip(rows[r], rows[rk])]
        pivots.append(c)
        rk += 1
        if rk == len(rows):
            break
    return rows, tuple(pivots)


def brute_rank(m) -> int:
    return len(brute_rref(m)[1])


def test_mul_annihilator_and_identity():
    for a in range(256):
        assert gf.mul(a, 0) == 0
        assert gf.mul(0, a) == 0
        assert gf.mul(a, 1) == a
        assert gf.mul(1, a) == a


def test_mul_frozen_example():
    # 0x80 * 0x02 overflows into the reduction step exactly once
    assert gf.mul(0x80, 0x02) == 0x1D


def test_mul_matches_peasant_oracle_everywhere():
    want = np.zeros((256, 256), dtype=np.uint8)
    for a in range(256):
        for b in range(256):
            want[a, b] = peasant_mul(a, b)
            assert gf.mul(a, b) == want[a, b]
    # broadcasting: scalar by array, and the (T, M, 1) by (T, 1, M) outer
    # products of BatchBuffers.absorb
    x = np.arange(256, dtype=np.uint8)
    for a in range(256):
        assert np.array_equal(gf.mul(a, x), want[a])
        assert np.array_equal(gf.mul(x, a), want[:, a])
    rng = np.random.default_rng(3)
    col = rng.integers(0, 256, (3, 16, 1), dtype=np.uint8)
    row = rng.integers(0, 256, (3, 1, 16), dtype=np.uint8)
    got = gf.mul(col, row)
    assert got.shape == (3, 16, 16) and got.dtype == np.uint8
    assert np.array_equal(got, want[col, row])
    # operands outside the field, either side, scalar or array, are refused
    # rather than wrapped or read off a neighbouring table row
    wide = np.array([1, 300])
    for a, b in [(1, 300), (300, 1), (-1, 1), (1, -1), (wide, 1), (1, -wide)]:
        with pytest.raises(ValueError, match="0 to 255"):
            gf.mul(a, b)


def test_field_axioms_random_triples():
    rng = np.random.default_rng(7)
    a = rng.integers(0, 256, 10_000)
    b = rng.integers(0, 256, 10_000)
    c = rng.integers(0, 256, 10_000)
    ab = gf.mul(a, b)
    assert np.array_equal(ab, gf.mul(b, a))
    assert np.array_equal(gf.mul(ab, c), gf.mul(a, gf.mul(b, c)))
    left = gf.mul(a, b ^ c)
    assert np.array_equal(left, gf.mul(a, b) ^ gf.mul(a, c))
    assert np.array_equal(a ^ b, b ^ a)
    assert np.array_equal((a ^ b) ^ c, a ^ (b ^ c))


def test_inverses():
    for a in range(1, 256):
        assert gf.mul(a, gf.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        gf.inv(0)
    a = np.arange(1, 256, dtype=np.uint8).reshape(15, 17)
    assert np.array_equal(gf.mul(a, gf.inv(a)), np.ones(a.shape, dtype=np.uint8))
    assert gf.inv(np.zeros(0, dtype=np.uint8)).shape == (0,)
    for zero_at in (0, 100, 254):
        b = np.arange(1, 256, dtype=np.uint8)
        b[zero_at] = 0
        with pytest.raises(ZeroDivisionError):
            gf.inv(b)
    for bad in (-1, 256, np.array([3, -1]), np.array([3, 256])):
        with pytest.raises(ValueError, match="0 to 255"):
            gf.inv(bad)


def test_rank_identity_and_zero():
    for m in (1, 4, 8, 16):
        assert gf.rank(np.eye(m, dtype=np.uint8)) == m
    assert gf.rank(np.zeros((5, 9), dtype=np.uint8)) == 0


def test_rank_constructed_dependency():
    rng = np.random.default_rng(11)
    m = rng.integers(0, 256, (4, 8)).astype(np.uint8)
    m[2] = m[0] ^ m[1]
    assert gf.rank(m) == 3


def test_rank_matches_brute_force_small():
    rng = np.random.default_rng(13)
    for _ in range(300):
        r = int(rng.integers(1, 9))
        c = int(rng.integers(1, 9))
        m = rng.integers(0, 256, (r, c)).astype(np.uint8)
        if rng.random() < 0.3 and r >= 2:
            m[-1] = m[0] ^ gf.mul(int(rng.integers(0, 256)), m[min(1, r - 1)])
        assert gf.rank(m) == brute_rank(m)


def test_row_reduce_idempotent():
    rng = np.random.default_rng(17)
    for _ in range(50):
        m = rng.integers(0, 256, (6, 10)).astype(np.uint8)
        red, piv = gf.row_reduce(m)
        again, piv2 = gf.row_reduce(red)
        assert np.array_equal(red, again)
        assert piv == piv2


def _deficient(rng, r, c, rank):
    """(r, c) matrix of the given rank: random rows mixed from rank rows."""
    basis = rng.integers(0, 256, (rank, c), dtype=np.uint8)
    mix = rng.integers(0, 256, (r, rank), dtype=np.uint8)
    return gf.matmul(mix, basis)


ROW_REDUCE_CASES = {
    "rank-deficient": lambda rng: _deficient(rng, 7, 10, 4),
    "deficient-tall": lambda rng: _deficient(rng, 9, 6, 3),
    "zero-columns": lambda rng: rng.integers(0, 256, (5, 9), dtype=np.uint8)
    * (np.arange(9) % 3 != 1).astype(np.uint8),
    "all-zero": lambda rng: np.zeros((4, 6), dtype=np.uint8),
    "more-rows-than-columns": lambda rng: rng.integers(0, 256, (12, 5), dtype=np.uint8),
    "1xn": lambda rng: rng.integers(0, 256, (1, 9), dtype=np.uint8),
    "nx1": lambda rng: rng.integers(0, 256, (7, 1), dtype=np.uint8),
    "leading-zeros": lambda rng: np.concatenate(
        [np.zeros((6, 2), np.uint8), rng.integers(0, 3, (6, 8), dtype=np.uint8)], axis=1
    ),
    # [C | I], the block the decoder reduces when a batch fires
    "fire-16x32": lambda rng: np.concatenate(
        [rng.integers(0, 256, (16, 16), dtype=np.uint8), np.eye(16, dtype=np.uint8)],
        axis=1,
    ),
    "fire-deficient-12x24": lambda rng: np.concatenate(
        [_deficient(rng, 12, 12, 9), np.eye(12, dtype=np.uint8)], axis=1
    ),
    "fire-11x219": lambda rng: rng.integers(0, 256, (11, 219), dtype=np.uint8),
}


@pytest.mark.parametrize("case", sorted(ROW_REDUCE_CASES))
def test_row_reduce_matches_scalar_gauss_jordan(case):
    for seed in range(3):
        rng = np.random.default_rng([seed, len(case)])
        m = ROW_REDUCE_CASES[case](rng)
        red, piv = gf.row_reduce(m)
        want, want_piv = brute_rref(m)
        assert piv == want_piv
        assert np.array_equal(red, np.array(want, dtype=np.uint8).reshape(m.shape))


def test_pivot_on_a_column_view_matches_a_scalar_step():
    """gf.pivot on w[:, c:], the view the eliminations pass, scales row i
    and clears the pivot column as one step of brute_rref does, and leaves
    the columns left of the view alone."""
    rng = np.random.default_rng(41)
    for _ in range(40):
        r, cols = int(rng.integers(1, 8)), int(rng.integers(2, 12))
        w = rng.integers(0, 256, (r, cols), dtype=np.uint8)
        c = int(rng.integers(0, cols))
        p = int(rng.integers(0, cols - c))
        i = int(rng.integers(0, r))
        w[i, c + p] = rng.integers(1, 256)
        rows = [list(map(int, row)) for row in w]
        inv = next(x for x in range(1, 256) if peasant_mul(rows[i][c + p], x) == 1)
        rows[i][c:] = [peasant_mul(inv, v) for v in rows[i][c:]]
        for j in range(r):
            f = rows[j][c + p]
            if j != i and f:
                rows[j][c:] = [
                    v ^ peasant_mul(f, x) for v, x in zip(rows[j][c:], rows[i][c:])
                ]
        gf.pivot(w[:, c:], i, p)
        assert np.array_equal(w, np.array(rows, dtype=np.uint8))


def test_outer_matches_table():
    rng = np.random.default_rng(37)
    for r, c in [(0, 4), (3, 0), (1, 1), (16, 27), (200, 264)]:
        col = rng.integers(0, 256, r, dtype=np.uint8)
        row = rng.integers(0, 256, c, dtype=np.uint8)
        got = gf.outer(col, row)
        assert got.shape == (r, c) and got.dtype == np.uint8
        assert np.array_equal(got, gf.MUL_TABLE[col[:, None], row[None, :]])


def reference_matmul(a, b):
    """a @ b as one MUL_TABLE outer product per inner index, XOR-summed."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for j in range(a.shape[1]):
        out ^= gf.MUL_TABLE[a[:, j][:, None], b[j][None, :]]
    return out


@pytest.mark.parametrize("r, k, c", [(1, 1, 1), (4, 6, 5), (9, 0, 3), (7, 33, 70)])
def test_vecmat_matches_reference(r, k, c):
    """2-D operands, and the stacked (T, r) by (T, r, c) products of
    BatchBuffers.recode and absorb, one reference product per t."""
    rng = np.random.default_rng(r * 100 + k * 10 + c)
    a = rng.integers(0, 256, (r, k), dtype=np.uint8)
    b = rng.integers(0, 256, (k, c), dtype=np.uint8)
    got = gf.vecmat(a, b)
    assert got.shape == (r, c) and got.dtype == np.uint8
    assert np.array_equal(got, reference_matmul(a, b))
    stacked = rng.integers(0, 256, (r, k, c), dtype=np.uint8)
    got = gf.vecmat(a, stacked)
    assert got.shape == (r, c)
    for t in range(r):
        assert np.array_equal(got[t], reference_matmul(a[t : t + 1], stacked[t])[0])


def test_reference_matmul_matches_scalar_products():
    rng = np.random.default_rng(5)
    a = rng.integers(0, 256, (4, 6), dtype=np.uint8)
    b = rng.integers(0, 256, (6, 5), dtype=np.uint8)
    want = np.zeros((4, 5), dtype=np.uint8)
    for i in range(4):
        for j in range(5):
            for t in range(6):
                want[i, j] ^= peasant_mul(int(a[i, t]), int(b[t, j]))
    assert np.array_equal(reference_matmul(a, b), want)


CHUNK = gf._CHUNK_ELEMS
ROWS, MULTS = gf._SPLIT_ROWS, gf._SPLIT_MULTS
# rows of b per split-table chunk of a 32 x k by k x 64 product
TALL_STEP = gf._split_step(32, 8)
# rows of b per block of split tables of a 32 x k by k x 64 product
TABLE_ROWS = TALL_STEP * (gf._TABLE_BYTES // (128 * 8 * TALL_STEP))


def edge(r, c):
    """The least inner dimension that sends an (r, k) by (k, c) product, r
    at least ROWS, through split tables."""
    return max(2, MULTS // (r * c) + 1)


def splits(r, k, c):
    return r >= ROWS and k >= edge(r, c)


@pytest.mark.parametrize(
    "r, k, c",
    [
        (0, 5, 3),  # empty dimensions
        (3, 0, 4),
        (3, 5, 0),
        (7, 1, 9),  # k = 1
        (4, 3 * (CHUNK // 32) + 5, 8),  # k-chunks of CHUNK // 32, the last short
        (CHUNK // 128 + 1, 3, 128),
        (CHUNK // 128 + 1, 2, 128),  # r * c > CHUNK: one inner index per chunk
        (16, 1600, 214),
        (1600, 150, 64),
        # split tables from ROWS rows and r * k * c > MULTS on: both sides
        # of the rule, c not a multiple of 8, k = 1, empty dimensions, and
        # k-chunks of TALL_STEP rows of b, the last short
        (ROWS - 1, 300, 67),
        (ROWS, edge(ROWS, 67) - 1, 67),
        (ROWS, edge(ROWS, 67), 67),
        (16, edge(16, 61) - 1, 61),
        (16, edge(16, 61), 61),
        (16, edge(16, 3) - 1, 3),
        (16, edge(16, 3), 3),
        (31, edge(31, 67) - 1, 67),
        (31, edge(31, 67), 67),
        (31, 300, 67),
        (32, 300, 67),
        (32, 1, 9),
        (MULTS, 1, 9),
        (MULTS // 18 + 1, 2, 9),
        (32, 0, 9),
        (32, 9, 0),
        (32, 2 * TALL_STEP + 7, 64),
        # both sides of the earlier rule, r * k >= 1200, which the new one
        # moves to either kernel
        (8, 149, 67),
        (8, 150, 67),
        (16, 74, 61),
        (16, 75, 61),
        (16, 100, 3),
        (31, 38, 67),
        (31, 39, 67),
        (600, 2, 9),
        (1200, 1, 9),
        # several blocks of split tables, each of several k-chunks, the
        # last block and chunk short
        (32, 2 * TABLE_ROWS + TALL_STEP + 5, 64),
        (90, 1600, 61),
    ],
)
def test_matmul_matches_reference(r, k, c):
    rng = np.random.default_rng(r * 1_000_003 + k * 1009 + c)
    a = rng.integers(0, 256, (r, k), dtype=np.uint8)
    b = rng.integers(0, 256, (k, c), dtype=np.uint8)
    got = gf.matmul(a, b)
    assert got.shape == (r, c) and got.dtype == np.uint8
    assert np.array_equal(got, reference_matmul(a, b))


def test_split_tables_are_built_once_per_block(monkeypatch):
    """A tall product builds the split tables of b block by block, each
    block serving several k-chunks of the gathers, the last block and chunk
    short; the product still equals the reference."""
    built = []
    split_tables = gf._split_tables
    monkeypatch.setattr(
        gf, "_split_tables", lambda b, w: built.append(len(b)) or split_tables(b, w)
    )
    rng = np.random.default_rng(77)
    k = 2 * TABLE_ROWS + TALL_STEP + 5
    a = rng.integers(0, 256, (32, k), dtype=np.uint8)
    b = rng.integers(0, 256, (k, 64), dtype=np.uint8)
    assert np.array_equal(gf.matmul(a, b), reference_matmul(a, b))
    assert TABLE_ROWS >= 2 * TALL_STEP
    assert built == [TABLE_ROWS, TABLE_ROWS, TALL_STEP + 5]


def test_matmul_memory_is_bounded():
    # gathering every product at once would take 1600 * 150 * 64 bytes
    # (15 MB) here; the chunked kernel stays at a few MB
    rng = np.random.default_rng(8)
    a = rng.integers(0, 256, (1600, 150), dtype=np.uint8)
    b = rng.integers(0, 256, (150, 64), dtype=np.uint8)
    tracemalloc.start()
    try:
        gf.matmul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_matmul_matches_reference_on_random_shapes():
    """Shapes drawn on both sides of the split-table rule, most with c not a
    multiple of 8."""
    rng = np.random.default_rng(31)
    tall = 0
    for _ in range(60):
        r = int(rng.integers(1, 5 * ROWS))
        k = int(rng.integers(1, 150))
        c = int(rng.integers(1, 90))
        a = rng.integers(0, 256, (r, k), dtype=np.uint8)
        b = rng.integers(0, 256, (k, c), dtype=np.uint8)
        got = gf.matmul(a, b)
        assert got.shape == (r, c) and got.flags.c_contiguous
        assert np.array_equal(got, reference_matmul(a, b)), (r, k, c)
        tall += splits(r, k, c)
    assert 20 <= tall <= 40


@pytest.mark.parametrize("r", [ROWS - 1, ROWS, 31, 32, 101])
@pytest.mark.parametrize(
    "fill_a, fill_b", [(0, None), (None, 0), (255, 255), (255, None), (None, 255)]
)
def test_matmul_constant_operands(r, fill_a, fill_b):
    """All-zero and all-255 operands (every nibble 0, or 15 with the top
    bit set), at inner dimensions on both sides of the split-table rule."""
    rng = np.random.default_rng(r)
    c = 21
    for k in (edge(r, c) - 1, edge(r, c)):
        a = rng.integers(0, 256, (r, k), dtype=np.uint8)
        b = rng.integers(0, 256, (k, c), dtype=np.uint8)
        if fill_a is not None:
            a[:] = fill_a
        if fill_b is not None:
            b[:] = fill_b
        assert np.array_equal(gf.matmul(a, b), reference_matmul(a, b))
