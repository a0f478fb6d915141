"""Arithmetic and dense linear algebra over the 256-element binary field.

All coefficient math in this package happens in GF(2^8) with reduction
polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D). Addition is XOR. Multiplication
goes through a precomputed 256x256 product table so that the matrix kernels
below reduce to vectorized numpy gathers plus XOR folds, which is what keeps
the simulator fast on a single core. No other module reads that table:
mul broadcasts its operands through it and inv takes an array as well as a
scalar; vecmat(a, b), a[..., k] . b[..., k, c] over any broadcast leading
axes, is the gather kernel, one gather and one XOR fold; and pivot is the
step of every elimination, row_reduce here and the decoder's in codec.

A product of at least 8 rows with enough multiplications (r * k * c above
50000) goes through 4-bit split tables instead (Plank, Greenan and Miller,
"Screaming Fast Galois Field Arithmetic Using Intel SIMD Instructions",
FAST 2013): since a * b_j = lo(a) * b_j ^ x^4 * (hi(a) * b_j)
for the nibbles lo(a) and hi(a) of a, the 16 multiples v * b_j of each row of
the right operand, built by doubling on uint64 words, serve every row of the
left operand. The gathers then move whole rows of eight-byte words, and the
sum of the high-nibble products is multiplied by x^4 once at the end.
SplitTables keeps the tables of a whole matrix, so that many products with
selections of its rows (the source's batches, all over one file) pay for
them once.
"""

from __future__ import annotations

import numpy as np

REDUCTION_POLY = 0x11D
ORDER = 256


class GFLinearAlgebraError(ValueError):
    """Base class for solve failures."""


class UnderdeterminedSystemError(GFLinearAlgebraError):
    """The coefficient matrix has rank smaller than its column count."""


class InconsistentSystemError(GFLinearAlgebraError):
    """No assignment satisfies the given system."""


def _build_tables():
    # 0x02 is primitive for 0x11D, so repeated doubling enumerates all
    # nonzero elements.
    exp = np.zeros(510, dtype=np.uint8)
    log = np.zeros(ORDER, dtype=np.int64)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= REDUCTION_POLY
    exp[255:] = exp[:255]

    a = np.arange(ORDER)
    table = exp[log[a][:, None] + log[a][None, :]].astype(np.uint8)
    table[0, :] = 0
    table[:, 0] = 0

    inv = np.zeros(ORDER, dtype=np.uint8)
    inv[1:] = exp[255 - log[1:]]
    return exp, log, table, inv


_EXP, _LOG, MUL_TABLE, _INV = _build_tables()

# MUL_TABLE flattened: the product a * b sits at index (a << 8) | b.
_MUL_FLAT = MUL_TABLE.ravel()
# a << 8 for every element a: where a's row of products starts in _MUL_FLAT
_HIGH = np.arange(ORDER, dtype=np.uint16) << 8
# the dtype of operands that need no range check
_U8 = np.dtype(np.uint8)
# matmul gathers at most this many products at once (one k-slice more when a
# single slice is already larger), so its memory stays bounded by the output.
_CHUNK_ELEMS = 1 << 16
# an (r, k) by (k, c) product goes through split tables when r >= _SPLIT_ROWS,
# k >= 2 and r * k * c > _SPLIT_MULTS. Split-table time over gather time
# depends on all three: replaying every product of at least 8 rows and an
# inner dimension of at least 2 from three ex2-payload sessions and one
# k9-robust session (3436 products, 2-core x86_64), its median was 3.7
# below r * k * c = 10000, 2.0 up to 20000, 1.4 up to 40000, 1.1 up to
# 60000, 0.8 up to 100000 and 0.5 above 200000. Over those products this
# rule took 0.324 s, against 0.346 s for the earlier rule r * k >= 1200 and
# 0.323 s for the faster kernel of each. Below 8 rows the gather kernel won
# at every k up to 400; at k = 1 the final x^4 fold alone costs as much as
# the gather.
_SPLIT_ROWS = 8
_SPLIT_MULTS = 50000
# the split-table kernel gathers about this many bytes per k-chunk (a chunk
# is cut as if a had at least 32 rows); twice as many ran 5% to 10% faster
# on drain-sized products but added 0.5 MB to ex2-payload's peak RSS
_TALL_CHUNK_BYTES = 1 << 19
# a product through split tables builds them once per block of rows of b
# whose tables (16 multiples per row) take about this many bytes, not once
# per k-chunk; a block is a whole number of k-chunks
_TABLE_BYTES = 1 << 20
_LOW7 = np.uint64(0x7F7F7F7F7F7F7F7F)
_LSB = np.uint64(0x0101010101010101)


def _elements(x):
    """x as table indices: a uint8 array or scalar, which can only hold
    field elements, or an int in range, as it is; anything else once
    checked to lie in 0..255."""
    if getattr(x, "dtype", None) is _U8 or (isinstance(x, int) and 0 <= x < ORDER):
        return x
    x = np.asarray(x)
    bad = x[(x < 0) | (x >= ORDER)]
    if bad.size:
        raise ValueError("field elements run from 0 to 255, got %s" % bad[0])
    return x


def mul(a, b):
    """Field product of scalars or of arrays that broadcast together; raises
    ValueError for an operand outside 0..255."""
    out = _MUL_FLAT.take(_HIGH.take(_elements(a)) | _elements(b))
    # take gives a numpy scalar for scalar operands; asking np.isscalar
    # instead costs about 0.7 us a call, on the receive buffers' hot path
    return out if isinstance(out, np.ndarray) else int(out)


def add(a, b):
    """Field sum (XOR); provided for symmetry."""
    out = np.bitwise_xor(a, b)
    if np.isscalar(a) and np.isscalar(b):
        return int(out)
    return out


def inv(a):
    """Multiplicative inverse of a scalar, or of every entry of an array;
    raises ValueError for an entry outside 0..255."""
    out = _INV.take(_elements(a))
    # _INV maps 0, and only 0, to 0; count_nonzero costs a third of all()
    if np.count_nonzero(out) < out.size:
        raise ZeroDivisionError("0 has no multiplicative inverse")
    return out if isinstance(out, np.ndarray) else int(out)


def outer(col: np.ndarray, row: np.ndarray) -> np.ndarray:
    """col[i] * row[j] over the field, as an (r, c) array."""
    # table rows for col, then their columns for row: two contiguous takes
    # beat gathering from index pairs at every size the decoder uses
    return MUL_TABLE.take(col, axis=0).take(row, axis=1)


def vecmat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[..., k] . b[..., k, c] over the field, the leading axes
    broadcasting: one gather of every product, XOR-folded over k."""
    prods = _MUL_FLAT.take(_HIGH.take(a)[..., None] | b)
    return np.bitwise_xor.reduce(prods, axis=-2)


def pivot(w: np.ndarray, i: int, p: int) -> None:
    """Scale row i of w to 1 at column p and clear column p from every
    other row, in place.

    One outer product: row j gains q[j] times row i, with
    q[j] = w[j, p] / w[i, p], except row i itself, where 1 ^ q[i] =
    1 / w[i, p] scales it. w may be any column view of a matrix; columns
    where row i is zero keep their entries.
    """
    scale = _INV[w[i, p]]
    q = MUL_TABLE[scale].take(w[:, p])
    q[i] = scale ^ 1
    w ^= outer(q, w[i])


def _times_x(w: np.ndarray) -> np.ndarray:
    """x times each byte of the uint64 words w."""
    carry = (w >> np.uint64(7)) & _LSB
    return ((w & _LOW7) << np.uint64(1)) ^ (carry * np.uint64(REDUCTION_POLY & 0xFF))


def _split_tables(b: np.ndarray, words: int) -> np.ndarray:
    """Row 16 j + v is v * b[j], for v < 16, as words uint64 words."""
    k, c = b.shape
    t = np.zeros((k, 16, 8 * words), dtype=np.uint8)
    t[:, 1, :c] = b
    t = t.view(np.uint64)
    for v in (2, 4, 8):
        t[:, v] = _times_x(t[:, v // 2])
        t[:, v + 1 : 2 * v] = t[:, v : v + 1] ^ t[:, 1:v]
    return t.reshape(16 * k, words)


def _split_step(r: int, words: int) -> int:
    """Rows of b per k-chunk of a split-table product with r rows."""
    return max(1, _TALL_CHUNK_BYTES // (8 * max(r, 32) * words))


def _split_matmul(
    a: np.ndarray, t: np.ndarray, first: np.ndarray, c: int
) -> np.ndarray:
    """a @ b, b being (k, c), through split tables t of b, in k-chunks.

    Row first[j] + v of t is v * b[j], as t.shape[1] uint64 words, for
    each of the k entries of first. a is transposed so that each gather is
    (k-chunk, r, words) and its XOR fold over the chunk runs along whole
    r x words planes.
    """
    r, k = a.shape
    words = t.shape[1]
    step = _split_step(r, words)
    a_t = np.ascontiguousarray(a.T)
    low = np.zeros((r, words), dtype=np.uint64)
    high = np.zeros((r, words), dtype=np.uint64)
    for s in range(0, k, step):
        coef = a_t[s : s + step]
        base = first[s : s + step, None]
        low ^= np.bitwise_xor.reduce(t.take((coef & 15) | base, axis=0), axis=0)
        high ^= np.bitwise_xor.reduce(t.take((coef >> 4) | base, axis=0), axis=0)
    out = low.view(np.uint8)
    out ^= MUL_TABLE[16].take(high.view(np.uint8))  # x^4 is 16
    return np.ascontiguousarray(out[:, :c])


def _matmul_tall(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b through split tables of b: the XOR of the products of blocks
    of rows of b, each block's tables built once for all its k-chunks."""
    k, c = b.shape
    words = -(-c // 8)
    step = _split_step(a.shape[0], words)
    rows = step * max(1, _TABLE_BYTES // (128 * words * step))
    # row 16 j of a block's tables starts the multiples of its j-th row of b
    first = np.arange(min(rows, k), dtype=np.intp) << 4
    out = np.zeros((a.shape[0], c), dtype=np.uint8)
    for s in range(0, k, rows):
        e = min(s + rows, k)
        t = _split_tables(b[s:e], words)
        out ^= _split_matmul(a[:, s:e], t, first[: e - s], c)
    return out


class SplitTables:
    """The split tables of every row of a (k, c) matrix b, built once.

    matmul(a, rows) is a @ b[rows]: two gathers over the rows' tables per
    k-chunk. A matrix without columns keeps no tables.
    """

    def __init__(self, b: np.ndarray):
        self.shape = b.shape
        words = -(-b.shape[1] // 8)
        self._t = _split_tables(b, words) if words else None

    def matmul(self, a: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """a @ b[rows]; a is (r, len(rows))."""
        if self._t is None:
            return np.zeros((a.shape[0], self.shape[1]), dtype=np.uint8)
        first = np.asarray(rows, dtype=np.intp) << 4
        return _split_matmul(a, self._t, first, self.shape[1])


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the field; a is (r, k), b is (k, c)."""
    r, k = a.shape
    k2, c = b.shape
    if k != k2:
        raise ValueError("inner dimensions differ: %d vs %d" % (k, k2))
    if k == 0 or r == 0 or c == 0:
        return np.zeros((r, c), dtype=np.uint8)
    if r >= _SPLIT_ROWS and k > 1 and r * k * c > _SPLIT_MULTS:
        return _matmul_tall(a, b)
    # Products are taken from the flat table in k-chunks of about
    # _CHUNK_ELEMS (r, step, c) elements each and XOR-folded into the result;
    # a product that fits in one chunk is a single gather.
    step = max(1, _CHUNK_ELEMS // (r * c))
    out = vecmat(a[:, :step], b[:step])
    for s in range(step, k, step):
        out ^= vecmat(a[:, s : s + step], b[s : s + step])
    return out


def row_reduce(m: np.ndarray):
    """Reduced row echelon form.

    Returns (rref, pivot_columns). Pivoting picks the first row with a
    nonzero entry in the current column; there is no magnitude to compare in
    a finite field.
    """
    a = np.array(m, dtype=np.uint8, copy=True)
    if a.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        if not a[r, c]:
            nz = np.flatnonzero(a[r:, c])
            if nz.size == 0:
                continue
            p = r + nz[0]
            a[[r, p]] = a[[p, r]]
        # rows r.. are zero left of column c, so only columns c.. change
        pivot(a[:, c:], r, 0)
        pivots.append(c)
        r += 1
    return a, tuple(pivots)


def rank(m: np.ndarray) -> int:
    """Number of linearly independent rows."""
    a = np.asarray(m, dtype=np.uint8)
    if a.size == 0:
        return 0
    return len(row_reduce(a)[1])
