"""Batch-structured fountain coding over GF(2^8).

The outer code picks, per batch, a random degree-d subset of the file and a
random d x M generator; the source emits the M resulting packets with one-hot
coefficient vectors. Peers recode freely inside a batch, so a receiver only
ever tracks an M-wide coefficient space per batch. Joint decoding peels
batches whose unresolved contributors fit under the received rank, falls back
to marking packets as symbolic unknowns when peeling stalls, and closes the
symbolic system by elimination at the end. That fallback makes the decoder
exact: it recovers the file precisely when the stacked linear system has full
rank, and otherwise reports exactly how many packets remain undetermined.

Structure comes first, numbers second. A batch keeps its receptions as
received, [coeff | payload] rows over its M-wide coefficient space, and
expands their coefficients over its contributors (coeff . G^T) only when it
fires or drains, or when rows arrive after it did. Resolving a packet only
updates the unresolved counts of the batches that contain it; when a batch
fires (or drains into the symbolic system) it pulls its right-hand side
once: the product of its rows' coefficients on its resolved contributors
with those contributors' [payload | symbolic] expressions. A packet's
expression is only as wide as the symbolic unknowns that existed when it
resolved, so a pull multiplies its contributors in a few bands of similar
width, each at the band's widest. A firing batch lays its expanded rows out
as [C_active | C_done | payload], its unresolved contributors first, and
eliminates that block on the active columns only, stopping after their
pivots; the one pull of the transformed C_done then gives the resolved
packets' expressions, written in one array assignment, and the surplus
rows' constraints. The batches one round of substitutions finishes while
they hold rows (the full-mix and high-degree batches, mostly all at once
when a decoder's last packets resolve) drain together: their expanded rows
are placed over the union of their contributors and pulled in one product,
tall enough for gf.matmul's split-table kernel. Symbolic constraints keep
the same [payload | symbolic] row layout. A fire's surplus rows, or a
drain's rows, enter the symbolic system as one block: reduced against its
pivots in one product, eliminated among themselves in arrival order, so
that each takes the pivot column it would take alone, and back-substituted
into the stored rows in one more product.

Batch bookkeeping lives in arrays: per batch, the rows it holds, its count
of unresolved contributors and whether it waits to fire. One count over
the batches a round of substitutions reaches updates them all, and the
inactivation rule reads the batches one or two resolutions short off the
same arrays. The structure behind them (which packet sits in which batch,
and the reverse) is a DecoderIndex, built once per descriptor set and
shared by every decoder of a session.

Descriptors never travel. Each batch's degree, contributor set, and generator
are redrawn from a deterministic stream seeded by (session seed, batch id),
in that draw order, so a two-byte batch id in the packet header is enough for
any receiver to rebuild them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import gf


# ------------------------------------------------------------------ packets

# Batch ids run from 1 and travel as a 2-byte header field (">H").
MAX_BATCHES = 0xFFFF


# ------------------------------------------------------- degree distribution


class DegreeDistribution:
    """Probability vector over batch degrees 1..max_degree."""

    def __init__(self, psi):
        psi = np.asarray(psi, dtype=float)
        if psi.ndim != 1 or psi.size == 0:
            raise ValueError("psi must be a nonempty 1-D probability vector")
        if not (np.isfinite(psi).all() and (psi >= 0).all()):
            raise ValueError("degree probabilities must be finite and nonnegative")
        total = float(psi.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(
                "degree probabilities must sum to 1 within 1e-9, got %.12f" % total
            )
        self.psi = psi
        support = np.nonzero(psi)[0]
        self._degrees = support + 1
        # exact renormalization so the sampler never trips on float residue
        self._probs = psi[support] / psi[support].sum()
        # the CDF Generator.choice(p=...) rebuilds on every call
        self._cdf = self._probs.cumsum()
        self._cdf /= self._cdf[-1]

    @property
    def max_degree(self) -> int:
        return int(self._degrees[-1])

    def sample(self, rng: np.random.Generator) -> int:
        """Same double, same degree as rng.choice(degrees, p=probs)."""
        return int(self._degrees[self._cdf.searchsorted(rng.random(), side="right")])

    def to_file(self, path: str) -> None:
        """Write one "degree probability" pair per line."""
        with open(path, "w") as fh:
            for d, p in zip(self._degrees, self._probs):
                fh.write("%d %.17g\n" % (d, p))

    @classmethod
    def from_file(cls, path: str) -> "DegreeDistribution":
        degrees: List[int] = []
        probs: List[float] = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise ValueError(
                        "%s:%d: expected 'degree probability'" % (path, lineno)
                    )
                d = int(parts[0])
                p = float(parts[1])
                if d < 1:
                    raise ValueError("%s:%d: degree must be >= 1" % (path, lineno))
                degrees.append(d)
                probs.append(p)
        if not degrees:
            raise ValueError("%s: no degree entries" % path)
        psi = np.zeros(max(degrees))
        for d, p in zip(degrees, probs):
            psi[d - 1] += p
        return cls(psi)


def design_distribution(
    file_packets: int, batches: int, batch_size: int
) -> DegreeDistribution:
    """Degree law sized for a planned transmission.

    Two ingredients. An inverse-square ramp over [d_lo, F] spreads batch
    release points across the whole peeling timeline: a degree-d batch
    becomes solvable once its unresolved count falls to its received rank,
    so the ramp is anchored just above the rank a batch is expected to hold
    when decoding starts, right above F worth of rank: 1.01 F / n (the
    natural spread of realized ranks lets the lowest ramp degrees start the
    cascade). It decays slowly enough that batches keep releasing until the
    very end. On top of that, a sliver of full-mix batches (degree F)
    guarantees every packet is covered by received equations, which is what
    keeps the reception overhead needed for full rank near zero; sized so
    that even rare plans draw several.
    """
    f, n, m = file_packets, batches, batch_size
    if f < 1 or n < 1 or m < 1:
        raise ValueError("file_packets, batches, batch_size must be positive")
    if f <= m:
        psi = np.zeros(f)
        psi[f - 1] = 1.0
        return DegreeDistribution(psi)
    r = min(max(1.01 * f / n, 2.0), float(m))
    d_lo = min(max(4, int(math.ceil(r)) + 2), m, f)
    w_cov = min(0.25, 12.0 / n)
    degrees = np.arange(d_lo, f + 1, dtype=float)
    ramp = 1.0 / (degrees * degrees)
    ramp *= (1.0 - w_cov) / ramp.sum()
    psi = np.zeros(f)
    psi[d_lo - 1 :] = ramp
    psi[f - 1] += w_cov
    return DegreeDistribution(psi)


# ---------------------------------------------------------------- descriptor


@dataclass
class BatchDescriptor:
    """Recipe for one batch, in the arrays the encoder and decoders multiply:
    contribs, its d distinct 0-based file indices (int64), and gen_t, the
    M x d transpose of its generator. Both are read-only, so decoders share
    them."""

    contribs: np.ndarray
    gen_t: np.ndarray

    def __post_init__(self):
        for name, dtype in (("contribs", np.int64), ("gen_t", np.uint8)):
            a = np.ascontiguousarray(getattr(self, name), dtype=dtype).view()
            a.flags.writeable = False
            setattr(self, name, a)
        if self.gen_t.ndim != 2 or self.gen_t.shape[1] != self.contribs.size:
            raise ValueError("gen_t must have one column per contributor")


def descriptor_rng(session_seed: int, batch_id: int) -> np.random.Generator:
    """Deterministic per-batch stream shared by source and receivers."""
    return np.random.default_rng(np.random.SeedSequence((session_seed, batch_id)))


def make_descriptor(
    file_packets: int,
    dist: DegreeDistribution,
    rng: np.random.Generator,
    batch_size: int,
) -> BatchDescriptor:
    """Draw a batch recipe: degree, then contributors, then generator."""
    d = dist.sample(rng)
    if d > file_packets:
        raise ValueError(
            "degree %d exceeds the file's %d packets" % (d, file_packets)
        )
    contribs = rng.choice(file_packets, size=d, replace=False)
    generator = rng.integers(0, 256, size=(d, batch_size), dtype=np.uint8)
    return BatchDescriptor(contribs, generator.T)


# --------------------------------------------------------------- batch state


class BatchState:
    """One receiver's buffer for one batch, on its own: the one-packet case
    of BatchBuffers, kept as a group of one batch and one receiver at
    index (0, 0). absorb takes a packet as BatchBuffers.absorb does, one
    [coeff | payload] row.
    """

    __slots__ = ("batch_id", "buffers")

    def __init__(self, batch_id: int, batch_size: int, payload_len: int):
        self.batch_id = batch_id
        self.buffers = BatchBuffers(0, 1, batch_size, payload_len)

    @property
    def rank(self) -> int:
        return int(self.buffers.ranks[0, 0])

    def absorb(self, row: np.ndarray) -> bool:
        """Keep the row [coeff | payload] iff it raises this batch's rank."""
        width = self.buffers.raw.shape[-1]
        if np.shape(row) != (width,):
            raise ValueError(
                "row has shape %s, expected (%d,) [coeff | payload]"
                % (np.shape(row), width)
            )
        one = np.ones((1, 1), dtype=bool)
        return bool(self.buffers.absorb(np.zeros(1, np.intp), row[None], one)[0, 0])


class BatchBuffers:
    """Every receiver's buffer for every batch, in batch-major arrays.

    ops[b, i], raw[b, i] and ranks[b, i] are receiver i's operator, rows
    and rank for batch b (index 0 is unused, batch ids run from 1), so
    ops[b] is the stack a batch-b packet reduces against for every
    receiver. A buffer keeps every innovative row raw, in arrival order,
    for recoding and decoding: the first ranks[b, i] rows of the
    M x (M + L) array raw[b, i] are the rows [coeff | payload] that raised
    its rank, and the rest are zero. Their span is kept as the M x M
    residual operator ops = I ^ B, where B is their reduced row echelon
    form: row p of B is the basis row with pivot column p (zero in every
    other pivot column), and rows of non-pivot columns are zero. A vector c
    reduces to c . ops, and a full buffer has ops = 0.

    distinct[b] is how many of batch b's source packets at least one
    receiver holds, the rank of the group's union for that batch. Packets
    after the source broadcast are recoded from what receivers hold, so no
    rank can pass it.

    A packet changes only its own batch's buffers, so recode and absorb
    take any number of packets of distinct batches at once, each in one
    set of array operations.
    """

    def __init__(
        self, num_batches: int, receivers: int, batch_size: int, payload_len: int
    ):
        shape = (num_batches + 1, receivers)
        self.ops = np.zeros(shape + (batch_size, batch_size), dtype=np.uint8)
        diag = np.arange(batch_size)
        self.ops[..., diag, diag] = 1
        self.raw = np.zeros(shape + (batch_size, batch_size + payload_len), np.uint8)
        self.ranks = np.zeros(shape, dtype=np.int64)
        self.distinct = np.zeros(num_batches + 1, dtype=np.int64)

    def load_sources(self, delivered: np.ndarray, payloads: np.ndarray) -> None:
        """Load the source broadcast into the still empty buffers.

        delivered is the (n*M, g) mask of which receiver got which source
        packet, batch by batch; payloads holds those packets' (n*M, L)
        payloads, or is None when L is 0. Packet j of a batch is the
        one-hot e_j, so a receiver's rows are its delivered e_j in slot
        order, each its own basis row, and distinct counts the e_j some
        receiver got.
        """
        n, g, m = self.ops.shape[0] - 1, self.ops.shape[1], self.ops.shape[2]
        hit = delivered.reshape(n, m, g).transpose(0, 2, 1)
        b, i, j = hit.nonzero()
        row = (hit.cumsum(axis=2) - 1)[b, i, j]
        self.raw[b + 1, i, row, j] = 1
        if payloads is not None:
            self.raw[b + 1, i, row, m:] = payloads[b * m + j]
        self.ops[b + 1, i, j, j] = 0
        self.ranks[1:] = hit.sum(axis=2)
        self.distinct[1:] = hit.any(axis=1).sum(axis=1)

    def recode(
        self, bids: np.ndarray, senders: np.ndarray, mix: np.ndarray
    ) -> np.ndarray:
        """Packet t mixes receiver senders[t]'s rows of batch bids[t] by mix[t].

        mix is (T, r), r at most M, and zero past each sender's rank.
        Returns the (T, M + L) packets [coeff | payload], all in one
        gf.vecmat of the mixes with the buffered rows.
        """
        return gf.vecmat(mix, self.raw[bids, senders, : mix.shape[1]])

    def absorb(
        self, bids: np.ndarray, full: np.ndarray, delivered: np.ndarray
    ) -> np.ndarray:
        """Receive packet full[t] = [coeff | payload] of batch bids[t] at every
        receiver i with delivered[t, i]; the batches must be distinct.

        Returns the (T, g) mask of receptions that raised a rank. Each
        buffer's operator K reduces coeff to coeff . K, which is zero
        exactly when coeff lies in its span; one gf.vecmat reduces every
        packet against each buffer it reached that is short of full rank
        (a full one has K = 0). A nonzero reduced row r, scaled to 1 at its
        first nonzero column p, updates K ^= outer(K[:, p], r): the reduced
        basis gains r as row p, and every other basis row loses its
        pivot-column entry. The buffer keeps full as its next raw row.
        """
        m = self.ops.shape[-1]
        t, i = (delivered & (self.ranks[bids] < m)).nonzero()
        b = bids[t]
        ops = self.ops[b, i]
        rows = gf.vecmat(full[t, :m], ops)
        gain = rows.any(axis=1)
        t, i, b, ops, rows = t[gain], i[gain], b[gain], ops[gain], rows[gain]
        n = np.arange(t.size)
        pivots = (rows != 0).argmax(axis=1)
        rows = gf.mul(gf.inv(rows[n, pivots])[:, None], rows)
        ops ^= gf.mul(ops[n, :, pivots][:, :, None], rows[:, None, :])
        self.ops[b, i] = ops
        self.raw[b, i, self.ranks[b, i]] = full[t]
        self.ranks[b, i] += 1
        innovative = np.zeros(delivered.shape, dtype=bool)
        innovative[t, i] = True
        return innovative


def recode(state: BatchState, rng: np.random.Generator) -> np.ndarray:
    """Random nonzero combination of everything buffered for the batch.

    Returns the (M + L,) row [coeff | payload]. The mix is one
    rng.integers(0, 256, size=rank, dtype=np.uint8) draw, drawn again while
    it is all zero; the product is BatchBuffers.recode for one packet.
    """
    rank = state.rank
    if rank == 0:
        raise ValueError("cannot recode from an empty batch buffer")
    while True:
        mix = rng.integers(0, 256, size=rank, dtype=np.uint8)
        if np.count_nonzero(mix):
            break
    return state.buffers.recode([0], [0], mix[None])[0]


def encode_batch(file: gf.SplitTables, desc: BatchDescriptor) -> np.ndarray:
    """The (M, L) source payloads of desc's batch; packet j has coefficients e_j.

    file holds the split tables of the (F, L) file, which every batch of a
    session multiplies, so they are built once for all of them.
    """
    return file.matmul(desc.gen_t, desc.contribs)


# ------------------------------------------------------------------ decoding


@dataclass
class DecodeResult:
    success: bool
    payloads: Optional[np.ndarray]
    unresolved: int
    inactivated: int


def _grown(a: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """a copied into the top-left corner of a zero (rows, cols) array."""
    out = np.zeros((rows, cols), dtype=a.dtype)
    out[: a.shape[0], : a.shape[1]] = a
    return out


class _ZSystem:
    """Incremental elimination over the symbolic unknowns.

    Rows are constraints [b | z] from surplus receptions, meaning z . Z = b,
    in the decoder's [payload | Z] layout, so one product reduces payload
    and symbolic columns together. Kept fully reduced so rank queries are
    free and the final solve is a read-off. Rows arrive in blocks; storage is
    preallocated and doubles on demand, in rows and in symbolic columns, so
    accepting rows does not copy the system.
    """

    def __init__(self, payload_len: int):
        self.payload_len = payload_len
        self.width = 0
        self._rows = np.zeros((16, payload_len + 16), dtype=np.uint8)
        self.pivot_cols: List[int] = []

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    @property
    def rows(self) -> np.ndarray:
        return self._rows[: self.rank, : self.payload_len + self.width]

    def _reserve(self, count: int, width: int) -> None:
        """Room for count more rows, and for width symbolic columns."""
        self.width = max(self.width, width)
        rows, cols = self._rows.shape
        while self.rank + count > rows:
            rows *= 2
        zcap = cols - self.payload_len
        if self.width > zcap:
            cols = self.payload_len + max(self.width, 2 * zcap)
        if (rows, cols) != self._rows.shape:
            self._rows = _grown(self._rows, rows, cols)

    def add(self, block: np.ndarray) -> int:
        """Take the (k, w) rows of block, in order; returns how many of them
        raised the rank.

        The block is reduced against the stored pivots in one product, then
        eliminated within itself in row order, so that each row takes the
        pivot column it would take added alone; the stored rows are then
        reduced against the new ones in one product. An inconsistent row
        raises before anything changes.
        """
        lp = self.payload_len
        k, size = block.shape
        if k == 0:
            return 0
        width = max(self.width, size - lp)
        w = np.zeros((k, lp + width), dtype=np.uint8)
        w[:, :size] = block
        old = self.rows
        factors = w[:, lp:][:, self.pivot_cols]
        if factors.any():
            w[:, : old.shape[1]] ^= gf.matmul(factors, old)
        pivots, kept = [], []
        for i in range(k):
            nz = np.flatnonzero(w[i, lp:])
            if nz.size == 0:
                if w[i].any():
                    raise gf.InconsistentSystemError(
                        "received data is internally inconsistent"
                    )
                continue
            p = lp + int(nz[0])
            gf.pivot(w, i, p)
            pivots.append(p - lp)
            kept.append(i)
        self._reserve(len(kept), width)
        if kept:
            new = w[kept]
            old = self.rows
            factors = old[:, lp + np.array(pivots)]
            if factors.any():
                old ^= gf.matmul(factors, new)
            self._rows[self.rank : self.rank + len(kept), : new.shape[1]] = new
            self.pivot_cols.extend(pivots)
        return len(kept)

    def solve(self, num_z: int) -> np.ndarray:
        if self.rank != num_z:
            raise gf.UnderdeterminedSystemError(
                "symbolic system is not fully determined"
            )
        out = np.zeros((num_z, self.payload_len), dtype=np.uint8)
        out[self.pivot_cols] = self.rows[:, : self.payload_len]
        return out


def _expand(coeffs: np.ndarray, gen_t: np.ndarray) -> np.ndarray:
    """Rows' coefficients over their batch's contributors: coeffs . gen_t.

    A unit row e_j (every source packet, so all of phase 1) is row j of
    gen_t; only the other rows need the product.
    """
    out = gen_t[coeffs.argmax(axis=1)]
    unit = coeffs.sum(axis=1) == 1
    if not unit.all():
        out[~unit] = gf.matmul(coeffs[~unit], gen_t)
    return out


def _eliminate(block: np.ndarray, u: int) -> bool:
    """Row-reduce block in place on its first u columns only, to the
    identity in its first u rows and zero in the rest, pivoting on the first
    row with a nonzero entry as gf.row_reduce does; False as soon as one of
    those columns has no pivot, the block then being partly reduced.
    """
    for c in range(u):
        if not block[c, c]:
            nz = np.flatnonzero(block[c:, c])
            if nz.size == 0:
                return False
            r = c + int(nz[0])
            block[[c, r]] = block[[r, c]]
        # rows c.. are zero left of column c, so only columns c.. change
        gf.pivot(block[:, c:], c, 0)
    return True


# a pull over at least _BAND_MIN contributors multiplies them in _BANDS
# width bands
_BAND_MIN = 256
_BANDS = 8


def _width_bands(widths: np.ndarray) -> list:
    """Index groups to multiply at their widest member's width: _BANDS
    equal-count groups in width order from _BAND_MIN entries up, else one."""
    if widths.size < _BAND_MIN:
        return [slice(None)]
    return np.array_split(np.argsort(widths), _BANDS)


class DecoderIndex:
    """The structure of a descriptor set, built once and read by every
    decoder of it, as the descriptors' arrays are.

    Batches are numbered in descriptor order: pos maps a batch id to its
    number i, whose contributors and generator transpose are contribs[i]
    and gen_t[i] (the descriptor's own read-only arrays). Every batch has
    one slot per contributor, numbered batch by batch: batch i's slots are
    starts[i]:starts[i + 1], one per entry of contribs[i], and slot s is in
    batch slot_batch[s]. Packet p's slots are inc_slot[inc_ptr[p]:inc_ptr[p + 1]],
    in slot order; that order decides the order batches enter a decoder's
    fire queue, hence its inactivation picks. Every array is read-only.
    """

    def __init__(self, descriptors: Dict[int, BatchDescriptor], file_packets: int):
        self.file_packets = file_packets
        self.pos = {bid: i for i, bid in enumerate(descriptors)}
        self.contribs = [desc.contribs for desc in descriptors.values()]
        self.gen_t = [desc.gen_t for desc in descriptors.values()]
        sizes = {g.shape[0] for g in self.gen_t}
        if len(sizes) > 1:
            raise ValueError("batches of one decoder must share a batch size")
        self.batch_size = sizes.pop() if sizes else 0
        degrees = [c.size for c in self.contribs]
        self.starts = np.concatenate([[0], np.cumsum(degrees, dtype=np.int64)])
        self.slot_batch = np.repeat(np.arange(len(degrees)), degrees)
        slot_pkt = np.concatenate(self.contribs + [np.zeros(0, np.int64)])
        self.inc_slot = np.argsort(slot_pkt, kind="stable")
        self.inc_ptr = np.concatenate(
            [[0], np.cumsum(np.bincount(slot_pkt, minlength=file_packets))]
        )
        for a in (self.starts, self.slot_batch, self.inc_slot, self.inc_ptr):
            a.flags.writeable = False


class IncrementalDecoder:
    """Joint decoder fed innovative receptions as [coeff | payload] rows: a
    receiver's buffers at once (load_state), then one row at a time
    (add_row).

    attempt() advances peeling as far as possible, marking packets symbolic
    when nothing can peel, and reports whether the file is fully determined.
    State persists between attempts, so feeding more receptions and retrying
    is cheap. Right after an attempt, unresolved equals file_packets minus
    the rank of every constraint received so far; rows fed since then count
    only from the next attempt, and before the first one it is
    file_packets.

    The structure comes from index, a DecoderIndex shared with the other
    decoders of the same descriptors. Per batch number i the decoder keeps
    its received rows _raw[i, :_rows[i]], [coeff | payload] in arrival order
    (the layout of BatchBuffers.raw), its count _u[i] of unresolved
    contributors (the batch is finished exactly when it is 0) and whether
    it waits in the fire queue (_queued[i]).
    """

    def __init__(self, index: DecoderIndex, payload_len: int):
        self.index = index
        self.file_packets = file_packets = index.file_packets
        self.payload_len = payload_len
        m = index.batch_size
        self._raw = np.zeros((len(index.contribs), m, m + payload_len), np.uint8)
        self._rows = np.zeros(len(index.contribs), dtype=np.int64)
        self._u = np.diff(index.starts)
        self._queued = np.zeros(len(index.contribs), dtype=bool)
        # one per slot, set while that contributor is unresolved in a
        # pending batch
        self._unres = np.ones(int(index.starts[-1]), dtype=bool)
        self.resolved = np.zeros(file_packets, dtype=bool)
        self.resolved_count = 0
        # row p expresses resolved packet p as [base | tails]: its payload is
        # base ^ tails . Z; written once, when p resolves, and zero past
        # column payload_len + width[p], the num_z of that moment
        self.expr = np.zeros((file_packets, payload_len), dtype=np.uint8)
        self.width = np.zeros(file_packets, dtype=np.int64)
        self.num_z = 0
        self.zsys = _ZSystem(payload_len)
        # per packet, how many batches holding rows contained it unresolved
        # when their first row arrived; never decremented, so it also counts
        # batches that have since fired or drained
        self.stall_counts = np.zeros(file_packets, dtype=np.int64)
        # batch numbers waiting to fire, taken last in, first out
        self._fire_queue: List[int] = []
        # resolved packets not yet marked in the batches that contain them
        self._subst_queue: List[int] = []

    # -- feeding ------------------------------------------------------------

    def _grow_tails(self, width: int) -> None:
        cap = self.expr.shape[1] - self.payload_len
        if width > cap:
            new = max(width, 2 * cap, 32)
            self.expr = _grown(self.expr, self.file_packets, self.payload_len + new)

    def _unresolved(self, i: int) -> np.ndarray:
        """Batch i's unresolved contributors."""
        starts = self.index.starts
        return self.index.contribs[i][self._unres[starts[i] : starts[i + 1]]]

    def _pull(self, c_rows: np.ndarray, payloads, pkts: np.ndarray) -> np.ndarray:
        """[payload | Z coefficients] of rows once resolved pkts are known.

        c_rows holds the rows' coefficients on pkts, payloads their received
        payloads. Each contributor is multiplied only as wide as it resolved:
        a pull over _BAND_MIN or more contributors sorts them by width and
        multiplies _BANDS equal-count bands, each at its widest member's
        width; a smaller pull is one band.
        """
        lp = self.payload_len
        rhs = np.zeros((c_rows.shape[0], lp + self.num_z), dtype=np.uint8)
        rhs[:, :lp] = payloads
        widths = self.width[pkts]
        for sel in _width_bands(widths):
            end = lp + int(widths[sel].max(initial=0))
            rhs[:, :end] ^= gf.matmul(c_rows[:, sel], self.expr[pkts[sel], :end])
        return rhs

    def _feed(self, parts: List[Tuple[int, np.ndarray]]) -> None:
        """Take received rows [coeff | payload]: for each (batch id, rows)
        pair in parts, the (k, M + L) rows of that batch, in order; the
        batches are distinct.

        A pending batch stores its rows as they are and is queued once it
        holds as many rows as it has unresolved contributors; the finished
        ones expand theirs and hand them to the Z system in one drain. Every
        shape is checked first, so a malformed reception changes nothing.
        """
        m, width = self._raw.shape[1:]
        batches = []
        for bid, rows in parts:
            i = self.index.pos[bid]
            if rows.shape[1:] != (width,):
                raise ValueError(
                    "rows of batch %d must be [coeff | payload], %d + %d wide"
                    % (bid, m, self.payload_len)
                )
            if self._u[i] and self._rows[i] + len(rows) > m:
                raise ValueError("batch %d holds at most %d rows" % (bid, m))
            batches.append(i)
        finished = []
        for i, (_, rows) in zip(batches, parts):
            u = self._u[i]
            if u == 0:
                finished.append((i, rows))
                continue
            lo = self._rows[i]
            hi = self._rows[i] = lo + len(rows)
            self._raw[i, lo:hi] = rows
            if lo == 0:
                self.stall_counts[self._unresolved(i)] += 1
            if u <= hi and not self._queued[i]:
                self._queued[i] = True
                self._fire_queue.append(i)
        if finished:
            self._drain(finished)

    def add_row(self, batch_id: int, row: np.ndarray) -> None:
        """Feed one innovative reception, the row [coeff | payload]."""
        self._feed([(batch_id, row[None])])

    def load_state(self, buffers: BatchBuffers, receiver: int) -> None:
        """Feed every row receiver holds in buffers: batches in id order,
        each batch's rows in arrival order."""
        ranks = buffers.ranks[:, receiver].tolist()
        raw = buffers.raw[:, receiver]
        self._feed([(bid, raw[bid, :r]) for bid, r in enumerate(ranks) if r])

    # -- resolution ---------------------------------------------------------

    def _resolve(self, pkts: np.ndarray, rows: np.ndarray) -> None:
        """Resolve pkts[j] as rows[j] = [base | tails] over the current
        unknowns."""
        self.expr[pkts, : rows.shape[1]] = rows
        self.width[pkts] = self.num_z
        self.resolved[pkts] = True
        self.resolved_count += len(pkts)
        self._subst_queue.extend(pkts.tolist())

    def _inactivate(self, pkt: int) -> None:
        self.num_z += 1
        self._grow_tails(self.num_z)
        row = np.zeros((1, self.payload_len + self.num_z), dtype=np.uint8)
        row[0, -1] = 1
        self._resolve(np.array([pkt]), row)

    def _drain(self, parts: List[Tuple[int, np.ndarray]]) -> None:
        """Everything the batches constrain is known or symbolic: the rows
        [coeff | payload] of each (batch number, rows) pair in parts become
        constraints of the Z system, pair by pair, each in row order.

        The rows are expanded batch by batch, placed over the union of the
        batches' contributors and pulled in one product.
        """
        m = self.index.batch_size
        contribs, gen_t = self.index.contribs, self.index.gen_t
        union = np.zeros(self.file_packets, dtype=bool)
        for i, _ in parts:
            union[contribs[i]] = True
        pkts = np.flatnonzero(union)
        c_rows = np.zeros((sum(len(rows) for _, rows in parts), pkts.size), np.uint8)
        lo = 0
        for i, rows in parts:
            hi = lo + len(rows)
            cols = pkts.searchsorted(contribs[i])
            c_rows[lo:hi, cols] = _expand(rows[:, :m], gen_t[i])
            lo = hi
        payloads = np.concatenate([rows[:, m:] for _, rows in parts])
        self.zsys.add(self._pull(c_rows, payloads, pkts))

    def _flush_substitutions(self) -> None:
        """Mark queued resolutions in the pending batches that contain them.

        Bookkeeping, apart from drains: one count per batch takes every
        hit off u at once. Python then visits only the hit batches left
        with u <= rows, in the order the queued packets first reach them:
        it queues those that are still pending to fire, unless they wait
        already, and drains here, together, those finished while they hold
        rows.
        """
        pkts = np.array(self._subst_queue, dtype=np.int64)
        self._subst_queue = []
        ix = self.index
        lo = ix.inc_ptr[pkts]
        counts = ix.inc_ptr[pkts + 1] - lo
        ends = np.cumsum(counts)
        # every queued packet's CSR range, concatenated in queue order
        pos = np.repeat(lo - ends + counts, counts) + np.arange(ends[-1])
        slots = ix.inc_slot[pos]
        slots = slots[self._unres[slots]]
        self._unres[slots] = False
        hit = ix.slot_batch[slots]
        self._u -= np.bincount(hit, minlength=self._u.size)
        ready = self._u[hit] <= self._rows[hit]
        if not ready.any():
            return
        finished = []
        # dict keys keep insertion order: the batches in first-hit order
        for i in dict.fromkeys(hit[ready].tolist()):
            if self._u[i]:
                if not self._queued[i]:
                    self._queued[i] = True
                    self._fire_queue.append(i)
            elif self._rows[i]:
                finished.append((i, self._raw[i, : self._rows[i]]))
        if finished:
            self._drain(finished)

    def _fire(self, i: int) -> None:
        """Resolve batch i's u unresolved contributors from its rows.

        Its expanded rows are laid out as the block
        [C_active | C_done | payload], active (unresolved) contributors
        first, and eliminated on the u active columns only. If they have
        full column rank, the block's first u rows are [I | T C_done |
        T payload] and the rest [0 | S C_done | S payload]: one pull of
        (T C_done) and (S C_done) with the done contributors' expressions
        resolves the active contributors and leaves surplus constraints
        for the symbolic system. A batch whose rows are rank-deficient on
        its unresolved contributors stays pending, before any pull.
        """
        self._queued[i] = False
        u, rows = int(self._u[i]), int(self._rows[i])
        if u == 0 or u > rows:
            return
        ix = self.index
        m, contribs = ix.batch_size, ix.contribs[i]
        unres = self._unres[ix.starts[i] : ix.starts[i + 1]]
        # active columns first, then done ones, each in column order
        order = np.argsort(~unres, kind="stable")
        raw = self._raw[i, :rows]
        c_rows = _expand(raw[:, :m], ix.gen_t[i])
        block = np.concatenate((c_rows[:, order], raw[:, m:]), axis=1)
        if not _eliminate(block, u):
            return
        d = contribs.size
        out = self._pull(block[:, u:d], block[:, d:], contribs[order[u:]])
        self._resolve(contribs[order[:u]], out[:u])
        self.zsys.add(out[u:])
        unres[:] = False
        self._u[i] = 0

    def _cascade(self) -> None:
        while self._subst_queue or self._fire_queue:
            if self._subst_queue:
                self._flush_substitutions()
            elif self._fire_queue:
                self._fire(self._fire_queue.pop())

    def _pick_inactivation(self) -> Optional[int]:
        # prefer the packet that unblocks the most batches holding rows one
        # or two resolutions short of solvable, weighting one short twice;
        # freeing one tends to chain. Ties go to the lowest packet id.
        gap = self._u - self._rows
        near = np.flatnonzero((self._rows > 0) & (gap >= 1) & (gap <= 2))
        if near.size:
            pkts = []
            for i, g in zip(near.tolist(), gap[near].tolist()):
                unres = self._unresolved(i)
                pkts += (unres, unres) if g == 1 else (unres,)
            return int(np.bincount(np.concatenate(pkts)).argmax())
        masked = np.where(self.resolved, -1, self.stall_counts)
        pkt = int(np.argmax(masked))
        if masked[pkt] <= 0:
            return None
        return pkt

    def attempt(self) -> bool:
        """Push decoding as far as current receptions allow."""
        self._cascade()
        while self.resolved_count < self.file_packets:
            pkt = self._pick_inactivation()
            if pkt is None:
                return False
            self._inactivate(pkt)
            self._cascade()
        return self.zsys.rank == self.num_z

    @property
    def unresolved(self) -> int:
        return (self.file_packets - self.resolved_count) + (
            self.num_z - self.zsys.rank
        )

    @property
    def inactivated(self) -> int:
        return self.num_z

    def extract(self) -> np.ndarray:
        """Concrete payloads after a successful attempt.

        Packet p's payload is base ^ tails . Z with its tails width[p]
        wide, so packets are multiplied in width bands, as a pull does.
        """
        z = self.zsys.solve(self.num_z)
        lp = self.payload_len
        out = self.expr[:, :lp].copy()
        for sel in _width_bands(self.width):
            width = int(self.width[sel].max(initial=0))
            if width:
                out[sel] ^= gf.matmul(self.expr[sel, lp : lp + width], z[:width])
        return out


def decode(
    buffers: BatchBuffers,
    receiver: int,
    descriptors: Dict[int, BatchDescriptor],
    file_packets: int,
) -> DecodeResult:
    """One-shot joint decode of every row receiver holds in buffers."""
    payload_len = buffers.raw.shape[-1] - buffers.ops.shape[-1]
    dec = IncrementalDecoder(DecoderIndex(descriptors, file_packets), payload_len)
    dec.load_state(buffers, receiver)
    ok = dec.attempt()
    payloads = dec.extract() if ok else None
    return DecodeResult(
        success=ok,
        payloads=payloads,
        unresolved=dec.unresolved,
        inactivated=dec.inactivated,
    )
