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
width, each at the band's widest. Firing row-reduces only the batch's
coefficient block on its unresolved contributors (at most M x 2M, with an
identity block recording the row transform) and applies that transform to
the pulled rows in one product. The batches one round of substitutions
finishes while they hold rows (the full-mix and high-degree batches, mostly
all at once when a decoder's last packets resolve) drain together: their
expanded rows are placed over the union of their contributors and pulled in
one product, tall enough for gf.matmul's split-table kernel. Symbolic
constraints keep the same [payload | symbolic] row layout. A fire's surplus
rows, or a drain's rows, enter the symbolic system as one block: reduced
against its pivots in one product, eliminated among themselves in arrival
order, so that each takes the pivot column it would take alone, and
back-substituted into the stored rows in one more product.

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


def _empty_buffers(shape: Tuple[int, ...], batch_size: int, payload_len: int):
    """Operators and raw rows for a shape-sized array of empty buffers.

    Returns (ops, raw) of shapes shape + (M, M) and shape + (M, M + L):
    every residual operator is the identity and every row is zero.
    """
    ops = np.zeros(shape + (batch_size, batch_size), dtype=np.uint8)
    diag = np.arange(batch_size)
    ops[..., diag, diag] = 1
    return ops, np.zeros(shape + (batch_size, batch_size + payload_len), np.uint8)


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

    A packet changes only its own batch's buffers, so recode and absorb
    take any number of packets of distinct batches at once, each in one
    set of array operations.
    """

    def __init__(
        self, num_batches: int, receivers: int, batch_size: int, payload_len: int
    ):
        shape = (num_batches + 1, receivers)
        self.ops, self.raw = _empty_buffers(shape, batch_size, payload_len)
        self.ranks = np.zeros(shape, dtype=np.int64)

    def load_sources(self, delivered: np.ndarray, payloads: np.ndarray) -> None:
        """Load the source broadcast into the still empty buffers.

        delivered is the (n*M, g) mask of which receiver got which source
        packet, batch by batch; payloads holds those packets' (n*M, L)
        payloads, or is None when L is 0. Packet j of a batch is the
        one-hot e_j, so a receiver's rows are its delivered e_j in slot
        order, each its own basis row.
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

    def recode(
        self, bids: np.ndarray, senders: np.ndarray, mix: np.ndarray
    ) -> np.ndarray:
        """Packet t mixes receiver senders[t]'s rows of batch bids[t] by mix[t].

        mix is (T, r), r at most M, and zero past each sender's rank.
        Returns the (T, M + L) packets [coeff | payload]: one gather of the
        mixes' products with the buffered rows, XOR-folded.
        """
        rows = self.raw[bids, senders, : mix.shape[1]]
        prods = gf._MUL_FLAT.take(gf._HIGH.take(mix)[:, :, None] | rows)
        return np.bitwise_xor.reduce(prods, axis=1)

    def absorb(
        self, bids: np.ndarray, full: np.ndarray, delivered: np.ndarray
    ) -> np.ndarray:
        """Receive packet full[t] = [coeff | payload] of batch bids[t] at every
        receiver i with delivered[t, i]; the batches must be distinct.

        Returns the (T, g) mask of receptions that raised a rank. Each
        buffer's operator K reduces coeff to coeff . K, which is zero
        exactly when coeff lies in its span; one gather reduces every
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
        high = gf._HIGH.take(full[t, :m])
        rows = np.bitwise_xor.reduce(
            gf._MUL_FLAT.take(high[:, :, None] | ops), axis=1
        )
        gain = rows.any(axis=1)
        t, i, b, ops, rows = t[gain], i[gain], b[gain], ops[gain], rows[gain]
        n = np.arange(t.size)
        pivots = (rows != 0).argmax(axis=1)
        inv = gf._HIGH.take(gf._INV.take(rows[n, pivots]))
        rows = gf._MUL_FLAT.take(inv[:, None] | rows)
        col = gf._HIGH.take(ops[n, :, pivots])
        ops ^= gf._MUL_FLAT.take(col[:, :, None] | rows[:, None, :])
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
            w[i] = gf.MUL_TABLE[gf._INV[w[i, p]]].take(w[i])
            hit = np.flatnonzero(w[:, p])
            hit = hit[hit != i]
            w[hit] ^= gf.outer(w[hit, p], w[i])
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


class _DecoderBatch:
    """One batch in the decoder; it is finished exactly when u == 0."""

    __slots__ = ("contribs", "gen_t", "raw", "rows", "unres", "u", "queued")

    def __init__(self, desc: BatchDescriptor, payload_len: int, unres: np.ndarray):
        self.contribs, self.gen_t = desc.contribs, desc.gen_t  # shared, read-only
        m = self.gen_t.shape[0]
        # raw[:rows] holds the receptions, [coeff | payload], in arrival
        # order (the layout of BatchBuffers.raw)
        self.raw = np.zeros((m, m + payload_len), dtype=np.uint8)
        self.rows = 0
        self.unres = unres  # view of the decoder's per-slot mask
        self.u = self.contribs.size
        self.queued = False


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
    """

    def __init__(
        self,
        file_packets: int,
        payload_len: int,
        descriptors: Dict[int, BatchDescriptor],
    ):
        self.file_packets = file_packets
        self.payload_len = payload_len
        # one slot per (batch, column), batches in descriptor order; a slot
        # is set while that contributor is unresolved in a pending batch
        degrees = [desc.contribs.size for desc in descriptors.values()]
        starts = np.concatenate([[0], np.cumsum(degrees, dtype=np.int64)])
        self._unres = np.ones(int(starts[-1]), dtype=bool)
        self.batches: Dict[int, _DecoderBatch] = {}
        for i, (bid, desc) in enumerate(descriptors.items()):
            self.batches[bid] = _DecoderBatch(
                desc, payload_len, self._unres[starts[i] : starts[i + 1]]
            )
        # slot -> index into _indexed, the (batch id, batch) pairs in
        # descriptor order
        self._indexed = list(self.batches.items())
        self._slot_batch = np.repeat(np.arange(len(degrees)), degrees)
        # packet -> slots in CSR form: packet p's slots are
        # _inc_slot[_inc_ptr[p]:_inc_ptr[p + 1]], in slot order; that order
        # decides the order batches enter the fire queue, hence the
        # inactivation picks
        slot_pkt = np.concatenate(
            [b.contribs for b in self.batches.values()] + [np.zeros(0, np.int64)]
        )
        self._inc_slot = np.argsort(slot_pkt, kind="stable")
        self._inc_ptr = np.concatenate(
            [[0], np.cumsum(np.bincount(slot_pkt, minlength=file_packets))]
        )
        self.resolved = np.zeros(file_packets, dtype=bool)
        self.resolved_count = 0
        # row p expresses resolved packet p as [base | tails]: its payload is
        # base ^ tails . Z; written once, when p resolves, and zero past
        # column payload_len + width[p], the num_z of that moment
        self.expr = np.zeros((file_packets, payload_len), dtype=np.uint8)
        self.width = np.zeros(file_packets, dtype=np.int64)
        self.num_z = 0
        self.zsys = _ZSystem(payload_len)
        # how many data-bearing pending batches contain each packet
        self.stall_counts = np.zeros(file_packets, dtype=np.int64)
        # batches within two resolutions of becoming solvable; entries may be
        # stale and are rechecked when an inactivation is picked
        self._near: set = set()
        self._fire_queue: List[int] = []
        self._subst_queue: List[int] = []

    # -- feeding ------------------------------------------------------------

    def _grow_tails(self, width: int) -> None:
        cap = self.expr.shape[1] - self.payload_len
        if width > cap:
            new = max(width, 2 * cap, 32)
            self.expr = _grown(self.expr, self.file_packets, self.payload_len + new)

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

    def _watch(self, bid: int, b: _DecoderBatch) -> None:
        """Queue pending batch b if it may fire, or keep it as near."""
        if b.u <= b.rows and not b.queued:
            b.queued = True
            self._fire_queue.append(bid)
        elif b.rows and b.u - b.rows <= 2:
            self._near.add(bid)

    def _feed(self, parts: List[Tuple[int, np.ndarray]]) -> None:
        """Take received rows [coeff | payload]: for each (batch id, rows)
        pair in parts, the (k, M + L) rows of that batch, in order.

        A pending batch stores its rows as they are; the finished ones
        expand theirs and hand them to the Z system in one drain. Every
        shape is checked first, so a malformed reception changes nothing.
        """
        for bid, rows in parts:
            b = self.batches[bid]
            m, width = b.raw.shape
            if rows.shape[1:] != (width,):
                raise ValueError(
                    "rows of batch %d must be [coeff | payload], %d + %d wide"
                    % (bid, m, self.payload_len)
                )
            if b.u and b.rows + len(rows) > m:
                raise ValueError("batch %d holds at most %d rows" % (bid, m))
        finished = []
        for bid, rows in parts:
            b = self.batches[bid]
            if b.u == 0:
                finished.append((b, rows))
                continue
            lo, b.rows = b.rows, b.rows + len(rows)
            b.raw[lo : b.rows] = rows
            if lo == 0:
                np.add.at(self.stall_counts, b.contribs[b.unres], 1)
            self._watch(bid, b)
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

    def _assign(self, pkt: int, row: np.ndarray) -> None:
        """Resolve pkt as row = [base | tails] over the current unknowns."""
        self.expr[pkt, : row.size] = row
        self.width[pkt] = self.num_z
        self.resolved[pkt] = True
        self.resolved_count += 1
        self._subst_queue.append(pkt)

    def _inactivate(self, pkt: int) -> None:
        self.num_z += 1
        self._grow_tails(self.num_z)
        row = np.zeros(self.payload_len + self.num_z, dtype=np.uint8)
        row[-1] = 1
        self._assign(pkt, row)

    def _drain(self, parts: List[Tuple[_DecoderBatch, np.ndarray]]) -> None:
        """Everything the batches constrain is known or symbolic: the rows
        [coeff | payload] of each (batch, rows) pair in parts become
        constraints of the Z system, pair by pair, each in row order.

        The rows are expanded batch by batch, placed over the union of the
        batches' contributors and pulled in one product.
        """
        m = parts[0][0].raw.shape[0]
        union = np.zeros(self.file_packets, dtype=bool)
        for b, _ in parts:
            union[b.contribs] = True
        pkts = np.flatnonzero(union)
        c_rows = np.zeros((sum(len(rows) for _, rows in parts), pkts.size), np.uint8)
        lo = 0
        for b, rows in parts:
            hi = lo + len(rows)
            c_rows[lo:hi, pkts.searchsorted(b.contribs)] = _expand(rows[:, :m], b.gen_t)
            lo = hi
        payloads = np.concatenate([rows[:, m:] for _, rows in parts])
        self.zsys.add(self._pull(c_rows, payloads, pkts))

    def _flush_substitutions(self) -> None:
        """Mark queued resolutions in the pending batches that contain them.

        Bookkeeping, apart from drains: a batch pulls its right-hand side
        when it fires, but the batches this flush finishes while they hold
        rows drain here, together. Batches are visited, and their rows
        drained, in the order the queued packets first reach them.
        """
        pkts = np.array(self._subst_queue, dtype=np.int64)
        self._subst_queue = []
        lo = self._inc_ptr[pkts]
        counts = self._inc_ptr[pkts + 1] - lo
        ends = np.cumsum(counts)
        # every queued packet's CSR range, concatenated in queue order
        pos = np.repeat(lo - ends + counts, counts) + np.arange(ends[-1])
        slots = self._inc_slot[pos]
        slots = slots[self._unres[slots]]
        self._unres[slots] = False
        hit = self._slot_batch[slots]
        hits = np.bincount(hit).tolist()
        finished = []
        # dict keys keep insertion order: the batches in first-hit order
        for i in dict.fromkeys(hit.tolist()):
            bid, b = self._indexed[i]
            b.u -= hits[i]
            if b.u:
                self._watch(bid, b)
            elif b.rows:
                finished.append((b, b.raw[: b.rows]))
        if finished:
            self._drain(finished)

    def _fire(self, bid: int) -> None:
        """Resolve a batch's unresolved contributors from its rows.

        Reduces only the coefficient block [C_active | I]; its right part is
        the row transform, applied to the pulled right-hand side in one
        product. The first u transformed rows resolve the contributors, the
        rest are surplus constraints for the symbolic system. A batch whose
        rows are rank-deficient on its unresolved contributors stays pending.
        """
        b = self.batches[bid]
        b.queued = False
        if b.u == 0 or b.u > b.rows:
            return
        active = np.flatnonzero(b.unres)
        done = np.flatnonzero(~b.unres)
        u, rows, m = active.size, b.rows, b.raw.shape[0]
        c_rows = _expand(b.raw[:rows, :m], b.gen_t)
        rref, pivots = gf.row_reduce(
            np.concatenate([c_rows[:, active], np.eye(rows, dtype=np.uint8)], axis=1)
        )
        if pivots[u - 1] >= u:
            return
        rhs = self._pull(c_rows[:, done], b.raw[:rows, m:], b.contribs[done])
        out = gf.matmul(rref[:, u:], rhs)
        for i in range(u):
            self._assign(int(b.contribs[active[i]]), out[i])
        self.zsys.add(out[u:])
        b.unres[:] = False
        b.u = 0

    def _cascade(self) -> None:
        while self._subst_queue or self._fire_queue:
            if self._subst_queue:
                self._flush_substitutions()
            elif self._fire_queue:
                self._fire(self._fire_queue.pop())

    def _pick_inactivation(self) -> Optional[int]:
        # prefer the packet that unblocks the most batches sitting one or two
        # resolutions short of solvable, weighting one short twice; freeing
        # one tends to chain. Ties go to the lowest packet id.
        if self._near:
            pkts = []
            stale = []
            for bid in self._near:
                b = self.batches[bid]
                gap = b.u - b.rows
                if not b.rows or gap < 1 or gap > 2:
                    stale.append(bid)
                    continue
                unres = b.contribs[b.unres]
                pkts.append(unres)
                if gap == 1:
                    pkts.append(unres)
            self._near.difference_update(stale)
            if pkts:
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
    dec = IncrementalDecoder(file_packets, payload_len, descriptors)
    dec.load_state(buffers, receiver)
    ok = dec.attempt()
    payloads = dec.extract() if ok else None
    return DecodeResult(
        success=ok,
        payloads=payloads,
        unresolved=dec.unresolved,
        inactivated=dec.inactivated,
    )
