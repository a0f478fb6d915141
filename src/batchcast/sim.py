"""Monte-Carlo engine for the two-phase cooperative broadcast protocol.

Phase 1 sends every batch's source packets through a channel with one
correlated loss draw shared by the group plus an independent per-user draw.
Phase 2 lets users repair each other: each slot, one user transmits a
recoded packet from the batch its usefulness queue names next, every other
user receives it independently, and decoding runs incrementally until the
whole group has the file. A transmission changes only its own batch's
buffers, so consecutive transmissions of distinct batches advance together:
they are recoded, delivered and absorbed as one window of array operations,
with the outcome of one transmission at a time.

Randomness is split into tagged substreams of the session seed (file bytes,
phase-1 channel, phase-2 channel, recode mixing, access policy), so a report
is bit-identical given the same seed and configuration, and the coded
session (descriptors, payloads) is shared across channel realizations.
Phase 1 reads its channel draws in one call, recode mix bytes come in
blocks and phase-2 deliveries a window at a time; they are the same
numbers, in the same order, as one draw per packet.
"""

from dataclasses import dataclass, replace
from functools import cached_property
from typing import AbstractSet, Dict, List, Optional, Tuple

import numpy as np

from . import codec, gf
from .analytics import NetworkParams, carried_packets, optimize_batches
from .sched import build_matrix, build_queue, exhaustion_order

_FILE_TAG = 0
_PHASE1_TAG = 1
_PHASE2_TAG = 2
_MIX_TAG = 3
_ACCESS_TAG = 4
_SINGLE_TAG = 5


class SimulationStallError(RuntimeError):
    """Raised when phase 2 hits its slot cap or can no longer finish."""


def _substream(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, tag)))


@dataclass
class CodingSession:
    """Source-side coding context shared by every user and channel run.

    descriptors is the one draw of every batch's descriptor, made on first
    read: the source encodes from it and every decoder holds its arrays,
    through decoder_index, which is also built once.
    """

    file_packets: int
    batch_size: int
    num_batches: int
    payload_len: int
    seed: int
    dist: codec.DegreeDistribution
    file: np.ndarray

    def source_payloads(self, bids) -> np.ndarray:
        """The (M, L) source payloads of batches bids, stacked in that order.

        The file's split tables are built once for the call, and freed when
        it returns.
        """
        file = gf.SplitTables(self.file)
        m = self.batch_size
        out = np.empty((len(bids) * m, self.payload_len), dtype=np.uint8)
        for i, bid in enumerate(bids):
            out[i * m : (i + 1) * m] = codec.encode_batch(file, self.descriptors[bid])
        return out

    @cached_property
    def descriptors(self) -> Dict[int, codec.BatchDescriptor]:
        """Every batch's descriptor by batch id, in id order, each drawn from
        its batch's stream on the first read."""
        return {
            bid: codec.make_descriptor(
                self.file_packets,
                self.dist,
                codec.descriptor_rng(self.seed, bid),
                self.batch_size,
            )
            for bid in range(1, self.num_batches + 1)
        }

    @cached_property
    def decoder_index(self) -> codec.DecoderIndex:
        """The structure of the descriptors, built on first read and shared
        by every decoder of the session."""
        return codec.DecoderIndex(self.descriptors, self.file_packets)


def new_session(
    params: NetworkParams,
    seed: int,
    num_batches: int,
    payload_len: int = 0,
    dist: Optional[codec.DegreeDistribution] = None,
) -> CodingSession:
    if num_batches < 0:
        raise ValueError("num_batches must be nonnegative")
    if num_batches > codec.MAX_BATCHES:
        raise ValueError(
            "num_batches=%d exceeds the %d batches a batch id can name"
            % (num_batches, codec.MAX_BATCHES)
        )
    if dist is None:
        dist = codec.design_distribution(
            params.file_packets, max(num_batches, 1), params.batch_size
        )
    file = _substream(seed, _FILE_TAG).integers(
        0, 256, (params.file_packets, payload_len), dtype=np.uint8
    )
    return CodingSession(
        file_packets=params.file_packets,
        batch_size=params.batch_size,
        num_batches=num_batches,
        payload_len=payload_len,
        seed=seed,
        dist=dist,
        file=file,
    )


@dataclass
class UserState:
    """Everything one receiver accumulates across both phases."""

    user_id: int
    # the group's session-wide buffers
    buffers: codec.BatchBuffers
    queue: Optional[np.ndarray] = None
    tail: Optional[np.ndarray] = None
    queue_pos: int = 0
    tail_pos: int = 0
    decoder: Optional[codec.IncrementalDecoder] = None
    decoded: bool = False
    decode_slot: int = -1
    receptions: int = 0
    innovative: int = 0
    redundant: int = 0
    innovative_at_decode: int = -1

    def batch_ranks(self) -> np.ndarray:
        return self.buffers.ranks[1:, self.user_id].copy()


@dataclass
class SimReport:
    """Counters and distributions from one full protocol run."""

    seed: int
    num_users: int
    num_batches: int
    phase1_tx: int
    phase2_tx: int
    total_tx: int
    decode_slots: List[int]
    innovative_at_decode: List[int]
    innovative: List[int]
    redundant: List[int]
    receptions: List[int]
    rank_distribution: np.ndarray
    trace: Optional[List[Tuple]] = None

    @property
    def redundant_total(self) -> int:
        return int(sum(self.redundant))


def make_users(num_users: int, session: CodingSession) -> List[UserState]:
    buffers = codec.BatchBuffers(
        session.num_batches, num_users, session.batch_size, session.payload_len
    )
    return [UserState(user_id=uid, buffers=buffers) for uid in range(num_users)]


# uint32 words read from the mix stream at a time
_DRAW_BLOCK = 1 << 14


def phase1_deliveries(
    num_packets: int, num_users: int, params: NetworkParams, rng: np.random.Generator
) -> np.ndarray:
    """(num_packets, num_users) delivery mask of the source broadcast.

    Each packet reads one shared loss draw and, only if it survives that
    draw, one draw per user. One read of num_packets * (1 + k) doubles
    holds every packet's draws in that order; the stream may be read past
    the last packet.
    """
    k = num_users
    draws = rng.random(num_packets * (1 + k))
    lost = (draws < params.loss_common).tolist()
    rows, starts, pos = [], [], 0
    for pkt in range(num_packets):
        if lost[pos]:
            pos += 1
        else:
            rows.append(pkt)
            starts.append(pos + 1)
            pos += 1 + k
    mask = np.zeros((num_packets, k), dtype=bool)
    own = draws[np.array(starts, dtype=np.intp)[:, None] + np.arange(k)]
    mask[rows] = own >= params.loss_source
    return mask


def run_phase1(
    session: CodingSession,
    users: List[UserState],
    params: NetworkParams,
    rng: np.random.Generator,
) -> int:
    """Broadcast every batch once into empty buffers; returns n*M.

    Source packets are one-hot and distinct: every delivery is innovative.
    Without payloads nothing is encoded, so no descriptor is drawn here.
    """
    n, m = session.num_batches, session.batch_size
    mask = phase1_deliveries(n * m, len(users), params, rng)
    payloads = None
    if session.payload_len and n:
        payloads = session.source_payloads(range(1, n + 1))
    users[0].buffers.load_sources(mask, payloads)
    for u, count in zip(users, mask.sum(axis=0).tolist()):
        u.receptions += count
        u.innovative += count
    return n * m


def _check_group_bound(buffers: codec.BatchBuffers, bids: np.ndarray) -> None:
    """Raise if a user holds more of a batch in bids than the group received.

    The first offender is named by batch in bids order, then by user.
    """
    ranks, distinct = buffers.ranks, buffers.distinct
    over = ranks[bids] > distinct[bids, None]
    if not over.any():
        return
    j, uid = np.argwhere(over)[0]
    bid = int(bids[j])
    raise RuntimeError(
        "user %d holds rank %d for batch %d but the group only ever "
        "received %d distinct packets"
        % (uid, ranks[bid, uid], bid, distinct[bid])
    )


def _mark_decoded(u: UserState, slot: int) -> None:
    u.decoded = True
    u.decode_slot = slot
    u.innovative_at_decode = u.innovative


def prepare_phase2(
    session: CodingSession,
    users: List[UserState],
    params: NetworkParams,
    observe: Optional[List[int]] = None,
) -> None:
    """Queues for every sender, decoders for every observed user."""
    everyone = set(range(len(users)))
    watch = everyone if observe is None else set(observe)
    if not watch <= everyone:
        raise ValueError(
            "observe names users outside range(%d): %s"
            % (len(users), sorted(watch - everyone))
        )
    n = session.num_batches
    # one matrix for the whole group, so each count's row is computed once;
    # its columns are the users' ranks, user by user
    matrix = build_matrix(users[0].buffers.ranks[1 : n + 1].T.ravel(), params)
    for u in users:
        own = matrix[:, u.user_id * n : (u.user_id + 1) * n]
        u.queue = build_queue(own)
        u.tail = exhaustion_order(own)
        if u.user_id in watch:
            u.decoder = codec.IncrementalDecoder(
                session.decoder_index, session.payload_len
            )
            u.decoder.load_state(u.buffers, u.user_id)
            if u.innovative >= session.file_packets and u.decoder.attempt():
                _mark_decoded(u, 0)


# what _next_send returns for a slot that must open a new window (batch ids
# run from 1)
_CUT = 0


def _next_send(
    u: UserState, ranks: np.ndarray, sent: AbstractSet[int]
) -> Optional[int]:
    """Next batch this user can actually recode from, or None.

    Advances the user's queue and tail past every batch it examines. When
    it would examine a batch in sent, it returns _CUT instead and leaves
    both positions as they were.
    """
    held = ranks[:, u.user_id]
    queue, pos = u.queue, u.queue_pos
    while pos < queue.size:
        bid = int(queue[pos])
        pos += 1
        if bid in sent:
            return _CUT
        if held[bid]:
            u.queue_pos = pos
            return bid
    tail, tail_pos = u.tail, u.tail_pos
    for _ in range(tail.size):
        bid = int(tail[tail_pos % tail.size])
        tail_pos += 1
        if bid in sent:
            return _CUT
        if held[bid]:
            break
    else:
        bid = None
    u.queue_pos, u.tail_pos = pos, tail_pos
    return bid


class _MixDraws:
    """Recode mixes from the mix substream, read in blocks of uint32 words.

    rng.integers(0, 256, size=r, dtype=np.uint8), the draw codec.recode
    makes, takes ceil(r / 4) words of the generator's uint32 stream and
    uses their bytes low byte first. Cutting the same bytes from words read
    in blocks gives the same mixes, all-zero redraws included; nothing else
    reads this substream.
    """

    def __init__(self, rng: np.random.Generator, batch_size: int):
        self.rng = rng
        self.cols = np.arange(batch_size)
        self.words = np.zeros(0, dtype="<u4")
        self.pos = 0

    def take(self, ranks: np.ndarray) -> np.ndarray:
        """(T, M) mixes, mix t drawn at rank ranks[t] and zero past it."""
        cols = self.cols
        need = (ranks + 3) // 4
        starts = self.pos + np.cumsum(need) - need
        while True:
            # the last mix reads M bytes from its first word on
            short = int(starts[-1]) + (cols.size + 3) // 4 - self.words.size
            if short > 0:
                fresh = self.rng.integers(
                    0, 1 << 32, size=max(short, _DRAW_BLOCK), dtype=np.uint32
                )
                self.words = np.concatenate(
                    (self.words[self.pos :], fresh.astype("<u4", copy=False))
                )
                starts -= self.pos
                self.pos = 0
            mix = self.words.view(np.uint8)[4 * starts[:, None] + cols]
            mix[cols >= ranks[:, None]] = 0
            zero = ~mix.any(axis=1)
            if not zero.any():
                break
            t = int(zero.argmax())
            starts[t:] += need[t]
        self.pos = int(starts[-1] + need[-1])
        return mix


def run_phase2(
    session: CodingSession,
    users: List[UserState],
    params: NetworkParams,
    rng: np.random.Generator,
    mix_rng: np.random.Generator,
    access_rng: Optional[np.random.Generator] = None,
    trace: Optional[List[Tuple]] = None,
    until_tx: Optional[int] = None,
) -> int:
    """Cooperative repair until every observed user decodes.

    Returns the number of peer transmissions. Senders take turns in round
    robin order, or are drawn uniformly from access_rng when it is given.
    Slots where the scheduled sender has an empty buffer pass without a
    transmission. When until_tx is given the phase runs at least that many
    transmissions, which evaluates the repair process at a planned stopping
    point, and past them until every observed user decodes or the phase
    stalls; with no observed user it stops at until_tx.

    A transmission changes only its own batch's buffers, so consecutive
    transmissions of distinct batches form a window that is recoded,
    delivered and absorbed in one set of array operations. A window ends
    before a slot whose sender would examine a batch already sent in it.
    While an observed user is pending, a window is also short enough that
    no pending user can reach F innovative packets, or every packet the
    group received, before its last transmission; decode attempts and
    stall checks fall there. A pending user that holds every packet the
    group received (saturated) can gain nothing, so it does not shorten
    windows.
    Raises SimulationStallError at the slot cap, or as soon as every pending
    user holds all the packets the group received; its message gives each
    pending user's unresolved count, F minus the rank of what it holds.
    """
    k = len(users)
    m = session.batch_size
    buffers = users[0].buffers
    ranks = buffers.ranks
    cap = 10 * session.num_batches * m
    if until_tx is not None:
        cap = max(cap, 2 * until_tx)
    if any(u.queue is None for u in users):
        raise ValueError("phase 2 requires prepared queues; run phase 1 first")
    watched = [u for u in users if u.decoder is not None]
    group_total = int(buffers.distinct.sum())
    # a pending user attempts a decode or saturates at this innovative count
    reach = min(session.file_packets, group_total)
    mixes = _MixDraws(mix_rng, m)
    transmissions = 0
    slot = 0
    # the sender of a slot that opened no window keeps it for the next one
    sender = None
    while True:
        pending = [u for u in watched if not u.decoded]
        if not pending and (until_tx is None or transmissions >= until_tx):
            return transmissions
        # the innovative counts of pending users short of saturation
        short = [u.innovative for u in pending if u.innovative < group_total]
        if slot >= cap or (pending and not short):
            stuck = []
            for u in pending:
                if u.innovative < session.file_packets:
                    # a user below F has never attempted; one attempt makes
                    # its unresolved F minus the rank of what it holds
                    u.decoder.attempt()
                stuck.append((u.user_id, u.innovative, u.decoder.unresolved))
            raise SimulationStallError(
                "phase 2 passed %d slots with users (id, innovative, "
                "unresolved) still pending: %s; the group received %d packets"
                % (slot, stuck, group_total)
            )
        if pending:
            room = max(1, reach - max(short))
        else:
            room = until_tx - transmissions
        slots, senders, bids = [], [], []
        sent: set = set()
        while len(bids) < room and slot < cap:
            if sender is None:
                if access_rng is None:
                    sender = users[slot % k]
                else:
                    sender = users[int(access_rng.integers(k))]
            bid = _next_send(sender, ranks, sent)
            if bid == _CUT:
                break
            slot += 1
            if bid is not None:
                sent.add(bid)
                slots.append(slot)
                senders.append(sender.user_id)
                bids.append(bid)
            sender = None
        count = len(bids)
        if not count:
            continue
        b, s = np.array(bids), np.array(senders)
        full = buffers.recode(b, s, mixes.take(ranks[b, s]))
        # row t holds the doubles one rng.random(k) per transmission reads
        delivered = rng.random((count, k)) >= params.loss_peer
        delivered[np.arange(count), s] = False
        gained = buffers.absorb(b, full, delivered)
        _check_group_bound(buffers, b)
        if trace is not None:
            held = np.cumsum(gained, axis=0) + [u.innovative for u in users]
            rows = np.column_stack((slots, senders, bids, delivered, held))
            trace.extend(map(tuple, rows.tolist()))
        got = delivered.sum(axis=0).tolist()
        for u, heard, new in zip(users, got, gained.sum(axis=0).tolist()):
            u.receptions += heard
            u.innovative += new
            u.redundant += heard - new
        transmissions += count
        for u in pending:
            mine = gained[:, u.user_id]
            for t in np.flatnonzero(mine).tolist():
                u.decoder.add_row(bids[t], full[t])
            if (
                mine[-1]
                and u.innovative >= session.file_packets
                and u.decoder.attempt()
            ):
                _mark_decoded(u, transmissions)


def run_session(
    params: NetworkParams,
    seed: int,
    num_batches: Optional[int] = None,
    payload_len: int = 0,
    access: str = "round_robin",
    observe: Optional[List[int]] = None,
    with_trace: bool = False,
    dist: Optional[codec.DegreeDistribution] = None,
    phase2_budget: Optional[int] = None,
) -> SimReport:
    """Full protocol: plan-sized phase 1, cooperative phase 2, report.

    access picks the phase-2 sender of each slot: "round_robin" takes users
    in turn, "uniform" draws one at random from its own substream.
    observe selects which users run decoders (default: all). Limiting
    observation to one user keeps large rank-statistics batteries cheap;
    the remaining users still receive and transmit. phase2_budget is a
    floor on the repair phase's transmissions: it runs at least that many,
    and on until every observed user decodes; pass observe=[] to run
    exactly the budget, with no decoders.
    """
    if access not in ("round_robin", "uniform"):
        raise ValueError(
            "access must be 'round_robin' or 'uniform', got %r" % (access,)
        )
    if num_batches is None:
        num_batches = optimize_batches(params).n_opt
    session = new_session(params, seed, num_batches, payload_len, dist=dist)
    users = make_users(params.num_users, session)
    phase1_tx = run_phase1(session, users, params, _substream(seed, _PHASE1_TAG))
    _check_group_bound(users[0].buffers, np.arange(1, num_batches + 1))
    prepare_phase2(session, users, params, observe)
    trace: Optional[List[Tuple]] = [] if with_trace else None
    phase2_tx = run_phase2(
        session,
        users,
        params,
        _substream(seed, _PHASE2_TAG),
        _substream(seed, _MIX_TAG),
        access_rng=_substream(seed, _ACCESS_TAG) if access == "uniform" else None,
        trace=trace,
        until_tx=phase2_budget,
    )
    # The batch-rank histogram is read off once repair stops, i.e. at the
    # moment the whole observed group can recover the file, and every user
    # contributes regardless of whether it carried a decoder.
    rank_distribution = np.mean(
        [
            np.bincount(u.batch_ranks(), minlength=params.batch_size + 1)
            / float(max(num_batches, 1))
            for u in users
        ],
        axis=0,
    )
    return SimReport(
        seed=seed,
        num_users=params.num_users,
        num_batches=num_batches,
        phase1_tx=phase1_tx,
        phase2_tx=phase2_tx,
        total_tx=phase1_tx + phase2_tx,
        decode_slots=[u.decode_slot for u in users],
        innovative_at_decode=[u.innovative_at_decode for u in users],
        innovative=[u.innovative for u in users],
        redundant=[u.redundant for u in users],
        receptions=[u.receptions for u in users],
        rank_distribution=rank_distribution,
        trace=trace,
    )


def run_single_phase(params: NetworkParams, seed: int) -> int:
    """Source-only baseline with an ideal rateless code.

    The source transmits until every user has collected the coded length
    (file plus outer-code margin); returns the transmission count. Raises
    SimulationStallError past 50 times the expected transmission count, and
    ValueError for a coded length above MAX_BATCHES * batch_size packets
    (analytics.carried_packets).
    """
    needed = carried_packets(params)
    k = params.num_users
    rate = (1.0 - params.loss_common) * (1.0 - params.loss_source)
    cap = int(50 * needed / max(rate, 1e-6))
    rng = _substream(seed, _SINGLE_TAG)
    counts = np.zeros(k, dtype=np.int64)
    sent = 0
    block = 4096
    while counts.min() < needed:
        common = rng.random(block) >= params.loss_common
        per_user = rng.random((block, k)) >= params.loss_source
        hits = per_user & common[:, None]
        cum = np.cumsum(hits, axis=0) + counts[None, :]
        done_at = np.nonzero(cum.min(axis=1) >= needed)[0]
        if done_at.size:
            total = sent + int(done_at[0]) + 1
            if total > cap:
                break
            return total
        counts = cum[-1]
        sent += block
        if sent >= cap:
            break
    raise SimulationStallError(
        "single-phase baseline passed %d transmissions" % cap
    )


def run_robustness(
    design_params: NetworkParams,
    actual_users: int,
    seed: int,
    payload_len: int = 0,
) -> SimReport:
    """Plan for the design group size, then simulate a larger group.

    Batch count, degree distribution, and queue policy all come from the
    design-time parameters; only the simulated user count changes.
    """
    if actual_users < design_params.num_users:
        raise ValueError("actual_users must be at least the design size")
    plan = optimize_batches(design_params)
    actual = replace(design_params, num_users=actual_users)
    return run_session(actual, seed, num_batches=plan.n_opt, payload_len=payload_len)


def trace_to_csv(report: SimReport) -> str:
    """Per-slot trace as CSV text; empty string when tracing was off."""
    if report.trace is None:
        return ""
    k = report.num_users
    head = ["slot", "sender", "batch_id"]
    head += ["delivered_u%d" % u for u in range(k)]
    head += ["innovative_u%d" % u for u in range(k)]
    lines = [",".join(head)]
    for row in report.trace:
        lines.append(",".join(str(x) for x in row))
    return "\n".join(lines) + "\n"
