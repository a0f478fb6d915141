"""Distributed phase-2 scheduling from phase-1 reception counts.

Each user looks only at how many packets of each batch it received during the
broadcast phase and builds a matrix estimating how likely its next recoded
packet from a batch is to help a peer. Sorting the matrix entries yields the
user's whole phase-2 transmission order up front; no coordination messages
are exchanged.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .analytics import NetworkParams


def prob_exclusive(received: int, missing: int, loss_source: float,
                   batch_size: int) -> float:
    """Chance a peer lacks exactly `missing` of this user's batch packets.

    Every packet the user holds was independently lost at the peer with the
    source-link probability, so the count is binomial over the user's own
    receptions. Counts above the user's holdings are impossible.
    """
    if missing > received or missing < 0 or missing > batch_size:
        return 0.0
    return (
        math.comb(received, missing)
        * loss_source**missing
        * (1.0 - loss_source) ** (received - missing)
    )


def usefulness(received: int, already_sent: int, loss_source: float,
               loss_peer: float, batch_size: int) -> float:
    """Chance the next recoded packet from a batch is innovative at a peer.

    Marginalizes over how many of the user's packets the peer is missing. If
    the peer misses more than the user has already sent, the next packet
    surely helps. Otherwise it helps only if peer-link erasures swallowed
    enough of the earlier transmissions to leave a gap open.
    """
    m = batch_size
    u = already_sent
    total = 0.0
    for miss in range(u + 1, m + 1):
        total += prob_exclusive(received, miss, loss_source, m)
    for miss in range(1, min(u, m) + 1):
        p_miss = prob_exclusive(received, miss, loss_source, m)
        if p_miss == 0.0:
            continue
        got_through = 0.0
        for l in range(miss):
            got_through += (
                math.comb(u, l) * (1.0 - loss_peer) ** l * loss_peer ** (u - l)
            )
        total += p_miss * got_through
    return total


def build_matrix(counts: np.ndarray, params: NetworkParams) -> np.ndarray:
    """The M x n usefulness matrix of one user's per-batch phase-1 counts.

    Entry [u, i] is the chance that the (u+1)th packet sent from batch i+1
    helps a peer. A column depends only on its count, so the matrix is a
    lookup into an (M+1) x M table, of which only the rows of counts that
    occur are filled, each from a cache kept across calls.
    """
    m = params.batch_size
    if np.any((counts < 0) | (counts > m)):
        raise ValueError("reception counts must lie in [0, %d], the batch size" % m)
    table = np.zeros((m + 1, m))
    for c in set(counts.tolist()):
        table[c] = _usefulness_row(c, params.loss_source, params.loss_peer, m)
    return table[counts].T


@functools.lru_cache(maxsize=4096)
def _usefulness_row(received: int, loss_source: float, loss_peer: float,
                    batch_size: int) -> tuple:
    """usefulness(received, u, ...) for u = 0..batch_size-1. Sessions of one
    channel share every row, so each is computed once per process."""
    return tuple(
        usefulness(received, u, loss_source, loss_peer, batch_size)
        for u in range(batch_size)
    )


def build_queue(s: np.ndarray) -> np.ndarray:
    """Flatten the matrix into the user's transmission order of batch IDs.

    Entries are sorted by descending usefulness; exact ties go to the entry
    with fewer packets already sent, then to the lower batch index. Batch IDs
    are 1-based.
    """
    m, n = s.shape
    u_idx, b_idx = np.divmod(np.arange(m * n), n)
    # lexsort uses the last key as primary
    order = np.lexsort((b_idx, u_idx, -s.ravel()))
    return b_idx[order] + 1


def exhaustion_order(s: np.ndarray) -> np.ndarray:
    """Batch IDs cycled after the queue runs dry, by final-row usefulness.

    The last row holds each batch's usefulness after M sends; cycling in its
    descending order keeps the priority intuition once every queued entry has
    been transmitted. Ties go to the lower batch ID.
    """
    last = s[-1]
    order = np.lexsort((np.arange(last.size), -last))
    return order + 1
