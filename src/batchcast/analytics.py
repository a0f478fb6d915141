"""Closed-form planning for two-phase cooperative broadcasting.

Everything here is deterministic math on channel parameters: how many batches
the source must send, how many peer transmissions phase 2 needs, how much of
phase 2 is wasted on redundant receptions, and what per-batch rank law a
receiver sees at decode time. The simulator and CLI consume these planners;
the test suite checks them against discrete-sum and Monte-Carlo oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Dict

import numpy as np

from .codec import MAX_BATCHES


@dataclass(frozen=True)
class NetworkParams:
    """Channel and protocol configuration.

    num_users        size of the receiver group
    loss_common      correlated erasure probability shared by all receivers
                     during source broadcast
    loss_source      independent per-receiver erasure probability on the
                     source links
    loss_peer        erasure probability on the user-to-user links
    batch_size       packets per coded batch
    file_packets     number of source packets in the file
    code_overhead    fraction of extra received packets the outer code needs
    outage_tolerance target probability that the group cannot recover the file
    """

    num_users: int
    loss_common: float
    loss_source: float
    loss_peer: float
    batch_size: int
    file_packets: int
    code_overhead: float = 0.01
    outage_tolerance: float = 1e-8

    def __post_init__(self):
        if self.num_users < 1:
            raise ValueError("num_users must be at least 1")
        for name in ("loss_common", "loss_source", "loss_peer"):
            v = getattr(self, name)
            if not (0.0 <= v < 1.0):
                raise ValueError("%s must lie in [0, 1), got %r" % (name, v))
        if self.loss_peer > self.loss_source:
            raise ValueError("loss_peer must not exceed loss_source")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.file_packets < 1:
            raise ValueError("file_packets must be at least 1")
        if not (self.code_overhead >= 0 and math.isfinite(_coded_length(self))):
            raise ValueError(
                "code_overhead=%r must be nonnegative, with a finite coded length "
                "(1 + code_overhead) * file_packets" % self.code_overhead
            )
        if not (0.0 < self.outage_tolerance < 1.0):
            raise ValueError("outage_tolerance must lie in (0, 1)")


@dataclass
class PlanResult:
    n_min: int
    n_max: int
    n_opt: int
    t_of_n: Dict[int, int] = field(default_factory=dict)
    total_of_n: Dict[int, int] = field(default_factory=dict)


def _coded_length(params: NetworkParams) -> float:
    return (1.0 + params.code_overhead) * params.file_packets


def _user_erasure(params: NetworkParams) -> float:
    """Probability a given user misses a given source packet."""
    return (
        params.loss_common
        + params.loss_source
        - params.loss_common * params.loss_source
    )


def _peer_gap_prob(params: NetworkParams) -> float:
    """Probability a packet is missed by a user but held by some peer."""
    return (1.0 - params.loss_source ** (params.num_users - 1)) * _user_erasure(params)


def _gauss_upper_tail(x: float) -> float:
    """P(N(0,1) > x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


_normal_quantile = NormalDist().inv_cdf


def _min_order_quantile(num_users: int) -> float:
    """Normal quantile locating the mean of the minimum of num_users iid draws."""
    return _normal_quantile(0.625 / (num_users + 0.25))


def _binom_pmf(trials: int, p: float, size: int) -> np.ndarray:
    """P(Binomial(trials, p) = x) for x = 0..size-1.

    Each term is evaluated in log space, with log1p for the failure
    probability, so large trial counts neither overflow the binomial
    coefficient nor compound the rounding of 1 - p.
    """
    out = np.zeros(size)
    if p == 0.0 or p == 1.0:
        x = trials if p else 0
        if x < size:
            out[x] = 1.0
        return out
    log_p, log_q = math.log(p), math.log1p(-p)
    for x in range(min(size, trials + 1)):
        out[x] = math.exp(
            math.log(math.comb(trials, x)) + x * log_p + (trials - x) * log_q
        )
    return out


def _survival(pmf: np.ndarray) -> np.ndarray:
    """P(X >= x) for x = 0..len(pmf)-1, from X's pmf over the same range."""
    return 1.0 - np.concatenate([[0.0], np.cumsum(pmf[:-1])])


def effective_erasure(params: NetworkParams) -> float:
    """Probability that a source packet reaches no user at all."""
    return 1.0 - (1.0 - params.loss_common) * (
        1.0 - params.loss_source ** params.num_users
    )


def min_batches(params: NetworkParams) -> int:
    """Fewest batches the source can send while the group still recovers.

    Normal approximation of the group-level reception count, with the outage
    tolerance entering through the upper-tail quantile (negative here, so the
    correction adds batches).
    """
    p_none = effective_erasure(params)
    coded = _coded_length(params)
    alpha = _normal_quantile(params.outage_tolerance)
    numerator = 2.0 * coded - alpha * math.sqrt(4.0 * p_none * coded)
    return _batch_count(numerator / (2.0 * params.batch_size * (1.0 - p_none)), params)


def max_batches(params: NetworkParams) -> int:
    """Batch count at which every user decodes from phase 1 alone.

    Uses the order-statistics approximation for the mean of the worst user's
    reception count.
    """
    miss = _user_erasure(params)
    coded = _coded_length(params)
    beta = _min_order_quantile(params.num_users)
    b2 = beta * beta
    numerator = (
        2.0 * coded
        + miss * b2
        + math.sqrt(4.0 * miss * b2 * coded + miss * b2 * b2)
    )
    return _batch_count(numerator / (2.0 * params.batch_size * (1.0 - miss)), params)


def _batch_count(quotient: float, params: NetworkParams) -> int:
    """ceil(quotient), a batch count computed from the coded length; a
    coded length that overflows it is a bad code_overhead."""
    if not math.isfinite(quotient):
        raise _coded_length_error(params, "the planner can count in batches")
    return math.ceil(quotient)


def carried_packets(params: NetworkParams) -> int:
    """The packets every user must collect, the coded length rounded up; a
    coded length past MAX_BATCHES * batch_size packets, the most a two-phase
    session can carry, is a bad code_overhead or file_packets."""
    limit = MAX_BATCHES * params.batch_size
    if _coded_length(params) > limit:
        raise _coded_length_error(
            params,
            "%d * batch_size = %d, the most a two-phase session can carry; the "
            "coded length is (1 + code_overhead) * file_packets, with "
            "file_packets=%d" % (MAX_BATCHES, limit, params.file_packets),
        )
    return math.ceil(_coded_length(params))


def _coded_length_error(params: NetworkParams, room: str) -> ValueError:
    return ValueError(
        "code_overhead=%r gives a coded length of %r packets, more than %s"
        % (params.code_overhead, _coded_length(params), room)
    )


def expected_peer_receptions(transmissions: float, params: NetworkParams) -> float:
    """Mean packets a user collects from its peers across phase 2."""
    k = params.num_users
    return (1.0 - params.loss_peer) * (k - 1) * transmissions / k


def delta_distribution(params: NetworkParams) -> np.ndarray:
    """Distribution of per-batch packets a user can still gain from peers.

    Closed form: binomial over the batch size with success probability
    "missed by this user but captured by some peer".
    """
    if params.num_users < 2:
        raise ValueError("delta_distribution requires at least 2 users")
    m = params.batch_size
    return _binom_pmf(m, _peer_gap_prob(params), m + 1)


def delta_distribution_convolution(params: NetworkParams) -> np.ndarray:
    """Same law as delta_distribution via the explicit two-stage sum.

    Marginalizes the per-user reception count against the conditional law of
    the group-level count; kept as an independently coded cross-check of the
    closed form.
    """
    if params.num_users < 2:
        raise ValueError("requires at least 2 users")
    m = params.batch_size
    own = 1.0 - _user_erasure(params)
    miss = _user_erasure(params)
    peer_hold = 1.0 - params.loss_source ** (params.num_users - 1)
    peer_miss = params.loss_source ** (params.num_users - 1)
    out = np.zeros(m + 1)
    for delta in range(m + 1):
        acc = 0.0
        for i in range(m - delta + 1):
            cond = (
                math.comb(m - i, delta)
                * peer_hold**delta
                * peer_miss ** (m - i - delta)
            )
            acc += cond * math.comb(m, i) * own**i * miss ** (m - i)
        out[delta] = acc
    return out


def redundancy(transmissions: float, batches: int, params: NetworkParams) -> float:
    """Expected phase-2 receptions that arrive after their batch is saturated.

    Normal-approximation mean of the positive part of (per-batch peer
    receptions minus per-batch peer capacity), scaled by the batch count.
    """
    n = batches
    m = params.batch_size
    gap = _peer_gap_prob(params)
    per_batch = expected_peer_receptions(transmissions, params) / n
    mu = per_batch - m * gap
    var = per_batch * (1.0 - 1.0 / n) + m * gap * (1.0 - gap)
    if var <= 0.0:
        return float(n * max(mu, 0.0))
    sd = math.sqrt(var)
    tail = _gauss_upper_tail(-mu / sd)
    return float(
        n * (sd / math.sqrt(2.0 * math.pi)) * math.exp(-(mu * mu) / (2.0 * var))
        + mu * n * tail
    )


def _innovative_margin(transmissions: float, batches: int, params: NetworkParams) -> float:
    """Worst-user innovative-count estimate minus the decode threshold."""
    k = params.num_users
    m = params.batch_size
    own = (1.0 - params.loss_common) * (1.0 - params.loss_source)
    mu = (
        own * batches * m
        + expected_peer_receptions(transmissions, params)
        - redundancy(transmissions, batches, params)
    )
    var = (
        batches * m * own * _user_erasure(params)
        + transmissions * (k - 1) * (1.0 - params.loss_peer) * params.loss_peer / k
    )
    beta = _min_order_quantile(k)
    return mu + beta * math.sqrt(max(var, 0.0)) - _coded_length(params)


def stopping_time(batches: int, params: NetworkParams) -> int:
    """Smallest phase-2 slot count after which every user should decode.

    The least integer t >= 0 with a nonnegative decode margin. The bracket
    starts at batches*batch_size and doubles until the margin is
    nonnegative there; then an integer bisection keeps margin(lo) < 0 <=
    margin(hi), with lo = -1 standing for "before slot 0". The result has
    margin(t) >= 0 and t == 0 or margin(t - 1) < 0; it is the least such t
    wherever the margin rises up to it.
    """
    n = batches
    lo, hi = -1, max(1, n * params.batch_size)
    f_hi = _innovative_margin(hi, n, params)
    grow = 0
    while f_hi < 0.0:
        grow += 1
        f_next = _innovative_margin(2 * hi, n, params)
        # The margin rises while peer packets still help, then sinks once the
        # worst-user spread outgrows the gain. A shrinking margin that is
        # still negative can never cross zero.
        if grow > 60 or f_next <= f_hi:
            raise ValueError(
                "no phase-2 stopping time exists for %d batches" % n
            )
        lo, hi, f_hi = hi, 2 * hi, f_next
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _innovative_margin(mid, n, params) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def rank_distribution(
    batches: int,
    transmissions: float,
    params: NetworkParams,
    approximate: bool = False,
) -> np.ndarray:
    """Per-batch rank law a user sees at decode time, over ranks 0..batch_size.

    The exact form composes three ingredients: the user's own phase-1
    receptions, the group-level captures conditioned on them, and the phase-2
    receptions for a typical batch. The approximate form collapses to a
    binomial on the group capture probability, valid when the source sends
    the minimum batch count so decoding exhausts the group's packets.
    """
    m = params.batch_size
    if approximate:
        return _binom_pmf(m, 1.0 - effective_erasure(params), m + 1)

    n = batches
    own = (1.0 - params.loss_common) * (1.0 - params.loss_source)
    peer_hold = 1.0 - params.loss_source ** (params.num_users - 1)
    own_pmf = _binom_pmf(m, own, m + 1)
    peer_trials = int(round(expected_peer_receptions(transmissions, params)))

    # cond[i, j] = P(group holds j | user holds i), a shifted binomial
    cond = np.zeros((m + 1, m + 1))
    for i in range(m + 1):
        cond[i, i:] = _binom_pmf(m - i, peer_hold, m - i + 1)

    phase2_pmf = _binom_pmf(peer_trials, 1.0 / n, m + 1)
    # survival[x] = P(phase-2 receptions >= x)
    survival = _survival(phase2_pmf)

    out = np.zeros(m + 1)
    for r in range(m + 1):
        total = 0.0
        for i in range(r + 1):
            group_above = float(cond[i, r + 1 :].sum())
            total += own_pmf[i] * group_above * phase2_pmf[r - i]
            total += own_pmf[i] * cond[i, r] * survival[r - i]
        out[r] = total
    return out


def optimize_batches(params: NetworkParams) -> PlanResult:
    """Scan the feasible batch-count range for the lowest total transmissions.

    Evaluates the stopping time for every integer in [min_batches,
    max_batches], the upper end capped at MAX_BATCHES, the most batches the
    2-byte batch id can name; no convexity is assumed, the full curve is
    retained. Ties resolve to the smallest batch count. Raises ValueError
    when min_batches exceeds that cap, or when no batch count in the range
    is feasible, including when the range is empty; for a single user the
    message names its missing peer.
    """
    n_lo = min_batches(params)
    if n_lo > MAX_BATCHES:
        raise ValueError(
            "n_min=%d exceeds the %d batches a batch id can name"
            % (n_lo, MAX_BATCHES)
        )
    n_hi = min(max_batches(params), MAX_BATCHES)
    m = params.batch_size
    t_of_n: Dict[int, int] = {}
    total_of_n: Dict[int, int] = {}
    for n in range(n_lo, n_hi + 1):
        try:
            t_of_n[n] = stopping_time(n, params)
        except ValueError:
            # phase 2 cannot finish at this batch count; skip it
            continue
        total_of_n[n] = n * m + t_of_n[n]
    if not total_of_n:
        cause = "no feasible batch count"
        if params.num_users < 2:
            cause = (
                "one user has no peer to repair it in phase 2, and phase 1 "
                "alone delivers the file at no batch count"
            )
        raise ValueError("%s in [n_min=%d, n_max=%d]" % (cause, n_lo, n_hi))
    # keys ascend, so the first minimum is the smallest tied batch count
    n_opt = min(total_of_n, key=total_of_n.__getitem__)
    return PlanResult(
        n_min=n_lo, n_max=n_hi, n_opt=n_opt, t_of_n=t_of_n, total_of_n=total_of_n
    )


def plan_table_csv(result: PlanResult) -> str:
    """Plan curve as CSV text with a header row: n, T, total."""
    lines = ["n,T,total"]
    for n in sorted(result.t_of_n):
        lines.append("%d,%d,%d" % (n, result.t_of_n[n], result.total_of_n[n]))
    return "\n".join(lines) + "\n"


def tv_distance(p, q) -> float:
    """Total variation distance between two probability vectors."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("shape mismatch")
    return 0.5 * float(np.abs(p - q).sum())
