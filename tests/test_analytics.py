"""Tests for the closed-form planning layer.

Two kinds of checks live here. Property checks compare closed forms against
independently coded oracles: discrete positive-part sums for the redundancy
estimate, two-stage Monte Carlo draws for the peer-gain and rank laws, and
direct arithmetic for the batch-count bounds. Regression checks pin exact
integer outputs that were hand-verified once against the formulas; any drift
in the numerics shows up as a failed equality.
"""

import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from scipy.special import ndtri
from scipy.stats import binom

from batchcast import analytics as an
from batchcast.analytics import NetworkParams
from batchcast.codec import MAX_BATCHES
from conftest import COLLAPSE, EX2, EX3, EXP, FIG9_DESIGN


def three_user_cfg() -> NetworkParams:
    return NetworkParams(
        num_users=3,
        loss_common=0.05,
        loss_source=0.5,
        loss_peer=0.1,
        batch_size=16,
        file_packets=1600,
    )


def five_user_cfg() -> NetworkParams:
    return NetworkParams(
        num_users=5,
        loss_common=0.05,
        loss_source=0.5,
        loss_peer=0.1,
        batch_size=16,
        file_packets=5000,
    )


def lossier_peer_cfg() -> NetworkParams:
    return NetworkParams(
        num_users=3,
        loss_common=0.05,
        loss_source=0.5,
        loss_peer=0.2,
        batch_size=16,
        file_packets=2083,
    )


def collapse_cfg() -> NetworkParams:
    # peer links no better than source links: phase 2 has nothing to add
    return NetworkParams(
        num_users=9,
        loss_common=0.0,
        loss_source=0.5,
        loss_peer=0.5,
        batch_size=16,
        file_packets=2000,
    )


# ---------------------------------------------------------------- parameters


def test_params_reject_bad_values():
    good = dict(
        num_users=3,
        loss_common=0.05,
        loss_source=0.5,
        loss_peer=0.1,
        batch_size=16,
        file_packets=100,
    )
    for bad in (
        dict(num_users=0),
        dict(loss_common=-0.1),
        dict(loss_common=1.0),
        dict(loss_source=1.2),
        dict(loss_source=1.0),
        dict(loss_peer=-0.2),
        dict(loss_peer=0.6),  # worse than the source link
        dict(batch_size=0),
        dict(file_packets=0),
        dict(code_overhead=-0.01),
        dict(code_overhead=float("inf")),
        dict(code_overhead=float("nan")),
        dict(code_overhead=1e308),  # finite, but (1 + 1e308) * F is not
        dict(outage_tolerance=0.0),
        dict(outage_tolerance=1.0),
    ):
        kwargs = dict(good)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            NetworkParams(**kwargs)


@pytest.mark.parametrize("overhead", [float("inf"), float("nan"), 1e308])
def test_params_reject_a_non_finite_coded_length(overhead):
    # (1 + 1e308) * 1600 overflows; the planner would take ceil of inf
    with pytest.raises(ValueError, match="code_overhead=.* finite coded length"):
        NetworkParams(3, 0.05, 0.5, 0.1, 16, 1600, code_overhead=overhead)


def test_planner_rejects_a_coded_length_it_cannot_count():
    # 1e308 packets is finite, but twice it is not: min_batches and
    # max_batches would take ceil of inf
    p = NetworkParams(3, 0.05, 0.5, 0.1, 16, 1, code_overhead=1e308)
    for plan in (an.min_batches, an.max_batches, an.optimize_batches):
        with pytest.raises(ValueError, match="code_overhead=1e\\+308 gives"):
            plan(p)


def test_params_accept_zero_losses():
    p = NetworkParams(2, 0.0, 0.0, 0.0, 4, 10)
    assert an.effective_erasure(p) == 0.0


# ------------------------------------------------------------- erasure rates


def test_effective_erasure_known_value():
    # 1 - (1 - p0) * (1 - p1^k) computed by hand for the three-user channel
    assert an.effective_erasure(three_user_cfg()) == pytest.approx(
        0.16875, abs=1e-12
    )


def test_effective_erasure_monotone_in_users():
    base = dict(
        loss_common=0.05,
        loss_source=0.5,
        loss_peer=0.1,
        batch_size=16,
        file_packets=100,
    )
    vals = [
        an.effective_erasure(NetworkParams(num_users=k, **base)) for k in range(1, 8)
    ]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[0] == pytest.approx(0.05 + 0.5 - 0.025, abs=1e-12)


# -------------------------------------------------------------- batch bounds


def test_min_batches_pinned_values():
    assert an.min_batches(three_user_cfg()) == 129
    assert an.min_batches(five_user_cfg()) == 351
    assert an.min_batches(lossier_peer_cfg()) == 167


def test_min_batches_outage_sensitivity():
    # a looser outage target may only lower the bound
    import dataclasses

    for cfg, expect in (
        (three_user_cfg(), 128),
        (five_user_cfg(), 350),
        (lossier_peer_cfg(), 165),
    ):
        loose = dataclasses.replace(cfg, outage_tolerance=1e-6)
        assert an.min_batches(loose) == expect
        assert expect <= an.min_batches(cfg)


def test_min_batches_mean_matching_limit():
    # at a 50% outage target the tail correction vanishes and the bound is
    # just the coded length divided by the per-batch group capture mean
    import dataclasses

    cfg = dataclasses.replace(lossier_peer_cfg(), outage_tolerance=0.5)
    p_none = an.effective_erasure(cfg)
    coded = (1.0 + cfg.code_overhead) * cfg.file_packets
    plain = math.ceil(coded / (cfg.batch_size * (1.0 - p_none)))
    assert an.min_batches(cfg) == plain == 159


def test_max_batches_pinned_values():
    assert an.max_batches(three_user_cfg()) == 216
    assert an.max_batches(five_user_cfg()) == 673
    assert an.max_batches(lossier_peer_cfg()) == 281


def test_max_batches_exceeds_min_batches():
    for cfg in (three_user_cfg(), five_user_cfg(), lossier_peer_cfg()):
        assert an.max_batches(cfg) > an.min_batches(cfg)


# ----------------------------------------------------------- peer receptions


def test_expected_peer_receptions_values():
    cfg = three_user_cfg()
    assert an.expected_peer_receptions(0, cfg) == 0.0
    # (1 - 0.1) * (2/3) * 90 = 54
    assert an.expected_peer_receptions(90, cfg) == pytest.approx(54.0, abs=1e-12)


# ------------------------------------------------------------- peer-gain law


def test_delta_closed_form_matches_two_stage_sum():
    rng = np.random.default_rng(7)
    for m in (4, 8, 16, 32):
        for _ in range(25):
            k = int(rng.integers(2, 11))
            p0 = float(rng.uniform(0.0, 0.3))
            p1 = float(rng.uniform(0.05, 0.8))
            cfg = NetworkParams(k, p0, p1, 0.0, m, 100)
            a = an.delta_distribution(cfg)
            b = an.delta_distribution_convolution(cfg)
            assert float(np.abs(a - b).max()) < 1e-10


def test_delta_distribution_normalized_with_exact_mean():
    cfg = three_user_cfg()
    pmf = an.delta_distribution(cfg)
    assert float(pmf.sum()) == pytest.approx(1.0, abs=1e-12)
    miss = 0.05 + 0.5 - 0.05 * 0.5
    gap = (1.0 - 0.5**2) * miss
    mean = float(pmf @ np.arange(cfg.batch_size + 1))
    assert mean == pytest.approx(cfg.batch_size * gap, abs=1e-9)


def test_delta_distribution_monte_carlo():
    # draw the two-stage process directly: own receptions first, then which
    # of the missed packets some peer captured
    cfg = three_user_cfg()
    m = cfg.batch_size
    miss = 0.05 + 0.5 - 0.05 * 0.5
    hold = 1.0 - 0.5**2
    rng = np.random.default_rng(20260818)
    count = 400_000
    own = rng.binomial(m, 1.0 - miss, size=count)
    delta = rng.binomial(m - own, hold)
    emp = np.bincount(delta, minlength=m + 1) / count
    assert an.tv_distance(emp, an.delta_distribution(cfg)) < 0.01


def test_delta_distribution_needs_a_peer():
    with pytest.raises(ValueError):
        an.delta_distribution(NetworkParams(1, 0.05, 0.5, 0.1, 16, 100))


# ----------------------------------------------------------- redundancy mean


def _redundancy_oracle(transmissions, batches, params) -> float:
    """Discrete positive-part expectation, no normal approximation."""
    n, m = batches, params.batch_size
    miss = (
        params.loss_common
        + params.loss_source
        - params.loss_common * params.loss_source
    )
    gap = (1.0 - params.loss_source ** (params.num_users - 1)) * miss
    recv = (
        (1.0 - params.loss_peer)
        * (params.num_users - 1)
        * transmissions
        / params.num_users
    )
    trials = int(round(recv))
    xs = binom.pmf(np.arange(trials + 1), trials, 1.0 / n)
    cs = binom.pmf(np.arange(m + 1), m, gap)
    excess = np.maximum(
        np.arange(trials + 1)[:, None] - np.arange(m + 1)[None, :], 0
    )
    return n * float(xs @ excess @ cs)


def test_redundancy_matches_discrete_oracle():
    cases = (
        (2062, 167, lossier_peer_cfg()),
        (2267, 167, lossier_peer_cfg()),
        (1020, 211, lossier_peer_cfg()),
        (1384, 129, three_user_cfg()),
        (3000, 167, lossier_peer_cfg()),
    )
    for t, n, cfg in cases:
        closed = an.redundancy(t, n, cfg)
        exact = _redundancy_oracle(t, n, cfg)
        assert abs(closed - exact) <= max(0.02 * exact, 1.5)


def test_redundancy_pinned_values():
    cfg = lossier_peer_cfg()
    assert an.redundancy(2062, 167, cfg) == pytest.approx(239.1517, abs=1e-3)
    assert an.redundancy(2267, 167, cfg) == pytest.approx(308.4161, abs=1e-3)


def test_redundancy_nonnegative_and_monotone():
    cfg = lossier_peer_cfg()
    vals = [an.redundancy(t, 167, cfg) for t in range(0, 3200, 200)]
    assert vals[0] < 0.1
    assert all(v >= 0.0 for v in vals)
    assert all(b >= a for a, b in zip(vals, vals[1:]))


# ------------------------------------------------------------- stopping time


def test_stopping_time_pinned_values():
    assert an.stopping_time(129, three_user_cfg()) == 1384
    assert an.stopping_time(167, lossier_peer_cfg()) == 2062
    assert an.stopping_time(211, lossier_peer_cfg()) == 1020
    assert an.stopping_time(351, five_user_cfg()) == 4381
    assert an.stopping_time(402, five_user_cfg()) == 3054


@hst.composite
def small_params(draw):
    loss_source = draw(hst.floats(0.0, 0.9))
    return NetworkParams(
        num_users=draw(hst.integers(1, 6)),
        loss_common=draw(hst.floats(0.0, 0.3)),
        loss_source=loss_source,
        loss_peer=loss_source * draw(hst.floats(0.0, 1.0)),
        batch_size=draw(hst.sampled_from([4, 8, 16])),
        file_packets=draw(hst.integers(20, 3000)),
    )


@settings(max_examples=40, deadline=None)
@given(cfg=small_params())
@example(cfg=EX2)
@example(cfg=EX3)
@example(cfg=EXP)
@example(cfg=FIG9_DESIGN)
@example(cfg=COLLAPSE)
def test_stopping_time_is_minimal(cfg):
    # every batch count the planner scans (the pinned scenarios' whole
    # [n_min, n_max]), three past either end, at most 400 above n_min
    n_lo = an.min_batches(cfg)
    for n in range(max(1, n_lo - 3), min(an.max_batches(cfg), n_lo + 400) + 4):
        try:
            t = an.stopping_time(n, cfg)
        except ValueError:
            continue
        assert an._innovative_margin(t, n, cfg) >= 0.0
        assert t == 0 or an._innovative_margin(t - 1, n, cfg) < 0.0


def test_stopping_time_zero_when_broadcast_suffices():
    assert an.stopping_time(400, lossier_peer_cfg()) == 0


def test_stopping_time_raises_when_peers_cannot_close_the_gap():
    with pytest.raises(ValueError):
        an.stopping_time(128, collapse_cfg())


def test_stopping_time_decreases_with_more_batches():
    cfg = lossier_peer_cfg()
    ts = [an.stopping_time(n, cfg) for n in (167, 180, 211, 260)]
    assert ts == sorted(ts, reverse=True)


# ----------------------------------------------------------------- rank laws


def test_rank_distribution_normalizes_everywhere():
    rng = np.random.default_rng(11)
    for _ in range(50):
        k = int(rng.integers(2, 11))
        p0 = float(rng.uniform(0.0, 0.3))
        p1 = float(rng.uniform(0.1, 0.7))
        p2 = float(rng.uniform(0.0, p1))
        m = int(rng.choice([4, 8, 16]))
        cfg = NetworkParams(k, p0, p1, p2, m, 500)
        n = int(rng.integers(20, 400))
        t = float(rng.uniform(0, 3 * n * m))
        law = an.rank_distribution(n, t, cfg)
        assert abs(float(law.sum()) - 1.0) < 1e-9
        assert float(law.min()) > -1e-12
        approx = an.rank_distribution(n, t, cfg, approximate=True)
        assert abs(float(approx.sum()) - 1.0) < 1e-9


def test_rank_distribution_approximate_full_rank_mass():
    cfg = three_user_cfg()
    law = an.rank_distribution(129, 0, cfg, approximate=True)
    hand = (1.0 - 0.16875) ** 16
    assert law[16] == pytest.approx(hand, abs=1e-12)


def test_rank_distribution_matches_generative_draws():
    # sample the composed process the exact law describes: own receptions,
    # the group's capture conditioned on them, and uniform phase-2 spreading
    cfg = NetworkParams(3, 0.05, 0.5, 0.1, 8, 200)
    n, t = 30, 400
    law = an.rank_distribution(n, t, cfg)
    own = (1.0 - cfg.loss_common) * (1.0 - cfg.loss_source)
    hold = 1.0 - cfg.loss_source ** (cfg.num_users - 1)
    recv = int(round(an.expected_peer_receptions(t, cfg)))
    rng = np.random.default_rng(99)
    count = 300_000
    i = rng.binomial(cfg.batch_size, own, size=count)
    group = i + rng.binomial(cfg.batch_size - i, hold)
    gained = rng.binomial(recv, 1.0 / n, size=count)
    rank = np.minimum(i + gained, group)
    emp = np.bincount(rank, minlength=cfg.batch_size + 1) / count
    assert an.tv_distance(emp, law) < 0.01


def test_rank_distribution_exact_vs_approximate_gap():
    # at the minimum batch count the two laws describe different regimes and
    # visibly disagree; regression-pin the gap so silent drift is caught
    cfg = three_user_cfg()
    t = an.stopping_time(129, cfg)
    exact = an.rank_distribution(129, t, cfg)
    approx = an.rank_distribution(129, t, cfg, approximate=True)
    assert an.tv_distance(exact, approx) == pytest.approx(0.1292, abs=0.01)


# ------------------------------------------------------------------ planning


def test_optimize_pinned_three_user_lossier_peer():
    plan = an.optimize_batches(lossier_peer_cfg())
    assert plan.n_min == 167
    assert plan.n_max == 281
    assert plan.n_opt == 208
    assert plan.total_of_n[plan.n_opt] == 4396
    # flat valley around the optimum
    assert all(plan.total_of_n[n] == 4396 for n in range(208, 216))
    assert plan.total_of_n[211] == 4396


def test_optimize_pinned_five_user():
    plan = an.optimize_batches(five_user_cfg())
    assert plan.n_min == 351
    assert plan.n_max == 673
    assert plan.n_opt == 401
    assert plan.total_of_n[401] == 9486
    assert plan.total_of_n[402] == 9486
    # savings against the single-phase plan and the fewest-batches plan
    assert 673 * 16 - plan.total_of_n[plan.n_opt] == 1282
    assert plan.total_of_n[351] - plan.total_of_n[plan.n_opt] == 511


def test_optimize_collapse_profile():
    # equal source and peer loss: phase 2 cannot beat more broadcasting, so
    # the optimum sits at (or within one integer step of) the upper bound
    plan = an.optimize_batches(collapse_cfg())
    assert plan.n_max == 259
    assert plan.n_opt == 258
    assert plan.n_max - plan.n_opt <= 1
    total = plan.total_of_n[plan.n_opt]
    assert total == 4138
    assert abs(total - plan.n_max * 16) / (plan.n_max * 16) < 0.02
    # the smallest batch counts are infeasible for phase 2 and are skipped
    assert 128 not in plan.t_of_n
    assert len(plan.t_of_n) == 128


def test_optimizer_beats_both_endpoints_when_peers_are_better():
    for cfg in (lossier_peer_cfg(), five_user_cfg()):
        plan = an.optimize_batches(cfg)
        best = plan.total_of_n[plan.n_opt]
        assert best < plan.n_max * cfg.batch_size
        assert best < plan.total_of_n[plan.n_min]


def test_optimize_rejects_an_empty_batch_range():
    # one user: phase 1 alone must deliver, and the outage-corrected lower
    # bound lands above the upper one, so no batch count is feasible
    cfg = NetworkParams(
        num_users=1,
        loss_common=0.05,
        loss_source=0.5,
        loss_peer=0.1,
        batch_size=16,
        file_packets=1600,
    )
    assert an.min_batches(cfg) == 235
    assert an.max_batches(cfg) == 213
    with pytest.raises(ValueError, match=r"n_min=235, n_max=213"):
        an.optimize_batches(cfg)


def test_optimize_names_the_missing_peer_of_one_user():
    cfg = NetworkParams(
        num_users=1,
        loss_common=0.05,
        loss_source=0.5,
        loss_peer=0.1,
        batch_size=16,
        file_packets=1600,
    )
    with pytest.raises(ValueError) as err:
        an.optimize_batches(cfg)
    assert str(err.value) == (
        "one user has no peer to repair it in phase 2, and phase 1 alone "
        "delivers the file at no batch count in [n_min=235, n_max=213]"
    )
    # two users share the channel: the same range is no longer empty
    assert an.optimize_batches(replace(cfg, num_users=2)).n_opt > 0


def test_optimize_never_plans_past_the_batch_id_limit():
    # M=1 with EX2 losses: batch ids travel in two bytes, so the plan may
    # not exceed 65535 batches. F=53000 has n_min=65039 under the limit and
    # an uncapped n_max of 113002 above it; F=70000 has n_min=85791 above.
    def one_packet_batches(file_packets):
        return NetworkParams(
            num_users=3,
            loss_common=0.05,
            loss_source=0.5,
            loss_peer=0.1,
            batch_size=1,
            file_packets=file_packets,
        )

    capped = one_packet_batches(53000)
    assert an.max_batches(capped) == 113002
    plan = an.optimize_batches(capped)
    assert plan.n_min == 65039
    assert plan.n_max == 65535
    assert plan.n_opt <= 65535 and max(plan.t_of_n) <= 65535
    over = one_packet_batches(70000)
    assert an.min_batches(over) == 85791
    with pytest.raises(ValueError, match=r"n_min=85791 exceeds the 65535"):
        an.optimize_batches(over)


@settings(max_examples=60, deadline=None)
@given(cfg=small_params())
def test_optimize_plans_inside_its_range_or_says_why(cfg):
    try:
        plan = an.optimize_batches(cfg)
    except ValueError as exc:
        assert re.search(
            r"\[n_min=\d+, n_max=\d+\]|exceeds the %d batches" % MAX_BATCHES,
            str(exc),
        ), exc
        return
    assert plan.n_min <= plan.n_opt <= plan.n_max <= MAX_BATCHES
    assert plan.n_opt in plan.t_of_n
    assert set(plan.total_of_n) == set(plan.t_of_n)
    assert all(plan.n_min <= n <= plan.n_max for n in plan.t_of_n)
    best = min(plan.total_of_n.values())
    assert plan.n_opt == min(n for n, t in plan.total_of_n.items() if t == best)


# ------------------------------------------------------------- scipy oracles
# The planner computes its normal quantiles with the standard library and
# its binomial laws with its own pmf; scipy stays a test-only oracle.


@pytest.mark.parametrize(
    "trials, p",
    [(0, 0.3), (0, 0.0), (0, 1.0), (16, 0.0), (16, 1.0), (5, 0.5), (16, 0.2375),
     (16, 0.525), (15, 0.75), (16, 0.999), (40, 0.05)]
    + [(t, 1.0 / n) for t, n in ((1384, 129), (2062, 167), (3054, 402),
                                  (5000, 402), (8000, 2000))],
)
def test_binom_pmf_and_survival_match_scipy(trials, p):
    size = 17
    xs = np.arange(size)
    pmf = an._binom_pmf(trials, p, size)
    np.testing.assert_allclose(pmf, binom.pmf(xs, trials, p), rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        an._survival(pmf), binom.sf(xs - 1, trials, p), rtol=0, atol=1e-12
    )


def _planner_grid():
    """optimize_batches and the stopping time at n_opt over 216 configs."""
    out = []
    for k, f, loss_peer, m in itertools.product(
        (2, 3, 4, 5, 6, 9), (300, 1600, 2083, 5000), (0.05, 0.1, 0.3), (4, 8, 16)
    ):
        cfg = NetworkParams(k, 0.05, 0.5, loss_peer, m, f)
        plan = an.optimize_batches(cfg)
        out.append(
            (plan.n_min, plan.n_max, plan.n_opt, plan.t_of_n, plan.total_of_n,
             an.stopping_time(plan.n_opt, cfg))
        )
    return out


def test_planner_matches_scipy_quantile(monkeypatch):
    # the stdlib quantile is 1 ulp off scipy's ndtri on these arguments, so
    # the equality of the integer outputs is a finding, not a given
    args = [0.625 / (k + 0.25) for k in (2, 3, 4, 5, 6, 9)] + [1e-8]
    assert all(an._normal_quantile(x) != float(ndtri(x)) for x in args)
    ours = _planner_grid()
    monkeypatch.setattr(an, "_normal_quantile", lambda x: float(ndtri(x)))
    assert _planner_grid() == ours
    assert an.stopping_time(402, five_user_cfg()) == 3054


def test_plan_table_csv_round_trip():
    plan = an.optimize_batches(collapse_cfg())
    text = an.plan_table_csv(plan)
    lines = text.strip().split("\n")
    assert lines[0] == "n,T,total"
    assert len(lines) == 1 + len(plan.t_of_n)
    first = lines[1].split(",")
    n0 = min(plan.t_of_n)
    assert first == [str(n0), str(plan.t_of_n[n0]), str(plan.total_of_n[n0])]
    for row in lines[1:]:
        n, t, tot = (int(x) for x in row.split(","))
        assert tot == n * 16 + t


# ------------------------------------------------------------------ distance


def test_tv_distance_basics():
    assert an.tv_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
    assert an.tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert an.tv_distance([0.75, 0.25], [0.25, 0.75]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        an.tv_distance([1.0], [0.5, 0.5])
