"""Acceptance criteria for the cooperative broadcast package.

Every criterion runs at its stated tolerance and reports exactly one
PASS/FAIL line (collected into the terminal summary). Failing sub-checks
carry the measured numbers so a reader can see how far off they landed.
Runtime budgets are asserted over the work each criterion consumed,
including its share of the session-scoped batteries from conftest.
"""

import time

import numpy as np

import conftest
from batchcast import codec, gf, sched, sim
from batchcast.analytics import (
    NetworkParams,
    delta_distribution,
    delta_distribution_convolution,
    optimize_batches,
    rank_distribution,
    redundancy,
    stopping_time,
    tv_distance,
)
from conftest import (
    COLLAPSE,
    EX2,
    EX3,
    EXP,
    deliver,
    encoded,
    held,
    recoded,
    source_rows,
)


def report(number: int, checks, wall: float, budget: float = None):
    """Assemble the one-line verdict, record it, and enforce it."""
    if budget is not None:
        checks = checks + [
            (wall < budget, "runtime %.1fs (budget %.0fs)" % (wall, budget))
        ]
    failed = [detail for ok, detail in checks if not ok]
    verdict = "PASS" if not failed else "FAIL"
    detail = "; ".join(detail for ok, detail in checks)
    line = "criterion %d: %s - %s [%.1fs]" % (number, verdict, detail, wall)
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert not failed, line


# ------------------------------------------------------- 1: usefulness matrix

EX1_MATRIX = np.array(
    [
        [0.7500, 0.5000, 0.8750, 0.9375, 0.7500],
        [0.3000, 0.0500, 0.5375, 0.7125, 0.3000],
        [0.0525, 0.0050, 0.2000, 0.3862, 0.0525],
        [0.0075, 0.0005, 0.0448, 0.1410, 0.0075],
    ]
)


def test_criterion_1_usefulness_matrix():
    t0 = time.perf_counter()
    params = NetworkParams(
        num_users=3,
        loss_common=0.0,
        loss_source=0.5,
        loss_peer=0.1,
        batch_size=4,
        file_packets=100,
    )
    matrix = sched.build_matrix(np.array([2, 1, 3, 4, 2]), params)
    queue = sched.build_queue(matrix)
    gap = float(np.abs(matrix - EX1_MATRIX).max())
    matrix_ok = gap <= 5.1e-5
    prefix = [int(v) for v in queue[:6]]
    queue_ok = prefix == [4, 3, 1, 5, 4, 3]
    wall = time.perf_counter() - t0
    report(
        1,
        [
            (matrix_ok, "4x5 matrix max|diff|=%.1e (4dp)" % gap),
            (queue_ok, "queue prefix %s" % prefix),
        ],
        wall=wall,
        budget=1.0,
    )


# ------------------------------------------------------ 2: planner headlines


def test_criterion_2_planner_headlines():
    t0 = time.perf_counter()
    p3 = optimize_batches(EX3)
    p2 = optimize_batches(EX2)
    pe = optimize_batches(EXP)
    t211 = stopping_time(211, EXP)
    r167 = redundancy(stopping_time(167, EXP), 167, EXP)
    checks = [
        (p3.n_min == 351, "ex3 n_l=%d (want 351)" % p3.n_min),
        (p3.n_max == 673, "ex3 n_u=%d (want 673)" % p3.n_max),
        (abs(p3.n_opt - 402) <= 3, "ex3 n*=%d (want 402±3)" % p3.n_opt),
        (abs(p2.n_min - 129) <= 1, "ex2 n_l=%d (want 129±1)" % p2.n_min),
        (abs(pe.n_min - 167) <= 2, "exp n_min=%d (want 167±2)" % pe.n_min),
        (abs(pe.n_opt - 211) <= 3, "exp n*=%d (want 211±3)" % pe.n_opt),
        (abs(t211 - 956) <= 10, "T(211)=%d (want 956±10)" % t211),
        (abs(r167 - 325) <= 10, "R(167)=%.1f (want 325±10)" % r167),
    ]
    report(2, checks, wall=time.perf_counter() - t0, budget=10.0)


# ------------------------------------------------------------ 3: peer-gap law


def _sample_peer_gap(params: NetworkParams, samples: int, seed: int) -> np.ndarray:
    """Monte-Carlo of packets a user misses that some peer still holds.

    Samples the two reception stages the analytic law composes: the user
    loses a packet through the common draw or its own source draw, and a
    peer covers it when any of the other k-1 source draws survive.
    """
    rng = np.random.default_rng(seed)
    m = params.batch_size
    k = params.num_users
    counts = np.zeros(samples, dtype=np.int64)
    chunk = 100_000
    done = 0
    while done < samples:
        size = min(chunk, samples - done)
        miss = (rng.random((size, m)) < params.loss_common) | (
            rng.random((size, m)) < params.loss_source
        )
        peer_hit = (rng.random((size, m, k - 1)) >= params.loss_source).any(axis=2)
        counts[done : done + size] = (miss & peer_hit).sum(axis=1)
        done += size
    return counts


def test_criterion_3_peer_gap_law():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for m in (4, 8, 16, 32):
        for _ in range(100):
            params = NetworkParams(
                num_users=int(rng.integers(2, 11)),
                loss_common=float(rng.uniform(0.0, 0.4)),
                loss_source=float(rng.uniform(0.05, 0.9)),
                loss_peer=0.0,
                batch_size=m,
                file_packets=64,
            )
            gap = np.abs(
                delta_distribution(params) - delta_distribution_convolution(params)
            ).max()
            worst = max(worst, float(gap))
    conv_ok = worst <= 1e-10

    worst_tv = 0.0
    for params in (EX2, COLLAPSE):
        counts = _sample_peer_gap(params, 1_000_000, seed=7)
        emp = np.bincount(counts, minlength=params.batch_size + 1) / 1e6
        worst_tv = max(worst_tv, tv_distance(emp, delta_distribution(params)))
    mc_ok = worst_tv <= 0.01
    report(
        3,
        [
            (conv_ok, "convolution vs closed form max|diff|=%.2e (<=1e-10)" % worst),
            (mc_ok, "Monte-Carlo TV=%.4f at 1e6 samples (<=0.01)" % worst_tv),
        ],
        wall=time.perf_counter() - t0,
        budget=30.0,
    )


# ----------------------------------------------------- 4: rank distribution


def test_criterion_4_rank_distribution(ex2_rank_battery, ex3_rank_battery):
    t0 = time.perf_counter()
    checks = []
    # the closed-form approximation is only claimed at the minimum batch
    # count, so its TV at the larger ex3 plan is reported, not asserted
    for tag, battery, assert_approx in (
        ("ex2", ex2_rank_battery, True),
        ("ex3", ex3_rank_battery, False),
    ):
        tv_exact = tv_distance(battery["empirical"], battery["exact"])
        tv_approx = tv_distance(battery["empirical"], battery["approx"])
        checks.append(
            (
                tv_exact <= 0.05,
                "%s TV(exact)=%.4f (<=0.05, %d seeds)"
                % (tag, tv_exact, battery["seeds"]),
            )
        )
        if assert_approx:
            checks.append(
                (tv_approx <= 0.07, "%s TV(approx)=%.4f (<=0.07)" % (tag, tv_approx))
            )
        else:
            checks.append(
                (True, "%s TV(approx)=%.4f (informational)" % (tag, tv_approx))
            )
    wall = (
        time.perf_counter()
        - t0
        + ex2_rank_battery["wall"]
        + ex3_rank_battery["wall"]
    )
    report(4, checks, wall=wall, budget=300.0)


# ---------------------------------------------------- 5: end-to-end totals


def test_criterion_5_end_to_end_totals(exp167_battery, exp211_battery):
    t0 = time.perf_counter()
    total167 = float(exp167_battery["totals"].mean())
    phase2_211 = float(exp211_battery["phase2"].mean())
    total211 = float(exp211_battery["totals"].mean())
    innovative = np.concatenate(
        [
            exp167_battery["innovative_at_decode"],
            exp211_battery["innovative_at_decode"],
        ]
    )
    overhead = float(innovative.mean() - 2083.0) / 2083.0
    checks = [
        (
            abs(total167 - 4939) <= 0.05 * 4939,
            "n=167 total=%.0f (want 4939±5%%)" % total167,
        ),
        (
            abs(phase2_211 - 968) <= 0.05 * 968,
            "n=211 phase2=%.0f (want 968±5%%)" % phase2_211,
        ),
        (
            abs(total211 - 4344) <= 0.05 * 4344,
            "n=211 total=%.0f (want 4344±5%%)" % total211,
        ),
        (overhead <= 0.01, "decode overhead=%.2f%% (<=1%%)" % (100 * overhead)),
    ]
    wall = (
        time.perf_counter() - t0 + exp167_battery["wall"] + exp211_battery["wall"]
    )
    report(5, checks, wall=wall, budget=300.0)


# -------------------------------------------------- 6: single-phase collapse


def test_criterion_6_single_phase_collapse(collapse_battery, fig7_battery):
    t0 = time.perf_counter()
    plan = collapse_battery["plan"]
    two = float(collapse_battery["two_phase"].mean())
    single = float(collapse_battery["single"].mean())
    gap = abs(two - single) / single
    save_a = fig7_battery["arms"]["A"]
    save_b = fig7_battery["arms"]["B"]
    checks = [
        (
            plan.n_opt == plan.n_max,
            "p1=p2,p0=0: n*=%d vs n_u=%d" % (plan.n_opt, plan.n_max),
        ),
        (
            gap <= 0.02,
            "two-phase %.0f vs single %.0f (gap %.2f%%, <=2%%)"
            % (two, single, 100 * gap),
        ),
        (
            abs(save_a["realized"] - 563) <= 0.10 * 563,
            "saving(p1=.5,p2=.1)=%.0f sim / %d planned (want 563±10%%)"
            % (save_a["realized"], save_a["planned"]),
        ),
        (
            abs(save_b["realized"] - 108) <= 0.10 * 108,
            "saving(p1=.4,p2=.2)=%.0f sim / %d planned (want 108±10%%)"
            % (save_b["realized"], save_b["planned"]),
        ),
    ]
    wall = time.perf_counter() - t0 + collapse_battery["wall"] + fig7_battery["wall"]
    report(6, checks, wall=wall)


# ---------------------------------------------------------- 7: robustness


def test_criterion_7_robustness(robustness_battery):
    t0 = time.perf_counter()
    robust = float(robustness_battery["robust"].mean())
    ideal = float(robustness_battery["ideal"].mean())
    degradation = (robust - ideal) / ideal
    checks = [
        (
            degradation <= 0.05,
            "design_k=3 run_k=9: robust=%.0f ideal=%.0f degradation=%.2f%% (<=5%%)"
            % (robust, ideal, 100 * degradation),
        )
    ]
    report(7, checks, wall=time.perf_counter() - t0 + robustness_battery["wall"])


# -------------------------------------------------------- 8: oracle suites


def _dense_rank(got, descriptors, file_packets: int) -> int:
    """Rank of every buffered row expanded over the whole file."""
    rows = []
    for bid, desc in descriptors.items():
        if got.ranks[bid, 0] == 0:
            continue
        coeffs = held(got, bid)[:, : desc.gen_t.shape[0]]
        expanded = gf.matmul(coeffs, desc.gen_t)
        for r in expanded:
            wide = np.zeros(file_packets, dtype=np.uint8)
            wide[desc.contribs] = r
            rows.append(wide)
    if not rows:
        return 0
    return gf.rank(np.array(rows, dtype=np.uint8))


def _decode_instance(seed: int):
    """Small session with lossy, partially recoded receptions: the file,
    descriptors and the one-receiver buffers of what was received."""
    rng = np.random.default_rng(seed)
    file_packets = int(rng.integers(8, 65))
    batch_size = int(rng.choice([4, 8]))
    num_batches = int(rng.integers(2, 17))
    payload_len = int(rng.integers(1, 9))
    file = rng.integers(0, 256, (file_packets, payload_len), dtype=np.uint8)
    dist = codec.design_distribution(file_packets, num_batches, batch_size)
    descriptors = {}
    sender, got = (
        codec.BatchBuffers(num_batches, 1, batch_size, payload_len) for _ in range(2)
    )
    tables = gf.SplitTables(file)
    for bid in range(1, num_batches + 1):
        desc, payloads = encoded(tables, dist, bid, seed, batch_size)
        descriptors[bid] = desc
        pkts = source_rows(payloads)
        for p in pkts:
            if rng.random() < 0.8:
                deliver(sender, bid, p)
        for _ in range(int(rng.integers(0, batch_size + 3))):
            if sender.ranks[bid, 0] and rng.random() < 0.7:
                deliver(got, bid, recoded(sender, bid, 0, rng))
            else:
                deliver(got, bid, pkts[int(rng.integers(batch_size))])
    return file, descriptors, got


def _gf_axioms(trials: int, seed: int) -> bool:
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 256, trials, dtype=np.uint8)
    b = rng.integers(0, 256, trials, dtype=np.uint8)
    c = rng.integers(0, 256, trials, dtype=np.uint8)
    ok = np.array_equal(gf.mul(a, b), gf.mul(b, a))
    ok &= np.array_equal(gf.mul(a, gf.mul(b, c)), gf.mul(gf.mul(a, b), c))
    ok &= np.array_equal(
        gf.mul(a, gf.add(b, c)), gf.add(gf.mul(a, b), gf.mul(a, c))
    )
    ok &= np.array_equal(gf.add(a, a), np.zeros_like(a))
    nz = a[a != 0]
    inv = np.array([gf.inv(int(v)) for v in nz[:512]], dtype=np.uint8)
    ok &= np.array_equal(gf.mul(nz[:512], inv), np.ones(inv.size, dtype=np.uint8))
    return bool(ok)


def _usefulness_properties(draws: int, seed: int) -> bool:
    """Sends never help more as a batch repeats; more receptions dominate."""
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        p1 = float(rng.uniform(0.1, 0.9))
        params = NetworkParams(
            num_users=int(rng.integers(2, 9)),
            loss_common=float(rng.uniform(0.0, 0.3)),
            loss_source=p1,
            loss_peer=float(rng.uniform(0.0, p1)),
            batch_size=int(rng.choice([4, 8, 16])),
            file_packets=64,
        )
        counts = rng.integers(0, params.batch_size + 1, 6)
        matrix = sched.build_matrix(counts, params)
        if np.any(np.diff(matrix, axis=0) > 1e-12):
            return False
        order = np.argsort(counts, kind="stable")
        if np.any(np.diff(matrix[:, order], axis=1) < -1e-12):
            return False
    return True


def test_criterion_8_oracle_suites():
    t0 = time.perf_counter()
    axioms_ok = _gf_axioms(10_000, seed=99)

    oracle_ok = True
    full = partial = 0
    for seed in range(200):
        file, descriptors, got = _decode_instance(seed)
        file_packets = file.shape[0]
        rank = _dense_rank(got, descriptors, file_packets)
        result = codec.decode(got, 0, descriptors, file_packets)
        if result.unresolved != file_packets - rank:
            oracle_ok = False
            break
        if result.success != (rank == file_packets):
            oracle_ok = False
            break
        if result.success:
            full += 1
            if not np.array_equal(result.payloads, file):
                oracle_ok = False
                break
        else:
            partial += 1

    sched_ok = _usefulness_properties(1000, seed=4242)

    norm_worst = 0.0
    rng = np.random.default_rng(17)
    for _ in range(40):
        params = NetworkParams(
            num_users=int(rng.integers(2, 8)),
            loss_common=float(rng.uniform(0.0, 0.3)),
            loss_source=float(rng.uniform(0.2, 0.8)),
            loss_peer=float(rng.uniform(0.0, 0.2)),
            batch_size=16,
            file_packets=int(rng.integers(200, 2000)),
        )
        n = max(2, int(np.ceil(1.2 * params.file_packets / params.batch_size)))
        pr = rank_distribution(n, float(rng.integers(50, 4000)), params)
        norm_worst = max(norm_worst, abs(float(pr.sum()) - 1.0))
    norm_ok = norm_worst <= 1e-9

    fast = NetworkParams(
        num_users=3,
        loss_common=0.05,
        loss_source=0.5,
        loss_peer=0.1,
        batch_size=8,
        file_packets=300,
    )
    a = sim.run_session(fast, 5, num_batches=64, with_trace=True)
    b = sim.run_session(fast, 5, num_batches=64, with_trace=True)
    determinism_ok = (
        a.trace == b.trace
        and a.decode_slots == b.decode_slots
        and np.array_equal(a.rank_distribution, b.rank_distribution)
    )
    report(
        8,
        [
            (axioms_ok, "field axioms 1e4 triples"),
            (
                oracle_ok and full >= 20 and partial >= 20,
                "decoder vs dense elimination 200 instances (%d full, %d partial)"
                % (full, partial),
            ),
            (sched_ok, "usefulness monotonicity+dominance 1e3 draws"),
            (norm_ok, "rank law normalization max|1-sum|=%.1e (<=1e-9)" % norm_worst),
            (determinism_ok, "seeded reruns bit-identical"),
        ],
        wall=time.perf_counter() - t0,
    )
