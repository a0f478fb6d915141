"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload ex2-payload --seed 0 --seconds 45 --trace 0

Run from the repository root. The library is imported from ``src/`` beside
this directory and called directly, in this single process, with no worker
threads or processes; BLAS is pinned to one thread. The sessions of a run
are a closed loop with seeds ``seed, seed+1, ...``, each starting when the
previous one returns, until ``--seconds`` have passed and at least the
workload's minimum session count has run.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates an
untraced and a traced session per seed, checks that both give the same
report, and prints the per-layer metrics. Every run writes its metrics,
sessions and environment to ``bench/results/``, and a traced run also its
spans. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every session was correct.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
# The host's speed drifts by up to 1.5x over minutes (other machines share
# it), and a change in the library cannot move a kernel that only uses
# numpy. Every time metric is therefore reported in reference seconds:
# wall seconds times CALIB_REF_S over the run's median reference_seconds(),
# i.e. the time it would have taken with the kernel at its typical speed on
# the 2-core machine the bounds were set on. Raw wall times are kept in the
# result file.
CALIB_REF_S = 0.025

# name -> (unit, better). Must match BENCHMARK.json; the tests check it.
END_TO_END = {
    "session_s_p50": ("s", "lower"),
    "tx_per_s": ("tx/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "total_tx_mean": ("tx", "lower"),
}
# functions whose spans have traced children, so total and self time differ
_NESTING = (
    "codec.encode_batch",
    "codec.recode",
    "codec.IncrementalDecoder.add_row",
    "codec.IncrementalDecoder.load_state",
    "codec.IncrementalDecoder.attempt",
    "codec.IncrementalDecoder.extract",
    "analytics.optimize_batches",
    "sim.run_phase1",
    "sim.prepare_phase2",
    "sim.run_phase2",
)
_MATMUL_CALLERS = (
    "codec.encode_batch",
    "codec.recode",
    "codec.IncrementalDecoder.add_row",
    "codec.IncrementalDecoder.load_state",
    "codec.IncrementalDecoder.attempt",
    "codec.IncrementalDecoder.extract",
)


def per_layer_names(functions):
    """name -> (unit, better) for every metric a traced run prints."""
    out = {
        "trace.session_s_p50": ("s", "lower"),
        "trace.overhead_s": ("s", "lower"),
        "sim.session.total_s": ("s", "lower"),
        "sim.session.self_s": ("s", "lower"),
    }
    for fn in functions:
        out[fn + ".calls"] = ("count", "lower")
        out[fn + ".self_s"] = ("s", "lower")
        if fn in _NESTING:
            out[fn + ".total_s"] = ("s", "lower")
    out["gf.matmul.mults"] = ("count", "lower")
    out["gf.matmul.bytes"] = ("bytes", "lower")
    for caller in _MATMUL_CALLERS:
        out["gf.matmul.in." + caller + ".self_s"] = ("s", "lower")
    out["codec.BatchState.absorb.innovative_ratio"] = ("ratio", "higher")
    out["codec.IncrementalDecoder.attempt.success_ratio"] = ("ratio", "higher")
    out["codec.IncrementalDecoder.inactivated"] = ("count", "lower")
    out["codec.decode_overhead"] = ("ratio", "lower")
    out["sim.redundant_frac"] = ("ratio", "lower")
    out["analytics.plan_s"] = ("s", "lower")
    return out


def _require_source() -> None:
    if not os.path.isfile(os.path.join(SRC, "batchcast", "__init__.py")):
        sys.exit("bench: no batchcast package under %s; run from a checkout" % SRC)
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.path[:0] = [SRC, BENCH]


def _git_commit():
    """The checkout's HEAD commit read from .git, or None outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "machine": platform.machine(),
        "commit": _git_commit(),
        "seed": seed,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
        + ".%06d" % (time.time() % 1 * 1e6),
    }


def reference_seconds(reps: int = 300) -> float:
    """Wall time of a fixed numpy gather-and-XOR kernel, about 25 ms.

    It has the shape of the library's GF(256) product on a 16 x 16 batch,
    but calls nothing from the library.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    table = rng.integers(0, 256, (256, 256), dtype=np.uint8)
    a = rng.integers(0, 256, (16, 16), dtype=np.uint8)
    b = rng.integers(0, 256, (16, 64), dtype=np.uint8)
    t0 = time.perf_counter()
    for _ in range(reps):
        np.bitwise_xor.reduce(table[a[:, :, None], b[None, :, :]], axis=1)
    return time.perf_counter() - t0


def setup_seconds(workload_name: str, calib: list, probes: int = SETUP_PROBES) -> list:
    """Wall time of import + planning call, each in a fresh interpreter.

    A reference_seconds() sample is appended to calib before each probe.
    """
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        "sys.path[:0] = [%r, %r]\n"
        "import workloads\n"
        "workloads.WORKLOADS[%r].plan()\n"
        "print(repr(time.perf_counter() - t0))\n" % (SRC, BENCH, workload_name)
    )
    out = []
    for _ in range(probes):
        calib.append(reference_seconds())
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


class Loop:
    """Runs and checks sessions of one workload, recording each one."""

    def __init__(self, wl, plan, golden, capture, calib):
        self.wl = wl
        self.plan = plan
        self.golden = golden
        self.capture = capture
        self.calib = calib  # reference_seconds() before every session
        self.sessions = []  # one dict per session, in order
        self.reports = []  # (traced, SimReport) of each correct session

    def one(self, seed: int, tracer=None, index: int = -1):
        """One timed session, checked afterwards; returns its record."""
        rec = {"seed": seed, "traced": tracer is not None, "errors": []}
        self.capture.take()
        self.calib.append(reference_seconds())
        report = None
        try:
            c0 = time.process_time()
            t0 = time.perf_counter()
            if tracer is None:
                report = self.wl.run(seed, self.plan)
            else:
                with tracer.root(index):
                    report = self.wl.run(seed, self.plan)
            rec["wall_s"] = time.perf_counter() - t0
            rec["cpu_s"] = time.process_time() - c0
            if tracer is not None:
                tracer.session = index
            rec["errors"] = self.wl.check(
                report, self.capture.take(), self.golden, self.plan
            )
        except Exception:
            rec["errors"].append(traceback.format_exc(limit=4))
        finally:
            if tracer is not None:
                tracer.session = -1
        rec["ok"] = not rec["errors"]
        if report is not None:
            rec["total_tx"] = report.total_tx
            rec["redundant"] = sum(report.redundant)
            rec["receptions"] = sum(report.receptions)
        self.sessions.append(rec)
        if rec["ok"]:
            self.reports.append((tracer is not None, report))
        return rec, report

    def times(self, traced: bool):
        return [
            s["wall_s"] for s in self.sessions if s["ok"] and s["traced"] == traced
        ]


def _outcomes(wl, reports):
    """Protocol outcomes over the run's first min_sessions seeds."""
    first = reports[: wl.min_sessions]
    redundant = sum(sum(r.redundant) for r in first)
    receptions = sum(sum(r.receptions) for r in first)
    decoded = [
        n / wl.params.file_packets - 1.0
        for r in first
        for n in r.innovative_at_decode
        if n >= 0
    ]
    return {
        "total_tx_mean": statistics.fmean(r.total_tx for r in first),
        "redundant_frac": redundant / receptions,
        "decode_overhead": statistics.fmean(decoded) if decoded else 0.0,
    }


def measure(wl, seed: int, seconds: float, trace: bool, golden, setup=None):
    """Run one workload; returns the result record (metrics and sessions).

    setup is the list of set-up probe times, or None to measure them here.
    Time metrics are in reference seconds (see CALIB_REF_S); the wall-clock
    values are under "raw_metrics".
    """
    from tracer import FUNCTIONS, Tracer
    from workloads import CaptureUsers, report_digests

    plan = wl.plan()
    plan_times = []
    for _ in range(5 if trace else 0):
        t0 = time.perf_counter()
        wl.plan()
        plan_times.append(time.perf_counter() - t0)
    calib = []
    if setup is None:
        setup = setup_seconds(wl.name, calib)
    tracer = Tracer() if trace else None
    # a traced run pairs every seed with a slower traced session, so it
    # keeps to the time budget rather than the workload's session minimum
    min_seeds = 1 if trace else wl.min_sessions
    with CaptureUsers() as capture:
        loop = Loop(wl, plan, golden, capture, calib)
        start = time.perf_counter()
        i = 0
        while True:
            rec, plain = loop.one(seed + i)
            if trace:
                with tracer:
                    trec, traced = loop.one(seed + i, tracer, i)
                if rec["ok"] and trec["ok"]:
                    if report_digests(plain) != report_digests(traced):
                        trec["ok"] = False
                        trec["errors"].append("traced report differs from untraced")
                        loop.reports.pop()
            i += 1
            elapsed = time.perf_counter() - start
            if i >= min_seeds and elapsed * (i + 1) / i > seconds:
                break
    attempted = len(loop.sessions)
    failed = sum(not s["ok"] for s in loop.sessions)
    result = {
        "workload": wl.name,
        "trace": int(trace),
        "seconds": seconds,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "setup_probes_s": setup,
        "calibration_s": calib,
        "sessions": loop.sessions,
    }
    untraced = loop.times(False)
    if failed == 0:
        outcomes = _outcomes(wl, [r for t, r in loop.reports if not t])
        result["outcomes"] = outcomes
        if trace:
            result["metrics"] = _layer_metrics(
                tracer, FUNCTIONS, untraced, loop.times(True), outcomes, plan_times
            )
            result["tracer"] = tracer
        else:
            result["metrics"] = {
                "session_s_p50": statistics.median(untraced),
                "tx_per_s": sum(s["total_tx"] for s in loop.sessions) / sum(untraced),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0,
                "total_tx_mean": outcomes["total_tx_mean"],
            }
        scale = CALIB_REF_S / statistics.median(calib)
        units = per_layer_names(FUNCTIONS) if trace else END_TO_END
        result["speed_scale"] = scale
        result["raw_metrics"] = result["metrics"]
        result["metrics"] = {
            name: value * scale
            if units[name][0] == "s"
            else value / scale
            if units[name][0] == "tx/s"
            else value
            for name, value in result["raw_metrics"].items()
        }
    return result


def _layer_metrics(tracer, functions, untraced, traced, outcomes, plan_times):
    summary = tracer.summary()
    n = len(traced)
    m = {
        "trace.session_s_p50": statistics.median(traced),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
        "sim.session.total_s": summary["sim.session"]["total_s"] / n,
        "sim.session.self_s": summary["sim.session"]["self_s"] / n,
    }
    for fn in functions:
        m[fn + ".calls"] = summary[fn]["calls"] / n
        m[fn + ".self_s"] = summary[fn]["self_s"] / n
        if fn in _NESTING:
            m[fn + ".total_s"] = summary[fn]["total_s"] / n
    c = tracer.counters
    m["gf.matmul.mults"] = c["gf.matmul.mults"] / n
    m["gf.matmul.bytes"] = c["gf.matmul.bytes"] / n
    for caller in _MATMUL_CALLERS:
        m["gf.matmul.in." + caller + ".self_s"] = (
            summary["gf.matmul.in." + caller]["self_s"] / n
        )
    absorbs = summary["codec.BatchState.absorb"]["calls"]
    attempts = summary["codec.IncrementalDecoder.attempt"]["calls"]
    m["codec.BatchState.absorb.innovative_ratio"] = (
        c["codec.BatchState.absorb.innovative"] / absorbs if absorbs else 0.0
    )
    m["codec.IncrementalDecoder.attempt.success_ratio"] = (
        c["codec.IncrementalDecoder.attempt.successes"] / attempts if attempts else 0.0
    )
    m["codec.IncrementalDecoder.inactivated"] = (
        c["codec.IncrementalDecoder.inactivated"] / n
    )
    m["codec.decode_overhead"] = outcomes["decode_overhead"]
    m["sim.redundant_frac"] = outcomes["redundant_frac"]
    m["analytics.plan_s"] = statistics.median(plan_times)
    return m


def write_result(result: dict, env: dict) -> str:
    """Store the run under bench/results/; returns the JSON path."""
    os.makedirs(RESULTS, exist_ok=True)
    stem = "%s_t%d_s%d_%s_%d" % (
        result["workload"],
        result["trace"],
        env["seed"],
        time.strftime("%Y%m%dT%H%M%S", time.gmtime()),
        os.getpid(),
    )
    record = {k: v for k, v in result.items() if k != "tracer"}
    record["env"] = env
    tracer = result.get("tracer")
    if tracer is not None:
        record["spans"] = stem + ".spans.npz"
        tracer.save(os.path.join(RESULTS, record["spans"]))
    path = os.path.join(RESULTS, stem + ".json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    return path


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        run_seconds = json.load(fh)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _require_source()
    from tracer import FUNCTIONS
    from workloads import WORKLOADS, load_golden

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; choose from %s" % (args.workload, list(WORKLOADS)))
    wl = WORKLOADS[args.workload]
    env = environment(args.seed)
    golden = load_golden().get(wl.name, {})
    result = measure(wl, args.seed, args.seconds, bool(args.trace), golden)
    env["loadavg_end"] = list(os.getloadavg())
    env["sessions"] = result["attempted"]
    names = per_layer_names(FUNCTIONS) if args.trace else END_TO_END
    result["metric_info"] = {
        name: {"unit": unit, "better": better} for name, (unit, better) in names.items()
    }
    path = write_result(result, env)

    print(
        "%s seed=%d trace=%d: %d sessions, %d failed (failed_frac %.4f)"
        % (wl.name, args.seed, args.trace, result["attempted"], result["failed"],
           result["failed_frac"])
    )
    for s in result["sessions"]:
        for err in s["errors"]:
            print("  FAILED seed %d: %s" % (s["seed"], err.strip()))
    if "speed_scale" in result:
        print(
            "  times in reference seconds: wall x %.4f (reference kernel median "
            "%.4f s, nominal %.4f s)"
            % (result["speed_scale"], CALIB_REF_S / result["speed_scale"], CALIB_REF_S)
        )
    metrics = {}
    for name, value in result.get("metrics", {}).items():
        unit, better = names[name]
        print("  %-52s %14.6g %-6s (%s is better)" % (name, value, unit, better))
        metrics[name] = {"value": value, "unit": unit}
    print("env " + json.dumps(env, sort_keys=True))
    print("wrote " + os.path.relpath(path, ROOT))
    correct = result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
