"""Experiment front end for planning and simulating cooperative broadcast.

Modes:
  plan          size the batch count and write the transmission curve
  simulate      Monte-Carlo runs of the full two-phase protocol
  sweep         single-phase vs two-phase totals across group sizes
  robustness    planned-for-k group simulated with a larger group
  single-phase  source-only baseline transmission counts

Configuration is a flat key=value text file; every key can be overridden
on the command line with --set, and the common ones have dedicated flags.
All outputs are CSV files whose first line is a comment recording the
exact configuration and seed, so any table can be regenerated verbatim.
"""

import argparse
import os
import sys
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, get_args

import numpy as np

from . import codec, sim
from .analytics import (
    NetworkParams,
    optimize_batches,
    plan_table_csv,
    rank_distribution,
    stopping_time,
)

MODES = ("plan", "simulate", "sweep", "robustness", "single-phase")

# keys that must be present before each mode can run
_NETWORK = ("loss_common", "loss_source", "loss_peer", "batch_size", "file_packets")
_REQUIRED = {
    "plan": ("num_users",) + _NETWORK,
    "simulate": ("num_users",) + _NETWORK,
    "sweep": _NETWORK + ("users_min", "users_max"),
    "robustness": ("num_users",) + _NETWORK + ("actual_users",),
    "single-phase": ("num_users", "loss_common", "loss_source", "file_packets"),
}


class ConfigError(ValueError):
    """Invalid configuration; carries a machine-readable error line."""

    def __init__(self, line: str):
        super().__init__(line)
        self.line = line


@dataclass
class ExperimentConfig:
    """One experiment: network parameters plus run plumbing."""

    mode: str
    num_users: Optional[int] = None
    loss_common: Optional[float] = None
    loss_source: Optional[float] = None
    loss_peer: Optional[float] = None
    batch_size: Optional[int] = None
    file_packets: Optional[int] = None
    code_overhead: float = 0.01
    outage_tolerance: float = 1e-8
    n: Optional[int] = None
    seed: int = 0
    runs: int = 1
    dist_path: Optional[str] = None
    out_dir: str = "."
    users_min: Optional[int] = None
    users_max: Optional[int] = None
    actual_users: Optional[int] = None
    write_trace: bool = False

    def params(self, num_users: Optional[int] = None) -> NetworkParams:
        return NetworkParams(
            num_users=self.num_users if num_users is None else num_users,
            loss_common=self.loss_common,
            loss_source=self.loss_source,
            loss_peer=0.0 if self.loss_peer is None else self.loss_peer,
            batch_size=16 if self.batch_size is None else self.batch_size,
            file_packets=self.file_packets,
            code_overhead=self.code_overhead,
            outage_tolerance=self.outage_tolerance,
        )

    def summary(self) -> str:
        parts = []
        for f in fields(self):
            v = getattr(self, f.name)
            if v is not None:
                parts.append("%s=%s" % (f.name, v))
        return " ".join(parts)


# each config key's value type, Optional[X] read as X
_KEY_TYPES = {
    f.name: (get_args(f.type) or (f.type,))[0] for f in fields(ExperimentConfig)
}
# the spellings a bool key accepts
_BOOLS = dict.fromkeys(("1", "true", "yes", "on"), True)
_BOOLS.update(dict.fromkeys(("0", "false", "no", "off"), False))


def parse_config_file(path: str) -> Dict[str, str]:
    """Flat key=value lines; blank lines and # comments ignored."""
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("error: bad_config path=%s detail=%s" % (path, exc))
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(
                "error: bad_config path=%s line=%d detail=not_key_value"
                % (path, lineno)
            )
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _coerce(key: str, value: str):
    kind = _KEY_TYPES[key]
    try:
        return _BOOLS[value.lower()] if kind is bool else kind(value)
    except (KeyError, ValueError):
        raise ConfigError("error: bad_value field=%s value=%s" % (key, value))


def build_config(mapping: Dict[str, str], mode: Optional[str] = None) -> ExperimentConfig:
    """Validate a raw key=value mapping into an ExperimentConfig."""
    for key in mapping:
        if key not in _KEY_TYPES:
            raise ConfigError("error: unknown_key key=%s" % key)
    chosen = mode or mapping.get("mode")
    if not chosen:
        raise ConfigError("error: missing_field field=mode")
    if chosen not in MODES:
        raise ConfigError("error: unknown_mode mode=%s" % chosen)
    cfg = ExperimentConfig(mode=chosen)
    for key, raw in mapping.items():
        if key == "mode":
            continue
        setattr(cfg, key, _coerce(key, raw))
    for field_name in _REQUIRED[chosen]:
        if getattr(cfg, field_name) is None:
            raise ConfigError(
                "error: missing_field field=%s mode=%s" % (field_name, chosen)
            )
    if cfg.runs < 1:
        raise ConfigError("error: bad_value field=runs value=%d" % cfg.runs)
    if chosen == "sweep" and cfg.users_min > cfg.users_max:
        raise ConfigError(
            "error: bad_value field=users_min value=%d detail=exceeds_users_max"
            % cfg.users_min
        )
    return cfg


def _write_csv(cfg: ExperimentConfig, name: str, body: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, name)
    with open(path, "w") as fh:
        fh.write("# %s\n" % cfg.summary())
        fh.write(body)
    return path


def _seeds(cfg: ExperimentConfig) -> List[int]:
    return list(range(cfg.seed, cfg.seed + cfg.runs))


def _load_dist(cfg: ExperimentConfig) -> Optional[codec.DegreeDistribution]:
    if cfg.dist_path is None:
        return None
    try:
        return codec.DegreeDistribution.from_file(cfg.dist_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(
            "error: bad_value field=dist_path value=%s detail=%s"
            % (cfg.dist_path, exc)
        )


def cmd_plan(cfg: ExperimentConfig) -> int:
    plan = optimize_batches(cfg.params())
    path = _write_csv(cfg, "plan.csv", plan_table_csv(plan))
    print("n_l=%d n_u=%d n*=%d" % (plan.n_min, plan.n_max, plan.n_opt))
    print("wrote %s" % path)
    return 0


def _mean_sd(rows: List[float]):
    if not rows:
        return float("nan"), float("nan")
    arr = np.asarray(rows, dtype=float)
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), sd


def cmd_simulate(cfg: ExperimentConfig) -> int:
    params = cfg.params()
    dist = _load_dist(cfg)
    n = cfg.n if cfg.n is not None else optimize_batches(params).n_opt
    header = (
        "seed,status,phase1_tx,phase2_tx,total_tx,"
        "decode_tx_max,innovative_at_decode_mean,redundant_total"
    )
    lines = [header]
    # per ok seed: its six values, in header order, and its rank distribution
    values = []
    ranks = []
    for seed in _seeds(cfg):
        try:
            rep = sim.run_session(
                params,
                seed,
                num_batches=n,
                with_trace=cfg.write_trace,
                dist=dist,
            )
        except sim.SimulationStallError:
            lines.append("%d,stalled,,,,,," % seed)
            continue
        values.append(
            (
                rep.phase1_tx,
                rep.phase2_tx,
                rep.total_tx,
                max(rep.decode_slots),
                float(np.mean(rep.innovative_at_decode)),
                rep.redundant_total,
            )
        )
        ranks.append(rep.rank_distribution)
        lines.append("%d,ok,%d,%d,%d,%d,%.2f,%d" % ((seed,) + values[-1]))
        if cfg.write_trace:
            _write_csv(cfg, "trace_%d.csv" % seed, sim.trace_to_csv(rep))
    stats = [_mean_sd([v[i] for v in values]) for i in range(6)]
    if values:
        for idx, label in ((0, "mean"), (1, "sd")):
            lines.append(
                "%s,ok,%s" % (label, ",".join("%.2f" % s[idx] for s in stats))
            )
    path = _write_csv(cfg, "simulate.csv", "\n".join(lines) + "\n")

    rank_lines = ["rank,empirical,exact_model,normal_approx"]
    if ranks:
        empirical = np.mean(ranks, axis=0)
        try:
            t_est = stopping_time(n, params)
        except ValueError:
            # no stopping time for n batches: no model, as a stall has no totals
            models = [",,"] * (params.batch_size + 1)
        else:
            exact = rank_distribution(n, t_est, params)
            approx = rank_distribution(n, t_est, params, approximate=True)
            models = [",%.6f,%.6f" % pair for pair in zip(exact, approx)]
        for r, model in enumerate(models):
            rank_lines.append("%d,%.6f%s" % (r, empirical[r], model))
    rank_path = _write_csv(cfg, "rank_distribution.csv", "\n".join(rank_lines) + "\n")

    mean_total, sd_total = stats[2]
    print(
        "simulate: n=%d runs=%d ok=%d mean_total=%.1f sd_total=%.1f"
        % (n, cfg.runs, len(values), mean_total, sd_total)
    )
    print("wrote %s" % path)
    print("wrote %s" % rank_path)
    return 0


def cmd_sweep(cfg: ExperimentConfig) -> int:
    lines = ["num_users,single_phase,two_phase,saving,loss_common,loss_source,loss_peer"]
    for k in range(cfg.users_min, cfg.users_max + 1):
        params = cfg.params(num_users=k)
        n = cfg.n if cfg.n is not None else optimize_batches(params).n_opt
        single = []
        two = []
        for seed in _seeds(cfg):
            single.append(sim.run_single_phase(params, seed))
            two.append(sim.run_session(params, seed, num_batches=n).total_tx)
        s_mean = float(np.mean(single))
        t_mean = float(np.mean(two))
        lines.append(
            "%d,%.1f,%.1f,%.1f,%g,%g,%g"
            % (
                k,
                s_mean,
                t_mean,
                s_mean - t_mean,
                cfg.loss_common,
                cfg.loss_source,
                cfg.loss_peer,
            )
        )
        print(
            "k=%d single=%.1f two_phase=%.1f saving=%.1f"
            % (k, s_mean, t_mean, s_mean - t_mean)
        )
    path = _write_csv(cfg, "sweep.csv", "\n".join(lines) + "\n")
    print("wrote %s" % path)
    return 0


def cmd_robustness(cfg: ExperimentConfig) -> int:
    design = cfg.params()
    actual = cfg.params(num_users=cfg.actual_users)
    ideal_n = optimize_batches(actual).n_opt
    lines = ["seed,design_users,actual_users,robust_total,ideal_total"]
    robust_totals = []
    ideal_totals = []
    for seed in _seeds(cfg):
        robust = sim.run_robustness(design, cfg.actual_users, seed)
        ideal = sim.run_session(actual, seed, num_batches=ideal_n)
        robust_totals.append(robust.total_tx)
        ideal_totals.append(ideal.total_tx)
        lines.append(
            "%d,%d,%d,%d,%d"
            % (seed, design.num_users, cfg.actual_users, robust.total_tx, ideal.total_tx)
        )
    r_mean = float(np.mean(robust_totals))
    i_mean = float(np.mean(ideal_totals))
    degradation = 100.0 * (r_mean - i_mean) / i_mean
    lines.append(
        "mean,%d,%d,%.2f,%.2f" % (design.num_users, cfg.actual_users, r_mean, i_mean)
    )
    path = _write_csv(cfg, "robustness.csv", "\n".join(lines) + "\n")
    print(
        "robustness: design_k=%d actual_k=%d robust_mean=%.1f ideal_mean=%.1f "
        "degradation_pct=%.2f" % (design.num_users, cfg.actual_users, r_mean, i_mean, degradation)
    )
    print("wrote %s" % path)
    return 0


def cmd_single_phase(cfg: ExperimentConfig) -> int:
    params = cfg.params()
    lines = ["seed,transmissions"]
    vals = []
    for seed in _seeds(cfg):
        tx = sim.run_single_phase(params, seed)
        vals.append(tx)
        lines.append("%d,%d" % (seed, tx))
    mean, sd = _mean_sd([float(v) for v in vals])
    lines.append("mean,%.2f" % mean)
    lines.append("sd,%.2f" % sd)
    path = _write_csv(cfg, "single_phase.csv", "\n".join(lines) + "\n")
    print("single-phase: runs=%d mean=%.1f sd=%.1f" % (cfg.runs, mean, sd))
    print("wrote %s" % path)
    return 0


_COMMANDS = {
    "plan": cmd_plan,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "robustness": cmd_robustness,
    "single-phase": cmd_single_phase,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="batchcast",
        description="Plan and simulate two-phase cooperative broadcasting.",
    )
    parser.add_argument("mode", nargs="?", choices=MODES, help="experiment mode")
    parser.add_argument("--config", help="path to a key=value config file")
    parser.add_argument("--seed", type=int, help="base RNG seed")
    parser.add_argument("--runs", type=int, help="number of seeded runs")
    parser.add_argument("--n", type=int, help="batch-count override")
    parser.add_argument("--out-dir", help="directory for CSV outputs")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any config key (repeatable)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        mapping: Dict[str, str] = {}
        if args.config:
            mapping.update(parse_config_file(args.config))
        for item in args.set:
            if "=" not in item:
                raise ConfigError(
                    "error: bad_value field=--set value=%s detail=not_key_value" % item
                )
            key, _, value = item.partition("=")
            mapping[key.strip()] = value.strip()
        for flag in ("seed", "runs", "n"):
            value = getattr(args, flag)
            if value is not None:
                mapping[flag] = str(value)
        if args.out_dir is not None:
            mapping["out_dir"] = args.out_dir
        cfg = build_config(mapping, mode=args.mode)
        try:
            return _COMMANDS[cfg.mode](cfg)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError("error: bad_value detail=%s" % exc)
    except ConfigError as exc:
        print(exc.line, file=sys.stderr)
        return 2
    except sim.SimulationStallError as exc:
        print("error: stalled detail=%s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
