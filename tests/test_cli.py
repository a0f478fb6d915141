"""Tests for the experiment command line."""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

from batchcast import cli, codec

BASE = {
    "num_users": "3",
    "loss_common": "0.05",
    "loss_source": "0.5",
    "loss_peer": "0.1",
    "batch_size": "8",
    "file_packets": "300",
}


def write_cfg(tmp_path, extra=None, drop=()):
    lines = ["# test network", ""]
    data = dict(BASE)
    if extra:
        data.update(extra)
    for key in drop:
        data.pop(key, None)
    lines += ["%s=%s" % (k, v) for k, v in data.items()]
    path = tmp_path / "net.cfg"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run_cli(args):
    return cli.main(args)


# ------------------------------------------------------------------ plan


def test_plan_headline_and_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert run_cli(["plan", "--config", cfg, "--out-dir", str(out)]) == 0
    text = capsys.readouterr().out
    assert "n_l=52 n_u=83 n*=62" in text
    body = (out / "plan.csv").read_text()
    lines = body.splitlines()
    assert lines[0].startswith("# mode=plan")
    assert lines[1] == "n,T,total"
    first = lines[2].split(",")
    assert [int(v) for v in first] == [52, 264, 680]
    # planning is deterministic: a second invocation rewrites the same bytes
    assert run_cli(["plan", "--config", cfg, "--out-dir", str(out)]) == 0
    assert (out / "plan.csv").read_text() == body


# -------------------------------------------------------------- simulate


def test_simulate_outputs_and_determinism(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    args = [
        "simulate",
        "--config",
        cfg,
        "--out-dir",
        str(out),
        "--runs",
        "2",
        "--n",
        "64",
    ]
    assert run_cli(args) == 0
    sim_body = (out / "simulate.csv").read_text()
    rank_body = (out / "rank_distribution.csv").read_text()

    lines = sim_body.splitlines()
    assert lines[0].startswith("# mode=simulate")
    assert lines[1].split(",")[:3] == ["seed", "status", "phase1_tx"]
    data = [ln.split(",") for ln in lines[2:]]
    assert [row[0] for row in data] == ["0", "1", "mean", "sd"]
    assert all(row[1] == "ok" for row in data)
    for row in data[:2]:
        assert int(row[2]) == 64 * 8
        assert int(row[4]) == int(row[2]) + int(row[3])

    rlines = rank_body.splitlines()
    assert rlines[1] == "rank,empirical,exact_model,normal_approx"
    table = np.array([[float(v) for v in ln.split(",")] for ln in rlines[2:]])
    assert table.shape == (9, 4)
    # columns are rounded to 6 decimals in the file
    assert abs(table[:, 1].sum() - 1.0) < 1e-5
    assert abs(table[:, 2].sum() - 1.0) < 1e-5

    # identical seeds and config reproduce identical files
    assert run_cli(args) == 0
    assert (out / "simulate.csv").read_text() == sim_body
    assert (out / "rank_distribution.csv").read_text() == rank_body


def test_simulate_writes_traces_on_request(tmp_path):
    cfg = write_cfg(tmp_path, extra={"write_trace": "1", "n": "64"})
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
    trace = (out / "trace_0.csv").read_text()
    lines = trace.splitlines()
    assert lines[1].startswith("slot,sender,batch_id,delivered_u0")
    assert len(lines) > 2


def test_simulate_accepts_degree_file(tmp_path):
    dist_path = tmp_path / "degrees.txt"
    codec.design_distribution(300, 80, 8).to_file(str(dist_path))
    cfg = write_cfg(tmp_path, extra={"dist_path": str(dist_path), "n": "80"})
    out = tmp_path / "out"
    assert run_cli(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
    assert (out / "simulate.csv").exists()


def test_simulate_bad_degree_file(tmp_path, capsys):
    cfg = write_cfg(tmp_path, extra={"dist_path": str(tmp_path / "nope.txt")})
    rc = run_cli(["simulate", "--config", cfg, "--out-dir", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: bad_value field=dist_path value=")


def test_simulate_degree_file_with_nan_weight_is_a_config_error(tmp_path, capsys):
    dist_path = tmp_path / "nan.txt"
    dist_path.write_text("1 nan\n2 1.0\n")
    cfg = write_cfg(tmp_path, extra={"dist_path": str(dist_path)})
    assert run_cli(["simulate", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: bad_value field=dist_path value=")
    assert "must be finite" in err
    assert not (tmp_path / "simulate.csv").exists()


def test_simulate_records_stalled_seeds(tmp_path):
    # 20 batches of 8 cannot reach rank 300: every seed stalls, the run
    # still exits cleanly with each failure recorded.
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    rc = run_cli(
        [
            "simulate",
            "--config",
            cfg,
            "--out-dir",
            str(out),
            "--runs",
            "2",
            "--n",
            "20",
        ]
    )
    assert rc == 0
    lines = (out / "simulate.csv").read_text().splitlines()
    data = [ln.split(",") for ln in lines[2:]]
    assert len(data) == 2
    assert all(row[1] == "stalled" for row in data)


# ----------------------------------------------------------------- sweep


def test_sweep_csv(tmp_path):
    cfg = write_cfg(tmp_path, drop=("num_users",))
    out = tmp_path / "out"
    rc = run_cli(
        [
            "sweep",
            "--config",
            cfg,
            "--out-dir",
            str(out),
            "--set",
            "users_min=2",
            "--set",
            "users_max=3",
        ]
    )
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1] == (
        "num_users,single_phase,two_phase,saving,loss_common,loss_source,loss_peer"
    )
    rows = [ln.split(",") for ln in lines[2:]]
    assert [int(r[0]) for r in rows] == [2, 3]
    for r in rows:
        assert float(r[3]) == pytest.approx(float(r[1]) - float(r[2]), abs=0.11)


# ------------------------------------------------------------ robustness


def test_robustness_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path, extra={"actual_users": "5"})
    out = tmp_path / "out"
    assert run_cli(["robustness", "--config", cfg, "--out-dir", str(out)]) == 0
    assert "degradation_pct=" in capsys.readouterr().out
    lines = (out / "robustness.csv").read_text().splitlines()
    assert lines[1] == "seed,design_users,actual_users,robust_total,ideal_total"
    row = lines[2].split(",")
    assert row[1] == "3" and row[2] == "5"
    assert lines[-1].startswith("mean,")


def test_robustness_rejects_smaller_group(tmp_path, capsys):
    cfg = write_cfg(tmp_path, extra={"actual_users": "2"})
    rc = run_cli(["robustness", "--config", cfg, "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "error: bad_value" in capsys.readouterr().err


# ---------------------------------------------------------- single-phase


def test_single_phase_csv(tmp_path):
    cfg = write_cfg(tmp_path, drop=("loss_peer", "batch_size"))
    out = tmp_path / "out"
    rc = run_cli(
        ["single-phase", "--config", cfg, "--out-dir", str(out), "--runs", "3"]
    )
    assert rc == 0
    lines = (out / "single_phase.csv").read_text().splitlines()
    assert lines[1] == "seed,transmissions"
    assert len(lines) == 2 + 3 + 2  # comment, header, 3 seeds, mean, sd
    assert lines[-2].startswith("mean,")
    assert lines[-1].startswith("sd,")
    vals = [int(ln.split(",")[1]) for ln in lines[2:5]]
    assert all(v >= 303 for v in vals)


# ---------------------------------------------------------------- config


def test_missing_field_is_named(tmp_path, capsys):
    cfg = write_cfg(tmp_path, drop=("loss_peer",))
    rc = run_cli(["simulate", "--config", cfg])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: missing_field field=loss_peer mode=simulate" in err


def test_mode_required(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert run_cli(["--config", cfg]) == 2
    assert "error: missing_field field=mode" in capsys.readouterr().err


def test_mode_from_config_file(tmp_path, capsys):
    cfg = write_cfg(tmp_path, extra={"mode": "plan"})
    out = tmp_path / "out"
    assert run_cli(["--config", cfg, "--out-dir", str(out)]) == 0
    assert "n_l=" in capsys.readouterr().out


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    rc = run_cli(["plan", "--config", cfg, "--set", "bogus=1"])
    assert rc == 2
    assert "error: unknown_key key=bogus" in capsys.readouterr().err


def test_bad_value_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    rc = run_cli(["plan", "--config", cfg, "--set", "num_users=abc"])
    assert rc == 2
    assert "error: bad_value field=num_users value=abc" in capsys.readouterr().err


def test_runs_must_be_positive(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    rc = run_cli(["plan", "--config", cfg, "--runs", "0"])
    assert rc == 2
    assert "error: bad_value field=runs" in capsys.readouterr().err


def test_sweep_range_validated(tmp_path, capsys):
    cfg = write_cfg(tmp_path, drop=("num_users",))
    rc = run_cli(
        [
            "sweep",
            "--config",
            cfg,
            "--set",
            "users_min=5",
            "--set",
            "users_max=3",
        ]
    )
    assert rc == 2
    assert "error: bad_value field=users_min" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    rc = run_cli(["plan", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 2
    assert "error: bad_config" in capsys.readouterr().err


def test_malformed_config_line(tmp_path, capsys):
    path = tmp_path / "broken.cfg"
    path.write_text("num_users=3\nthis is not a pair\n")
    rc = run_cli(["plan", "--config", str(path)])
    assert rc == 2
    assert "detail=not_key_value" in capsys.readouterr().err


def test_bad_set_argument(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    rc = run_cli(["plan", "--config", cfg, "--set", "oops"])
    assert rc == 2
    assert "error: bad_value field=--set" in capsys.readouterr().err


def test_invalid_network_values_surface_as_config_errors(tmp_path, capsys):
    cfg = write_cfg(tmp_path, extra={"loss_source": "2.0"})
    rc = run_cli(["plan", "--config", cfg, "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "error: bad_value" in capsys.readouterr().err


def test_flag_overrides_config_seed(tmp_path):
    cfg = write_cfg(tmp_path, extra={"seed": "0", "n": "64"})
    out = tmp_path / "out"
    rc = run_cli(
        ["simulate", "--config", cfg, "--out-dir", str(out), "--seed", "5"]
    )
    assert rc == 0
    lines = (out / "simulate.csv").read_text().splitlines()
    assert lines[2].split(",")[0] == "5"


def test_module_entry_point(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    # the child imports the package this test imported, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "batchcast.cli",
            "plan",
            "--config",
            cfg,
            "--out-dir",
            str(out),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "n_l=52 n_u=83 n*=62" in proc.stdout
    bad = subprocess.run(
        [sys.executable, "-m", "batchcast.cli", "simulate"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert bad.returncode == 2
    assert bad.stderr.startswith("error: missing_field")


def test_infeasible_plan_is_a_config_error(tmp_path, capsys):
    # a single user has an empty feasible batch range; planning and
    # simulating must both refuse it instead of stalling
    cfg = write_cfg(
        tmp_path, {"num_users": "1", "batch_size": "16", "file_packets": "1600"}
    )
    for mode in ("plan", "simulate"):
        assert run_cli([mode, "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err.strip()
        assert err == (
            "error: bad_value detail=one user has no peer to repair it in "
            "phase 2, and phase 1 alone delivers the file at no batch count in "
            "[n_min=235, n_max=213]"
        )


def test_plan_for_one_user_exits_with_a_config_error(tmp_path, capsys):
    # EX2 with its group cut to one user, set on the command line
    ex2 = dict(BASE, num_users="1", batch_size="16", file_packets="1600")
    args = ["plan", "--out-dir", str(tmp_path)]
    for key, value in ex2.items():
        args += ["--set", "%s=%s" % (key, value)]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: bad_value detail=one user has no peer")


@pytest.mark.parametrize("overhead", ["inf", "1e308", "nan", "1e300"])
def test_non_finite_coded_length_is_a_config_error(tmp_path, capsys, overhead):
    # EX2's file: 1e308 is finite but (1 + 1e308) * 1600 is not; for a
    # one-packet file the coded length is finite, but the planner's batch
    # counts are not. single-phase and sweep --n skip the planner, and
    # their baseline would overflow its cap (1e308) or never finish (1e300).
    modes = {
        "plan.csv": ["plan"],
        "single_phase.csv": ["single-phase"],
        "sweep.csv": ["sweep", "--n", "64"]
        + ["--set", "users_min=3", "--set", "users_max=3"],
    }
    for (csv, mode), packets in itertools.product(modes.items(), ("1600", "1")):
        cfg = write_cfg(tmp_path, {"batch_size": "16", "file_packets": packets})
        args = mode + ["--config", cfg, "--set", "code_overhead=" + overhead]
        assert run_cli(args + ["--out-dir", str(tmp_path)]) == 2, mode
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        if mode == ["plan"] and overhead == "1e300":
            # a coded length the planner can count may still need more
            # batches than a batch id can name
            assert err.startswith("error: bad_value detail=n_min="), err
            assert "exceeds the 65535 batches" in err
        else:
            assert err.startswith("error: bad_value detail=code_overhead="), err
        assert not (tmp_path / csv).exists()


def test_single_phase_file_past_what_a_session_carries_is_a_config_error(
    tmp_path, capsys
):
    # the baseline counts toward the same coded length a two-phase session
    # carries in at most 65535 batches: here a large file, not the overhead,
    # crosses 65535 * batch_size
    cfg = write_cfg(tmp_path, {"batch_size": "1", "file_packets": "70000"})
    sweep = ["sweep", "--n", "64", "--set", "users_min=3", "--set", "users_max=3"]
    for mode in (["single-phase"], sweep):
        assert run_cli(mode + ["--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.strip() == (
            "error: bad_value detail=code_overhead=0.01 gives a coded length of "
            "70700.0 packets, more than 65535 * batch_size = 65535, the most a "
            "two-phase session can carry; the coded length is (1 + code_overhead) "
            "* file_packets, with file_packets=70000"
        )
    # one packet fewer than the limit still runs
    cfg = write_cfg(
        tmp_path,
        {"batch_size": "1", "file_packets": "64884", "loss_common": "0.0"},
    )
    args = ["single-phase", "--config", cfg, "--runs", "1"]
    assert run_cli(args + ["--out-dir", str(tmp_path)]) == 0


def test_batch_count_past_the_batch_id_limit_is_a_config_error(tmp_path, capsys):
    # batch ids travel in two bytes: a plan needing more batches, or an
    # explicit n above 65535, is refused before any session starts
    big = write_cfg(tmp_path, {"batch_size": "1", "file_packets": "70000"})
    assert run_cli(["plan", "--config", big, "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.strip() == (
        "error: bad_value detail=n_min=85791 exceeds the 65535 batches a "
        "batch id can name"
    )
    cfg = write_cfg(tmp_path)
    args = ["simulate", "--config", cfg, "--n", "65536", "--out-dir", str(tmp_path)]
    assert run_cli(args) == 2
    assert capsys.readouterr().err.strip() == (
        "error: bad_value detail=num_batches=65536 exceeds the 65535 batches "
        "a batch id can name"
    )
