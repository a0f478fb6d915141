"""Pinned digests of simulator reports and CLI outputs.

Each case hashes an output that a refactor must keep byte for byte: the
repr of a ``SimReport`` (with the exact bytes of its rank distribution),
every decoder's inactivation count and decode slot in a session, or the
CSV files and stdout of one CLI mode, with the output directory replaced
by ``<out>``, or the planner's (n_min, n_max, n_opt) and plan-curve CSV
for a pinned scenario. A changed digest means changed outputs. Regenerate
the digests only for a change that is meant to alter them, and say so in
CHANGES.md.
"""

import hashlib
import os
from dataclasses import replace

import pytest

from batchcast import cli, codec, sim
from batchcast.analytics import (
    NetworkParams,
    optimize_batches,
    plan_table_csv,
    stopping_time,
)
from conftest import COLLAPSE, EX2, EX3, EXP, FIG9_DESIGN

FAST = NetworkParams(
    num_users=3,
    loss_common=0.05,
    loss_source=0.5,
    loss_peer=0.1,
    batch_size=8,
    file_packets=300,
)
# six users: every phase-2 packet reaches four or five receivers on average
FAST6 = replace(FAST, num_users=6)
# five users over 42 batches of 4: consecutive senders often pick the same
# batch, and uniform access draws the sender of every slot
FAST5 = replace(FAST, num_users=5, batch_size=4, file_packets=120)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _report_text(rep: sim.SimReport) -> str:
    return repr(rep) + "\n" + rep.rank_distribution.tobytes().hex()


REPORTS = {
    "round_robin_trace": lambda: sim.run_session(
        FAST, 7, num_batches=64, with_trace=True
    ),
    "uniform_access": lambda: sim.run_session(
        FAST, 9, num_batches=64, access="uniform", with_trace=True
    ),
    "payload": lambda: sim.run_session(FAST, 3, num_batches=64, payload_len=16),
    "repair_budget": lambda: sim.run_session(
        FAST,
        5,
        num_batches=64,
        observe=[],
        phase2_budget=stopping_time(64, FAST),
    ),
    "robustness": lambda: sim.run_robustness(FAST, 5, 2),
    "six_users_payload_budget": lambda: sim.run_session(
        FAST6,
        11,
        num_batches=64,
        payload_len=8,
        access="uniform",
        observe=[2],
        with_trace=True,
        phase2_budget=stopping_time(64, FAST6),
    ),
    "five_users_uniform_payload": lambda: sim.run_session(
        FAST5, 0, num_batches=42, payload_len=4, access="uniform", with_trace=True
    ),
}

REPORT_DIGESTS = {
    "round_robin_trace": "cfee2e7a03ca8c962820769c204dd24b9eb85e878bd778260e4671afae488c2a",
    "uniform_access": "db8f08d829fe91cca786facfa8fb5e55fc58d4264340b5a455c397440c52ba39",
    "payload": "1a53371d4eaa264eb3a19c58d4edf88ef869a50b31317de253e3882780e51cff",
    "repair_budget": "4547d7fd1d776d15711c33e3e3c6fcee3ea7fab98f3d9ea5fccbce03932e31a6",
    "robustness": "c462f3add78b925695de5a15e5e712692d4f916e2cfa248068c71654fa62330b",
    "six_users_payload_budget": "3f0f787308c617bb075232e98462af71daf0d4307a6412b7d7a6e381d03d47a2",
    "five_users_uniform_payload": "c0f40f3fcb73d046b4d513cd2bdf25f8c400f12c8293c862feee834c1f249f53",
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_digest(name):
    assert _digest(_report_text(REPORTS[name]())) == REPORT_DIGESTS[name]


# every decoder of a session as (user, inactivated, decode slot): the
# decoder's picks, which no report field shows
DECODER_DIGESTS = {
    "five_users_uniform_payload": "6e06d4b61250899e76d16c89e709680d937ebfd0cc5047b78ee53c5cddf55cd3",
    "payload": "6b5bac7e1af1e247a86e107cdda927cae65f8ba87c90dd37233b3f99e2ebf193",
    "robustness": "94ca8d46633e89ad8c8a0aa85a50ffc548cbd1c38bc19b9336d79b79899ddf82",
}


@pytest.mark.parametrize("name", sorted(DECODER_DIGESTS))
def test_decoder_digest(name, monkeypatch):
    groups = []
    make_users = sim.make_users

    def keep_users(num_users, session):
        groups.append(make_users(num_users, session))
        return groups[-1]

    monkeypatch.setattr(sim, "make_users", keep_users)
    REPORTS[name]()
    (users,) = groups
    text = repr(
        [(u.user_id, u.decoder.inactivated, u.decode_slot) for u in users if u.decoder]
    )
    assert _digest(text) == DECODER_DIGESTS[name], text


# FAST at n=20 and seed 3: the group holds 138 of 300 packets after phase 1,
# so phase 2 stalls once every user holds all of them (slot 232); each user
# reports 162 unresolved, 300 minus the rank of what it holds
STALL_DIGEST = "9347098e206985f404aac7d113375d422ea784fd9d543498b8de96b3f76cd525"
# seed 4: the group holds 137 packets (stall at slot 148, 163 unresolved per
# user), and users that saturate early wait on peers still short of them
SATURATED_STALL_DIGEST = (
    "851f25486a5cd70cf83cdd7decd82f11986d58d4d2574da9e84a7d6555ded698"
)


def _stall(seed, monkeypatch):
    """Stall message and trace of FAST at n=20, and the phase-2 windows
    (BatchBuffers.absorb calls) it took."""
    seen = {"windows": 0}
    run_phase2 = sim.run_phase2
    absorb = codec.BatchBuffers.absorb

    def keep_trace(*args, **kwargs):
        seen["trace"] = kwargs["trace"]
        return run_phase2(*args, **kwargs)

    def counted(*args):
        seen["windows"] += 1
        return absorb(*args)

    monkeypatch.setattr(sim, "run_phase2", keep_trace)
    monkeypatch.setattr(codec.BatchBuffers, "absorb", counted)
    with pytest.raises(sim.SimulationStallError) as err:
        sim.run_session(FAST, seed, num_batches=20, with_trace=True)
    return _digest(str(err.value) + "\n" + repr(seen["trace"])), seen["windows"]


def test_stall_digest(monkeypatch):
    """The stall message and the trace up to the stall slot stay pinned."""
    assert _stall(3, monkeypatch)[0] == STALL_DIGEST


def test_saturated_users_do_not_shorten_windows(monkeypatch):
    """A saturated user can gain nothing more, so it no longer cuts every
    window to one transmission while its peers catch up: the same stall in
    fewer windows (73 when it did)."""
    digest, windows = _stall(4, monkeypatch)
    assert digest == SATURATED_STALL_DIGEST
    assert windows < 73


# (n_min, n_max, n_opt) and the digest of plan_table_csv for each scenario
PLAN_CURVES = {
    "EX2": (EX2, (129, 216, 152), "b3ad225e862e3bb9e3abfc557f204fd047b44f59f99527809a0ddfebcce781a6"),
    "EX3": (EX3, (351, 673, 401), "1207defcc0363856035885a0d7c68dbfe22a6b43256215a55047745e36f3ac46"),
    "EXP": (EXP, (167, 281, 208), "a31ccb371ba013ac3fa6bc1047bec1fc482c5522a86b386a266e72088b4df910"),
    "FIG9_DESIGN": (FIG9_DESIGN, (167, 281, 196), "50b0795c6304cd259377453b8086cf7e1ba3a26e38635835eb6ffa1137a6d934"),
    "COLLAPSE": (COLLAPSE, (128, 259, 258), "7171a74e0f2e00a0dcdeaa52e0c87f0bbaced1ca1f2505730c945aab4e2ade09"),
}


@pytest.mark.parametrize("name", sorted(PLAN_CURVES))
def test_plan_curve_digest(name):
    params, bounds, digest = PLAN_CURVES[name]
    plan = optimize_batches(params)
    assert (plan.n_min, plan.n_max, plan.n_opt) == bounds
    assert _digest(plan_table_csv(plan)) == digest


PLAN_ERRORS = {
    "no_stopping_time": (
        lambda: stopping_time(128, COLLAPSE),
        "no phase-2 stopping time exists for 128 batches",
    ),
    "one_user": (
        lambda: optimize_batches(replace(EX2, num_users=1)),
        "one user has no peer to repair it in phase 2, and phase 1 alone "
        "delivers the file at no batch count in [n_min=235, n_max=213]",
    ),
    "batch_id_limit": (
        lambda: optimize_batches(replace(EX2, batch_size=1, file_packets=70000)),
        "n_min=85791 exceeds the 65535 batches a batch id can name",
    ),
    "uncountable_coded_length": (
        lambda: optimize_batches(replace(EX2, file_packets=1, code_overhead=1e308)),
        "code_overhead=1e+308 gives a coded length of 1e+308 packets, more "
        "than the planner can count in batches",
    ),
}


@pytest.mark.parametrize("name", sorted(PLAN_ERRORS))
def test_plan_error_message(name):
    plan, message = PLAN_ERRORS[name]
    with pytest.raises(ValueError) as err:
        plan()
    assert str(err.value) == message


NETWORK = [
    arg
    for setting in (
        "num_users=3",
        "loss_common=0.05",
        "loss_source=0.5",
        "loss_peer=0.1",
        "batch_size=8",
        "file_packets=300",
    )
    for arg in ("--set", setting)
]

CLI_RUNS = {
    "plan": ["plan"],
    "simulate": ["simulate", "--runs", "2", "--n", "64", "--set", "write_trace=1"],
    "sweep": ["sweep", "--n", "64", "--set", "users_min=2", "--set", "users_max=3"],
    "robustness": ["robustness", "--seed", "4", "--set", "actual_users=4"],
    "single-phase": ["single-phase", "--runs", "3"],
}

CLI_DIGESTS = {
    "plan": "4c75accec4bd162963edafca385b56c5692ad398878939d65061025a64861620",
    "simulate": "721df60f5c2527c3c1e4c47316c35222bee541ff7ebdc32fd4e3e9baf1c0881c",
    "sweep": "7cb9f2dd8d74a0e9a7eb92f17b4e5d48b1834d8e53cec1c9bd6c513fc1caec43",
    "robustness": "4b29624cfccf5de3f9a584b4e5de46917629bd860d93f03cd7393ef09b8e8aa2",
    "single-phase": "269a93323d3df0035833c60165e1d9f55335bf6bfd5bd28a87ccb36f23f0bbf2",
}


def _cli_text(mode, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert cli.main(CLI_RUNS[mode] + NETWORK + ["--out-dir", out]) == 0
    parts = [capsys.readouterr().out]
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name)) as fh:
            parts.append("== %s\n%s" % (name, fh.read()))
    return "".join(parts).replace(out, "<out>")


@pytest.mark.parametrize("mode", sorted(CLI_RUNS))
def test_cli_digest(mode, tmp_path, capsys):
    assert _digest(_cli_text(mode, tmp_path, capsys)) == CLI_DIGESTS[mode]
