"""The benchmark's three workloads and the checks on every session they run.

Each workload is a closed loop of seeded sessions: session ``i`` of a run
with base seed ``b`` uses seed ``b + i`` and starts when session ``i - 1``
returns. The library is called directly; nothing here runs inside it except
one capture hook on ``sim.make_users`` that hands the coding session and the
user states back to the checks.

Correctness of a session has three layers:

* golden digests of every ``SimReport`` field, taken at the commit that
  defined this benchmark, for the seeds listed in ``golden.json``;
* invariants that hold for any seed (every observed user decodes, never
  with fewer than F innovative receptions; fixed transmission counts on the
  repair battery);
* on the payload workload, every decoder's ``extract()`` compared byte for
  byte with the source file.
"""

import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from batchcast import sim
from batchcast.analytics import NetworkParams, optimize_batches, stopping_time

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

# Pinned scenarios, the same values the acceptance suite uses.
EX2 = NetworkParams(
    num_users=3,
    loss_common=0.05,
    loss_source=0.5,
    loss_peer=0.1,
    batch_size=16,
    file_packets=1600,
)
EX3 = NetworkParams(
    num_users=5,
    loss_common=0.05,
    loss_source=0.5,
    loss_peer=0.1,
    batch_size=16,
    file_packets=5000,
)
FIG9_DESIGN = NetworkParams(
    num_users=3,
    loss_common=0.05,
    loss_source=0.5,
    loss_peer=0.1,
    batch_size=16,
    file_packets=2083,
)

REPORT_FIELDS = (
    "seed",
    "num_users",
    "num_batches",
    "phase1_tx",
    "phase2_tx",
    "total_tx",
    "decode_slots",
    "innovative_at_decode",
    "innovative",
    "redundant",
    "receptions",
    "rank_distribution",
    "trace",
)


def field_digest(value) -> str:
    """Short sha256 of one report field; arrays hash their exact bytes."""
    if isinstance(value, np.ndarray):
        blob = b"%s%s" % (str(value.dtype).encode(), str(value.shape).encode())
        blob += np.ascontiguousarray(value).tobytes()
    else:
        blob = repr(value).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def report_digests(report: sim.SimReport) -> List[str]:
    return [field_digest(getattr(report, name)) for name in REPORT_FIELDS]


def load_golden(path: str = GOLDEN_PATH) -> Dict[str, Dict[int, List[str]]]:
    """workload -> seed -> per-field digests, in REPORT_FIELDS order."""
    with open(path) as fh:
        raw = json.load(fh)
    if raw.get("fields") != list(REPORT_FIELDS):
        raise ValueError("golden.json lists other report fields than this code")
    return {
        wl: {int(seed): digests for seed, digests in table.items()}
        for wl, table in raw["digests"].items()
    }


@dataclass
class Captured:
    """What the capture hook saw during one session."""

    session: Optional[sim.CodingSession] = None
    users: List[sim.UserState] = field(default_factory=list)


class CaptureUsers:
    """Records the coding session and users of each run via sim.make_users.

    Used as a context manager around the measured loop; the original
    function is restored on exit.
    """

    def __init__(self):
        self.last = Captured()
        self._orig = None

    def take(self) -> Captured:
        """What the latest session left, which is then forgotten."""
        last, self.last = self.last, Captured()
        return last

    def __enter__(self):
        orig = self._orig = sim.make_users

        def make_users(num_users, session):
            users = orig(num_users, session)
            self.last = Captured(session=session, users=users)
            return users

        sim.make_users = make_users
        return self

    def __exit__(self, *exc):
        sim.make_users = self._orig
        return False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "session", "robust" or "repair"; see run()
    params: NetworkParams  # as simulated (planned as well, except "robust")
    num_batches: int = 0  # fixed batch count ("robust" takes the plan's)
    payload_len: int = 0
    design_users: int = 0  # "robust": the group size the plan is made for
    # sessions every run makes at least; the protocol outcomes are taken
    # over exactly these seeds, so they compare exactly across commits
    min_sessions: int = 1

    @property
    def decoders(self) -> bool:
        return self.kind != "repair"

    def plan(self):
        """The workload's planning call, timed as part of set-up."""
        if self.kind == "repair":
            return stopping_time(self.num_batches, self.params)
        if self.kind == "robust":
            return optimize_batches(self.design())
        return optimize_batches(self.params)

    def design(self) -> NetworkParams:
        return replace(self.params, num_users=self.design_users)

    def run(self, seed: int, plan) -> sim.SimReport:
        """One session; plan is what plan() returned."""
        if self.kind == "robust":
            return sim.run_robustness(
                self.design(), self.params.num_users, seed, self.payload_len
            )
        if self.kind == "repair":
            return sim.run_session(
                self.params,
                seed,
                num_batches=self.num_batches,
                observe=[],
                phase2_budget=plan,
            )
        return sim.run_session(
            self.params,
            seed,
            num_batches=self.num_batches,
            payload_len=self.payload_len,
        )

    def check(
        self,
        report: sim.SimReport,
        captured: Captured,
        golden: Optional[Dict[int, List[str]]],
        plan,
    ) -> List[str]:
        """Failure messages for one session; empty when it is correct."""
        errors = []
        if golden is not None and report.seed in golden:
            got = report_digests(report)
            bad = [
                name
                for name, want, have in zip(REPORT_FIELDS, golden[report.seed], got)
                if want != have
            ]
            if bad:
                errors.append("golden digest mismatch in " + ", ".join(bad))
        f = self.params.file_packets
        if self.decoders:
            if any(slot < 0 for slot in report.decode_slots):
                errors.append("a user never decoded: %s" % report.decode_slots)
            if any(n < f for n in report.innovative_at_decode):
                errors.append(
                    "decoded below F=%d innovative: %s"
                    % (f, report.innovative_at_decode)
                )
            for u in captured.users:
                if u.decoder is None or not u.decoded:
                    errors.append("user %d has no finished decoder" % u.user_id)
                elif self.payload_len and not np.array_equal(
                    u.decoder.extract(), captured.session.file
                ):
                    errors.append("user %d decoded wrong bytes" % u.user_id)
        else:
            expected_total = report.num_batches * self.params.batch_size + plan
            if report.phase2_tx != plan or report.total_tx != expected_total:
                errors.append(
                    "repair battery sent %d/%d, expected %d/%d"
                    % (report.phase2_tx, report.total_tx, plan, expected_total)
                )
            if abs(float(report.rank_distribution.sum()) - 1.0) > 1e-9:
                errors.append("rank distribution does not sum to 1")
        if report.total_tx != report.phase1_tx + report.phase2_tx:
            errors.append("total_tx is not phase1_tx + phase2_tx")
        return errors

    def tiny(self) -> "Workload":
        """The same workload shrunk to a fraction of a second per session."""
        small = replace(self.params, file_packets=self.params.file_packets // 10)
        return replace(
            self,
            params=small,
            num_batches=self.num_batches // 10,
            payload_len=min(self.payload_len, 8),
            min_sessions=1,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ex2-payload",
            why="README scenario with 64-byte payloads: the decoder and GF "
            "kernels do payload work and decoded bytes are checked",
            kind="session",
            params=EX2,
            num_batches=152,
            payload_len=64,
            min_sessions=10,
        ),
        Workload(
            name="k9-robust",
            why="planned for 3 users, run with 9 at payload 0: the heaviest "
            "decoder structure work (large num_z), where a decoder change "
            "shows in full",
            kind="robust",
            params=replace(FIG9_DESIGN, num_users=9),
            design_users=FIG9_DESIGN.num_users,
            min_sessions=3,
        ),
        Workload(
            name="ex3-repair",
            why="k=5 rank battery to the planned stopping point with decoders "
            "off: absorb, recode, encode and scheduling only; bypasses the "
            "decoder",
            kind="repair",
            params=EX3,
            num_batches=402,
            min_sessions=40,
        ),
    )
}
