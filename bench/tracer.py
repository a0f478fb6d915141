"""Span tracing around the library's public functions, from outside it.

``Tracer.install()`` replaces each traced function, in every module
namespace that holds it and on the classes that own traced methods, with a
wrapper that records one span: name, start, end, parent span and session
id. Spans live in memory and are written out once the run ends. Self time is
a span's duration minus the durations of its direct children, so
``gf.matmul`` called under ``IncrementalDecoder.attempt`` is charged to
``gf.matmul`` and can be told apart from ``gf.matmul`` under ``recode``.
"""

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from batchcast import analytics, codec, gf, sched, sim

ROOT = "sim.session"
_MODULES = (gf, codec, sched, analytics, sim)


def _matmul_work(counters, args, out):
    a, b = args[0], args[1]
    r, k = a.shape
    c = b.shape[1]
    mults = r * k * c
    counters["gf.matmul.mults"] += mults
    if mults:
        counters["gf.matmul.bytes"] += mults + r * k + k * c


def _absorb_outcome(counters, args, out):
    counters["codec.BatchState.absorb.innovative"] += bool(out)


def _attempt_outcome(counters, args, out):
    if out:
        counters["codec.IncrementalDecoder.attempt.successes"] += 1
        counters["codec.IncrementalDecoder.inactivated"] += args[0].inactivated


# (owner, attribute, span name, counter hook). A module-level function is
# also replaced wherever another traced module imported it by name.
TARGETS: Tuple[Tuple[object, str, str, Optional[Callable]], ...] = (
    (gf, "matmul", "gf.matmul", _matmul_work),
    (gf, "row_reduce", "gf.row_reduce", None),
    (codec, "encode_batch", "codec.encode_batch", None),
    (codec.BatchState, "absorb", "codec.BatchState.absorb", _absorb_outcome),
    (codec, "recode", "codec.recode", None),
    (codec.IncrementalDecoder, "add_row", "codec.IncrementalDecoder.add_row", None),
    (
        codec.IncrementalDecoder,
        "load_state",
        "codec.IncrementalDecoder.load_state",
        None,
    ),
    (
        codec.IncrementalDecoder,
        "attempt",
        "codec.IncrementalDecoder.attempt",
        _attempt_outcome,
    ),
    (codec.IncrementalDecoder, "extract", "codec.IncrementalDecoder.extract", None),
    (sched, "build_matrix", "sched.build_matrix", None),
    (sched, "build_queue", "sched.build_queue", None),
    (sched, "exhaustion_order", "sched.exhaustion_order", None),
    (analytics, "optimize_batches", "analytics.optimize_batches", None),
    (analytics, "stopping_time", "analytics.stopping_time", None),
    (sim, "new_session", "sim.new_session", None),
    (sim, "run_phase1", "sim.run_phase1", None),
    (sim, "prepare_phase2", "sim.prepare_phase2", None),
    (sim, "run_phase2", "sim.run_phase2", None),
)
FUNCTIONS = tuple(t[2] for t in TARGETS)


class Tracer:
    """In-memory span recorder; install() patches, restore() undoes it."""

    def __init__(self):
        self.names: List[str] = [ROOT] + list(FUNCTIONS)
        self._ids = {name: i for i, name in enumerate(self.names)}
        # one entry per span: (name id, start, end, parent index, session)
        self.spans: List[Optional[tuple]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.session = -1
        self._stack = [-1]
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, hook):
        nid = self._ids[name]
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, tracer.session)
            if hook is not None:
                hook(counters, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for owner, attr, name, hook in TARGETS:
                if isinstance(owner, type):
                    orig = owner.__dict__[attr]
                    self._patch(owner, attr, self._wrap(name, orig, hook))
                    continue
                orig = getattr(owner, attr)
                wrapped = self._wrap(name, orig, hook)
                for mod in _MODULES:
                    if getattr(mod, attr, None) is orig:
                        self._patch(mod, attr, wrapped)
        except BaseException:
            self.restore()
            raise

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    @contextmanager
    def root(self, session: int):
        """The root span of one session; spans inside carry its id."""
        self.session = session
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (self._ids[ROOT], t0, t1, parent, session)
            self.session = -1

    # -- analysis -------------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        """Spans as columns: name id, start, end, parent index, session."""
        done = [s for s in self.spans if s is not None]
        if len(done) != len(self.spans):
            raise RuntimeError("a span is still open")
        cols = np.array(done, dtype=float).reshape(-1, 5)
        return {
            "name": cols[:, 0].astype(np.int16),
            "start": cols[:, 1],
            "end": cols[:, 2],
            "parent": cols[:, 3].astype(np.int64),
            "session": cols[:, 4].astype(np.int32),
        }

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, self seconds and total seconds, summed.

        Also, under the key "gf.matmul.in.<caller>", the self time of
        gf.matmul grouped by the span it was called from.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        parent = a["parent"]
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_s = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            mask = a["name"] == nid
            out[name] = {
                "calls": int(mask.sum()),
                "self_s": float(self_s[mask].sum()),
                "total_s": float(dur[mask].sum()),
            }
        matmul = (a["name"] == self._ids["gf.matmul"]) & has_parent
        caller_ids = a["name"][parent[matmul]]
        for nid, name in enumerate(self.names):
            sel = caller_ids == nid
            out["gf.matmul.in." + name] = {
                "calls": int(sel.sum()),
                "self_s": float(self_s[matmul][sel].sum()),
                "total_s": float(dur[matmul][sel].sum()),
            }
        return out

    def save(self, path: str) -> None:
        """Write every span to a compressed .npz file.

        Columns: ``name`` (index into ``names``), ``start_gap_ns`` (start
        minus the previous span's start; its cumulative sum is the start
        since the first span), ``dur_ns``, ``parent`` (span index, -1 for
        none) and ``session``.
        """
        a = self.arrays()
        start_ns = np.round(a["start"] * 1e9).astype(np.int64)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=a["name"],
            start_gap_ns=np.diff(start_ns, prepend=start_ns[:1]),
            dur_ns=np.round((a["end"] - a["start"]) * 1e9).astype(np.int64),
            parent=a["parent"].astype(np.int32),
            session=a["session"],
        )
