"""Per-layer step ledger: spans recorded around each layer's entry points.

The benchmark measures the layers from outside the program.  While a
:class:`Ledger` is installed it replaces each layer's public entry point
— under the name its caller looks up at call time — with a thin wrapper
that records one span per call:

====================  =================================================
span                  wrapped entry point
====================  =================================================
gravity.solve         ``FmmSolver.solve``
gravity.p2p           ``p2p_pair``, ``p2p_pair_staged`` (as imported by
                      ``repro.core.gravity.fmm``)
gravity.m2l           ``m2l_pair`` (ditto)
gravity.upward        ``aggregate_m2m`` (ditto)
gravity.downward      ``taylor_shift`` (ditto)
hydro.rhs             ``compute_rhs`` (as imported by ``repro.core.mesh``)
hydro.floors          ``apply_floors`` (ditto)
hydro.cfl             ``cfl_dt`` (ditto)
mesh.halo_channel     ``Channel.set``, ``Channel.get``
runtime.wait          ``Future.get``
runtime.task          every task posted through
                      ``WorkStealingScheduler.post`` / ``post_batch``
network.send          ``HaloTransport.send``, ``HaloTransport.flush``
resilience.ckpt_save  ``CheckpointManager.save``
mesh.step             the benchmark's own timed operation
====================  =================================================

A span is ``(id, parent, cause, name, thread, start, end, step, items,
nbytes)``.  ``parent`` is the span open on the *same* thread when the
call began (nesting); ``cause`` is the span that posted a task from
another thread (causality).  A span's self time is its duration minus
the durations of its same-thread children, so on the calling thread the
self times of all spans inside a step add up to the step's wall time.

Spans are kept in memory and written once, at the end, as a Chrome
trace through :class:`repro.runtime.trace.TraceRecorder`.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict

__all__ = ["Ledger"]

_perf = time.perf_counter
_ident = threading.get_ident


def _pair_batch(args, kwargs) -> tuple[int, int]:
    """(pairs, bytes of every array in and out) of one pair-kernel call;
    the first argument of every pair kernel is the ``(n, 3)`` separation."""
    total = 0
    for a in itertools.chain(args, kwargs.values()):
        if isinstance(a, tuple):
            total += sum(getattr(x, "nbytes", 0) for x in a)
        else:
            total += getattr(a, "nbytes", 0)
    return len(args[0]), total


def _halo_payload(args, kwargs) -> tuple[int, int]:
    """(1, payload bytes) of one ``Channel.set(value, generation)``."""
    return 1, getattr(args[1], "nbytes", 0)


class Ledger:
    """Span recorder for one traced benchmark run."""

    def __init__(self) -> None:
        from repro.runtime.trace import TraceRecorder
        self.spans: list[tuple] = []
        self.step = -1           # id of the step being traced
        self.main_thread = _ident()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_names: dict[int, str] = {}
        self._patches: list[tuple[object, str, object]] = []
        # made now: exported timestamps count from the ledger's creation
        self._recorder = TraceRecorder()

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            cur = threading.current_thread()
            self._thread_names[cur.ident] = cur.name
        return stack

    def span(self, name: str, fn, *args, cause: int | None = None,
             measure=None, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span called ``name``;
        ``measure(args, kwargs) -> (items, bytes)`` sizes the call."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        step = self.step
        t0 = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _perf()
            stack.pop()
            items, nbytes = (0, 0) if measure is None \
                else measure(args, kwargs)
            self.spans.append((sid, parent, cause, name, _ident(), t0, t1,
                               step, items, nbytes))

    def _wrap(self, name: str, fn, measure=None):
        span = self.span

        def traced(*args, **kwargs):
            return span(name, fn, *args, measure=measure, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def _wrap_task(self, task):
        """A posted task, recorded on the worker that runs it."""
        stack = self._stack()
        cause = stack[-1] if stack else None
        span = self.span

        def traced_task():
            return span("runtime.task", task, cause=cause)
        return traced_task

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer entry point (idempotent)."""
        if self._patches:
            return
        from repro.core import mesh as core_mesh
        from repro.core.gravity import fmm
        from repro.network.transport import HaloTransport
        from repro.resilience.checkpoint import CheckpointManager
        from repro.runtime.channel import Channel
        from repro.runtime.future import Future
        from repro.runtime.scheduler import WorkStealingScheduler

        for owner, attr, name, measure in (
                (fmm.FmmSolver, "solve", "gravity.solve", None),
                (fmm, "m2l_pair", "gravity.m2l", _pair_batch),
                (fmm, "p2p_pair", "gravity.p2p", _pair_batch),
                (fmm, "p2p_pair_staged", "gravity.p2p", _pair_batch),
                (fmm, "aggregate_m2m", "gravity.upward", None),
                (fmm, "taylor_shift", "gravity.downward", None),
                (core_mesh, "compute_rhs", "hydro.rhs", None),
                (core_mesh, "apply_floors", "hydro.floors", None),
                (core_mesh, "cfl_dt", "hydro.cfl", None),
                (Channel, "set", "mesh.halo_channel", _halo_payload),
                (Channel, "get", "mesh.halo_channel", None),
                (Future, "get", "runtime.wait", None),
                (HaloTransport, "send", "network.send", None),
                (HaloTransport, "flush", "network.send", None),
                (CheckpointManager, "save", "resilience.ckpt_save", None)):
            self._patch(owner, attr,
                        self._wrap(name, owner.__dict__[attr], measure))

        post = WorkStealingScheduler.__dict__["post"]
        post_batch = WorkStealingScheduler.__dict__["post_batch"]
        wrap_task = self._wrap_task

        def traced_post(sched, task):
            return post(sched, wrap_task(task))

        def traced_post_batch(sched, tasks):
            return post_batch(sched, [wrap_task(t) for t in tasks])
        self._patch(WorkStealingScheduler, "post", traced_post)
        self._patch(WorkStealingScheduler, "post_batch", traced_post_batch)

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- the ledger ------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus same-thread child durations."""
        thread = {s[0]: s[4] for s in self.spans}
        own = {s[0]: s[6] - s[5] for s in self.spans}
        for sid, parent, _c, _n, tid, t0, t1, *_ in self.spans:
            if parent is not None and thread.get(parent) == tid:
                own[parent] -= t1 - t0
        return own

    def role(self, tid: int) -> str:
        """``main``, ``worker`` (scheduler) or ``device`` (stream) thread."""
        if tid == self.main_thread:
            return "main"
        name = self._thread_names.get(tid, "")
        return "device" if "-sm-" in name else "worker"

    def totals(self, steps: set[int]) -> dict:
        """Per span name over ``steps``: calls, duration, self time, items,
        bytes and self time by thread role."""
        own = self.self_times()
        out: dict[str, dict] = defaultdict(lambda: {
            "calls": 0, "dur_s": 0.0, "self_s": 0.0, "items": 0,
            "bytes": 0, "by_role": defaultdict(float)})
        for sid, _p, _c, name, tid, t0, t1, step, items, nbytes \
                in self.spans:
            if step not in steps:
                continue
            row = out[name]
            row["calls"] += 1
            row["dur_s"] += t1 - t0
            row["self_s"] += own[sid]
            row["items"] += items
            row["bytes"] += nbytes
            row["by_role"][self.role(tid)] += own[sid]
        return {name: dict(row, by_role=dict(row["by_role"]))
                for name, row in out.items()}

    def export(self, path: str) -> int:
        """Write every span as a Chrome trace; returns the event count."""
        rec = self._recorder
        for sid, parent, cause, name, tid, t0, t1, step, items, nbytes \
                in self.spans:
            rec.complete(name, name.split(".")[0], t0, t1, thread=tid,
                         span=sid, parent=parent, cause=cause, step=step,
                         items=items, bytes=nbytes)
        events = rec.events()
        names = dict(self._thread_names)
        for ev in events:
            if ev["ph"] == "X":
                ev["tid"] = ev["args"].pop("thread")
        pid = os.getpid()
        events = [ev for ev in events if ev["ph"] != "M"] + [
            {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
             "args": {"name": tname}} for tid, tname in names.items()]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        rec.clear()
        return len(events)
