"""Future-graph watcher: wait-for cycles, abandoned futures, swallowed errors.

The runtime registers every :class:`~repro.runtime.future.Future` created
while the sanitizers are active, together with its creation site, and
reports dependency edges as continuation chains are wired up
(``then`` / ``when_all`` / ``when_any`` / ``dataflow`` / monadic
unwrapping).  Resolved futures are pruned immediately, so the live graph
only ever holds *pending* work — the part that can still deadlock.

Finding kinds produced here:

* ``wait-cycle`` — a dependency edge closes a cycle in the wait-for
  graph.  Impossible through plain combinator composition (a future can
  only depend on futures that already exist), but *monadic unwrapping*
  can do it: a ``then`` callback that returns its own result future (or
  any ancestor of it) makes the future wait on itself — a silent,
  permanent hang without the sanitizer.
* ``abandoned-future`` — still pending at a :func:`sweep` (called at
  shutdown/quiesce points): the producer was lost, nobody can ever
  resolve it.
* ``swallowed-exception`` — a future resolved exceptionally whose error
  was never consumed (no ``get`` raised it, no ``recover`` mapped it)
  by :func:`sweep` time.  Cancelled futures are exempt: cancellation is
  a deliberate abandonment with a well-defined owner.
* ``blocked-worker`` — a scheduler worker thread sat in an *unbounded*
  ``Future.get`` on a pending future for longer than
  ``state.config.stall_timeout`` seconds: the dynamic face of lint rule
  REPRO001 (a worker blocking on work that may be queued behind it).

Futures are keyed by a process-unique sequence number stamped on the
future itself (``_san_seq``) — never by ``id()``, which CPython reuses
after garbage collection.
"""

from __future__ import annotations

import gc
import itertools
import threading
import weakref
from typing import Any

from . import state

__all__ = ["register_future", "add_dependency", "on_resolved",
           "mark_error_consumed", "on_scheduler_worker",
           "record_blocked_worker", "sweep", "reset", "pending_count"]

_lock = threading.Lock()
_seq = itertools.count(1)


class _Node:
    __slots__ = ("ref", "site", "deps")

    def __init__(self, ref: weakref.ref, site: str):
        self.ref = ref
        self.site = site
        self.deps: set[int] = set()


#: pending futures only: seq -> node
_nodes: dict[int, _Node] = {}
#: exceptional futures whose error has not been consumed: seq -> (ref, site, exc)
_unconsumed: dict[int, tuple[weakref.ref, str, str]] = {}


def register_future(fut: Any) -> None:
    """Track a newly created (pending) future; stamps ``_san_seq``."""
    seq = next(_seq)
    fut._san_seq = seq
    site = state.call_site()

    def _gone(_ref: weakref.ref, seq: int = seq) -> None:
        with _lock:
            _nodes.pop(seq, None)
            _unconsumed.pop(seq, None)

    node = _Node(weakref.ref(fut, _gone), site)
    with _lock:
        _nodes[seq] = node


def add_dependency(dependent: Any, dependency: Any) -> None:
    """Record that ``dependent`` cannot resolve before ``dependency``.

    Detects wait-for cycles at insertion time: if ``dependency``
    (transitively) waits on ``dependent``, neither can ever resolve.
    """
    dep_seq = getattr(dependent, "_san_seq", None)
    src_seq = getattr(dependency, "_san_seq", None)
    if dep_seq is None or src_seq is None:
        return
    cycle = None
    with _lock:
        node = _nodes.get(dep_seq)
        if node is None or src_seq not in _nodes:
            return  # either side already resolved: cannot deadlock
        node.deps.add(src_seq)
        cycle = _find_cycle(src_seq, dep_seq)
    if cycle is not None:
        sites = [_describe(s) for s in cycle]
        state.record(
            "wait-cycle",
            "wait-for cycle among futures: "
            + " waits-on ".join(sites)
            + " — none of them can ever resolve",
            dedupe_key=("wait-cycle", tuple(sorted(cycle))),
            cycle_sites=sites)


def _find_cycle(src: int, dst: int) -> list[int] | None:
    """Path ``src -> ... -> dst`` along dependency edges (lock held)."""
    if src == dst:
        return [src]
    stack = [(src, [src])]
    seen = {src}
    while stack:
        cur, path = stack.pop()
        node = _nodes.get(cur)
        if node is None:
            continue
        for nxt in node.deps:
            if nxt == dst:
                return path + [dst]
            if nxt not in seen and nxt in _nodes:
                seen.add(nxt)
                stack.append((nxt, path + [nxt]))
    return None


def _describe(seq: int) -> str:
    node = _nodes.get(seq)
    return f"future#{seq} (created at {node.site})" if node else f"future#{seq}"


def on_resolved(fut: Any, exception: BaseException | None = None,
                cancelled: bool = False) -> None:
    """Prune a resolved future; start tracking an unconsumed error."""
    seq = getattr(fut, "_san_seq", None)
    if seq is None:
        return
    with _lock:
        node = _nodes.pop(seq, None)
        if (exception is not None and not cancelled and node is not None):
            _unconsumed[seq] = (node.ref, node.site,
                                f"{type(exception).__name__}: {exception}")


def mark_error_consumed(fut: Any) -> None:
    """The stored exception escaped to (or was mapped by) a consumer."""
    seq = getattr(fut, "_san_seq", None)
    if seq is None:
        return
    with _lock:
        _unconsumed.pop(seq, None)


def on_scheduler_worker() -> bool:
    """True when the calling thread is a work-stealing scheduler worker."""
    try:
        from ..runtime.scheduler import _TLS
    except Exception:  # pragma: no cover - scheduler not imported yet
        return False
    return getattr(_TLS, "worker", None) is not None


def record_blocked_worker(fut: Any, waited: float) -> None:
    seq = getattr(fut, "_san_seq", None)
    with _lock:
        site = _describe(seq) if seq is not None else "untracked future"
    state.record(
        "blocked-worker",
        f"scheduler worker blocked {waited:.2f}s in unbounded get() on "
        f"pending {site}; a worker waiting on work that may be queued "
        "behind it can self-deadlock the pool",
        dedupe_key=("blocked-worker", seq),
        waited=waited)


def sweep(collect: bool = True) -> list[state.Finding]:
    """Quiesce-point audit: report abandoned futures and swallowed errors.

    Call after a drain/shutdown (``examples/merger.py`` does after the
    merger run, and tests do around injected hazards).  ``collect`` runs the garbage collector
    first so dead-but-uncollected futures do not show up as abandoned.
    """
    if collect:
        gc.collect()
    out: list[state.Finding] = []
    with _lock:
        pending = [(seq, n.ref(), n.site) for seq, n in _nodes.items()]
        swallowed = [(seq, ref(), site, exc)
                     for seq, (ref, site, exc) in _unconsumed.items()]
    for seq, fut, site in pending:
        if fut is None or fut.is_ready():
            continue
        f = state.record(
            "abandoned-future",
            f"future#{seq} created at {site} still pending at sweep — "
            "its producer is gone or never ran",
            site=site, dedupe_key=("abandoned-future", seq))
        if f is not None:
            out.append(f)
    for seq, fut, site, exc in swallowed:
        if fut is None:
            continue
        f = state.record(
            "swallowed-exception",
            f"future#{seq} created at {site} holds unconsumed error "
            f"[{exc}] — the failure was silently dropped",
            site=site, dedupe_key=("swallowed-exception", seq))
        if f is not None:
            out.append(f)
    return out


def pending_count() -> int:
    with _lock:
        return len(_nodes)


def reset() -> None:
    """Forget all tracked futures (test isolation)."""
    with _lock:
        _nodes.clear()
        _unconsumed.clear()
