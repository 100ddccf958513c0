"""Dynamic correctness sanitizers for the AMT runtime (opt-in).

The runtime guarantees HPX-grade invariants — bit-identical futurized
execution, leak-proof stream leases, generation-exact channels — but a
latent lock-order inversion or an abandoned future violates them
silently, and three of the last four PRs each fixed such a bug found by
hand.  This package detects those hazard classes mechanically:

* :mod:`.lockdep` — lock-order (ABBA) inversions over the runtime's lock
  classes, recursive self-deadlocks, user callbacks invoked under locks;
* :mod:`.futuregraph` — wait-for cycles through the future dependency
  graph, futures abandoned unresolved, exceptional futures whose error
  is never consumed, scheduler workers stalled in unbounded ``get``;
* :mod:`.protocol` — stream-lease lifecycle (held → consumed xor
  released, exactly once) and channel generation protocol (set at most
  once, never after close/consume);
* :mod:`.racecheck` — FastTrack-style vector-clock happens-before data
  races on shared buffers declared through :func:`access`, with the
  runtime's sync vocabulary (futures, channels, scheduler, leases,
  aggregation, AGAS, parcels) publishing the happens-before edges;
* :mod:`.schedules` — seeded, replayable adversarial schedule
  exploration (priority churn + delivery permutation) so the above run
  on many interleavings, not just the one the OS produced.

Enable with ``REPRO_SANITIZE=1`` in the environment (instruments the
whole process — how CI runs the suite) or :func:`enable` *before*
constructing the runtime objects to instrument: instrumentation is
decided when locks/futures/leases are created, so a disabled sanitizer
costs the hot paths nothing.

Findings accumulate in :func:`findings` and publish ``/sanitize/...``
counters; :func:`sweep` audits quiesce points (abandoned futures,
swallowed errors, held leases); :func:`report` renders everything for
humans.  Tests isolate injected hazards with :func:`scope`.
"""

from __future__ import annotations

from . import futuregraph, lockdep, protocol, racecheck, schedules, state
from .lockdep import make_condition, make_lock
from .racecheck import access
from .state import (Finding, clear, configure, disable, enable, enabled,
                    finding_count, findings, record, scope)

__all__ = [
    "Finding", "enable", "disable", "enabled", "configure",
    "findings", "finding_count", "clear", "scope", "record",
    "make_lock", "make_condition", "access",
    "sweep", "report", "publish_counters", "reset_graphs",
    "state", "lockdep", "futuregraph", "protocol", "racecheck",
    "schedules",
]


def sweep() -> list[Finding]:
    """Quiesce-point audit across all checkers.

    Reports futures still pending (abandoned), exceptional futures whose
    error was never consumed (swallowed), and stream leases still held.
    Call after a drain/shutdown; ``examples/merger.py`` calls it after
    the merger run completes, under any fault script.
    """
    out = futuregraph.sweep()
    out.extend(protocol.sweep_leases(collect=False))
    return out


def reset_graphs() -> None:
    """Drop accumulated graph state *and* findings (test isolation)."""
    lockdep.reset()
    futuregraph.reset()
    protocol.reset()
    racecheck.reset()
    clear()


def publish_counters(registry=None) -> None:
    """Publish ``/sanitize/...`` gauges into ``registry`` (default global)."""
    from ..runtime.counters import default_registry
    registry = registry or default_registry()
    all_findings = findings()
    registry.set_gauge("/sanitize/enabled", 1.0 if enabled() else 0.0)
    registry.set_gauge("/sanitize/findings-live", float(len(all_findings)))
    registry.set_gauge("/sanitize/futures-pending",
                       float(futuregraph.pending_count()))
    racecheck.publish_counters(registry)
    schedules.publish_counters(registry)


def report() -> str:
    """Human-readable findings report (empty-state message when clean)."""
    all_findings = findings()
    lines = [f"sanitizers: {'enabled' if enabled() else 'disabled'}, "
             f"{len(all_findings)} finding(s)"]
    for i, f in enumerate(all_findings, 1):
        lines.append(f"  {i:>3}. [{f.kind}] {f.message}")
        lines.append(f"       at {f.site}")
        for key, value in sorted(f.details.items()):
            lines.append(f"       {key}: {value}")
    if not all_findings:
        lines.append("  (no findings)")
    return "\n".join(lines)
