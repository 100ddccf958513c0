"""Heartbeat health monitoring: phi-accrual failure detection.

The locality-failure machinery of :mod:`repro.runtime.agas` is *reactive*
— somebody has to call ``fail_locality``.  On a real machine nobody sends
that call: a node that dies simply goes **silent**.  This module closes
the loop with the standard phi-accrual failure detector (Hayashibara et
al. 2004, the detector used by Akka and Cassandra): every monitored
locality emits periodic heartbeats, the detector tracks the observed
inter-arrival statistics, and the suspicion level of a locality is

    ``phi(t) = (t - t_last) / mean_interval * log10(e)``

i.e. ``-log10`` of the probability that a heartbeat this late is still
in flight under an exponential inter-arrival model.  When ``phi`` crosses
``phi_threshold`` the locality is declared dead and
:meth:`~repro.runtime.agas.AgasRuntime.fail_locality` is invoked
*automatically* — evacuating its migratable components — with no manual
failure call anywhere (the merger acceptance test asserts exactly this).

Time here is **simulation time**: heartbeats and detector sweeps are
events on a deterministic :class:`repro.simulator.events.EventQueue`, so
a fixed schedule reproduces the same detection time on every run.  A
silent node is modelled by :meth:`FailureDetector.silence` — the
locality's future heartbeats stop being scheduled, and nothing else about
it changes, which is precisely what the detector must cope with.

Declaring a locality failed is **final**: real networks deliver late —
a heartbeat emitted *before* the node died (or delayed in a congested
switch) can arrive *after* the detector suspected the node and AGAS
evacuated its components.  Acting on that stale beat would "flap" the
locality back to life with ownership it no longer has — the classic
split-brain.  :meth:`FailureDetector.receive_heartbeat` is therefore a
one-way gate: beats for a declared locality are dropped (tallied under
``/resilience/health/stale-heartbeats``), never refreshing its liveness
and never touching AGAS; the ordering regression test drives exactly the
suspect → evacuate → stale-heartbeat sequence.

Counters: ``/resilience/health/heartbeats``,
``/resilience/health/detected``, ``/resilience/health/silenced``,
``/resilience/health/evacuated``,
``/resilience/health/stale-heartbeats`` and a
``/resilience/health/max-phi`` gauge (largest suspicion level ever
observed for a live locality).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable

from ..runtime import trace
from ..runtime.agas import AgasRuntime
from ..runtime.counters import CounterRegistry, default_registry
from ..simulator.events import EventQueue

__all__ = ["FailureDetector", "DEFAULT_PHI_THRESHOLD",
           "DEFAULT_HEARTBEAT_INTERVAL_S"]

#: suspicion level at which a locality is declared dead.  8 corresponds to
#: a ~1e-8 probability that the heartbeat is merely late — Akka's default.
DEFAULT_PHI_THRESHOLD = 8.0

#: heartbeat period in simulation seconds
DEFAULT_HEARTBEAT_INTERVAL_S = 1.0

_LOG10_E = math.log10(math.e)


class FailureDetector:
    """Phi-accrual detection of silent localities, with auto-evacuation.

    Parameters
    ----------
    agas:
        The runtime whose localities are monitored;
        ``agas.fail_locality(loc)`` is called on detection.
    events:
        Simulation clock and scheduler for heartbeats and sweeps.
    localities:
        Which localities to monitor (default: all of ``agas``'s that have
        not already failed).
    heartbeat_interval:
        Period of each locality's heartbeat, in simulation seconds.
    phi_threshold:
        Suspicion level that triggers failure handling.
    sweep_interval:
        Period of the detector's phi sweep (default: the heartbeat
        interval).
    window:
        Number of recent inter-arrival intervals kept per locality for
        the mean estimate (seeded with the nominal interval so detection
        works from the first heartbeat).
    evacuate:
        Passed through to ``fail_locality``.
    on_failure:
        Optional ``callback(locality, evacuation_dict)`` invoked after
        AGAS handling.
    """

    def __init__(self, agas: AgasRuntime, events: EventQueue,
                 localities: list[int] | None = None, *,
                 heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL_S,
                 phi_threshold: float = DEFAULT_PHI_THRESHOLD,
                 sweep_interval: float | None = None,
                 window: int = 32,
                 evacuate: bool = True,
                 on_failure: Callable[[int, dict], None] | None = None,
                 registry: CounterRegistry | None = None):
        if heartbeat_interval <= 0.0:
            raise ValueError("heartbeat_interval must be > 0")
        if phi_threshold <= 0.0:
            raise ValueError("phi_threshold must be > 0")
        self.agas = agas
        self.events = events
        self.heartbeat_interval = heartbeat_interval
        self.phi_threshold = phi_threshold
        self.sweep_interval = sweep_interval or heartbeat_interval
        self.evacuate = evacuate
        self.on_failure = on_failure
        self.registry = registry or default_registry()
        if localities is None:
            localities = [l for l in range(agas.n_localities)
                          if l not in agas.failed_localities]
        self._monitored = list(localities)
        self._silenced: set[int] = set()
        self._declared: set[int] = set()
        self._last_beat: dict[int, float] = {}
        self._intervals: dict[int, deque[float]] = {
            loc: deque([heartbeat_interval], maxlen=window)
            for loc in self._monitored}
        self._started = False
        self._stopped = False
        self.max_phi = 0.0
        self.detected: list[int] = []

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Schedule the initial heartbeats and the sweep loop."""
        if self._started:
            return
        self._started = True
        now = self.events.now
        for loc in self._monitored:
            self._last_beat[loc] = now
            self.events.schedule(self.heartbeat_interval,
                                 self._heartbeat, loc)
        self.events.schedule(self.sweep_interval, self._sweep)

    def stop(self) -> None:
        """Stop rescheduling; in-flight events become no-ops."""
        self._stopped = True

    def silence(self, locality: int) -> None:
        """Model a node going silent: its heartbeats stop arriving.

        Nothing is announced to AGAS — the detector has to notice.
        """
        self._silenced.add(locality)
        self.registry.increment("/resilience/health/silenced")
        trace.instant("locality-silenced", "resilience", locality=locality)

    def receive_heartbeat(self, locality: int) -> bool:
        """An out-of-band heartbeat arrived (possibly delayed in flight).

        Returns True when it was accepted (liveness refreshed).  The
        one-way gate: once ``locality`` has been **declared** failed —
        components already evacuated or invalidated through AGAS — a
        late beat is *stale* by definition and must not resurrect
        anything: it is dropped, tallied, and AGAS is never consulted.
        A merely *silenced* (or suspected-but-undeclared) locality is
        different: its beat arrives before the verdict, so it counts
        like any scheduled one.
        """
        if locality not in self._intervals:
            return False
        if locality in self._declared:
            self.registry.increment("/resilience/health/stale-heartbeats")
            trace.instant("stale-heartbeat", "resilience",
                          locality=locality)
            return False
        now = self.events.now
        last = self._last_beat.get(locality, now)
        self._intervals[locality].append(max(now - last, 1e-12))
        self._last_beat[locality] = now
        self.registry.increment("/resilience/health/heartbeats")
        return True

    # -- event handlers ------------------------------------------------------

    def _heartbeat(self, locality: int) -> None:
        if self._stopped or locality in self._silenced \
                or locality in self._declared:
            return
        now = self.events.now
        last = self._last_beat.get(locality, now)
        self._intervals[locality].append(max(now - last, 1e-12))
        self._last_beat[locality] = now
        self.registry.increment("/resilience/health/heartbeats")
        self.events.schedule(self.heartbeat_interval, self._heartbeat,
                             locality)

    def _sweep(self) -> None:
        if self._stopped:
            return
        for loc in self._monitored:
            if loc in self._declared:
                continue
            p = self.phi(loc)
            self.max_phi = max(self.max_phi, p)
            if p >= self.phi_threshold:
                self._declare_failed(loc, p)
        if any(loc not in self._declared for loc in self._monitored):
            self.events.schedule(self.sweep_interval, self._sweep)

    # -- detection -----------------------------------------------------------

    def phi(self, locality: int) -> float:
        """Current suspicion level for ``locality`` (0 = just heard from)."""
        last = self._last_beat.get(locality)
        if last is None:
            return 0.0
        elapsed = self.events.now - last
        window = self._intervals[locality]
        mean = sum(window) / len(window)
        return (elapsed / mean) * _LOG10_E

    def _declare_failed(self, locality: int, phi_value: float) -> None:
        self._declared.add(locality)
        self.detected.append(locality)
        r = self.registry
        r.increment("/resilience/health/detected")
        r.set_gauge("/resilience/health/max-phi", self.max_phi)
        trace.instant("locality-detected-dead", "resilience",
                      locality=locality, phi=round(phi_value, 3))
        result = self.agas.fail_locality(locality, evacuate=self.evacuate)
        r.increment("/resilience/health/evacuated",
                    float(len(result["migrated"])))
        if self.on_failure is not None:
            self.on_failure(locality, result)

    # -- introspection -------------------------------------------------------

    @property
    def declared_failed(self) -> set[int]:
        return set(self._declared)

    def suspicion_levels(self) -> dict[int, float]:
        return {loc: self.phi(loc) for loc in self._monitored
                if loc not in self._declared}
