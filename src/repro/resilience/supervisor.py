"""Supervised task execution: bounded re-execution of transient faults.

The retry layer (:mod:`repro.resilience.retry`) makes *parcel delivery*
reliable; this module does the same for the *compute* hot path.  A
:class:`SupervisedEngine` wraps an
:class:`~repro.core.exec.ExecutionEngine` and re-executes any task whose
future resolves with a transient fault — an injected
:class:`~repro.resilience.faults.TransientActionFault` (e.g. from a
poisoned CUDA stream) or a :class:`~repro.runtime.future.FutureTimeout` —
up to ``max_retries`` times before surfacing the failure.

The supervisor preserves the bitwise-replay property the acceptance tests
rely on: a retried task *recomputes into fresh buffers* (the kernel
function is pure — same args in, new output array out), and callers such
as :meth:`repro.core.gravity.fmm.FmmSolver.solve` and
:meth:`repro.core.mesh.BlockMesh._rhs_all` accumulate results by calling
``fut.get()`` in recorded script order.  A task that failed twice and
succeeded on the third attempt therefore contributes exactly the bytes it
would have contributed in a fault-free run — the accumulation order never
depends on *when* futures completed.

Supervision is fully asynchronous: retries are chained through future
callbacks (never a blocking wait inside the engine), so a retry posted
from a worker thread is just another task for the scheduler.  Placement
is re-decided per attempt — a task whose stream was quarantined after its
failure overflows to the CPU or another stream on retry, which is how
stream quarantine and task re-execution compose in the merger's chaos
script.

An optional :class:`~repro.resilience.faults.FaultInjector` makes the
supervisor its own adversary: each attempt first consults
``injector.maybe_action_fault()``, modelling transient failures *inside*
task execution (distinct from the receive-side faults the parcel layer
injects).  With a finite ``max_action_faults`` budget every injected
fault is transient by construction.

Re-execution is the *local* recovery tier.  A failure the supervisor
cannot retry away — a :class:`~repro.runtime.agas.LocalityFailed` from a
dead node, or a transient budget exhausted — is **escalated**: the
optional ``escalate`` callback fires (before the exception surfaces
through the task's future) so a
:class:`~repro.resilience.durability.RecoveryCoordinator` can decide
whether the run needs a global rollback rather than another retry.

Counters: ``/resilience/tasks/submitted``, ``/resilience/tasks/retried``,
``/resilience/tasks/recovered`` (tasks that ultimately succeeded after at
least one retry), ``/resilience/tasks/gave-up`` and
``/resilience/tasks/escalated``.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ..core.exec import ExecutionEngine
from ..runtime import trace
from ..runtime.counters import CounterRegistry, default_registry
from ..runtime.future import Future, FutureTimeout, Promise
from .faults import FaultInjector, TransientActionFault

__all__ = ["SupervisedEngine", "DEFAULT_TASK_RETRIES"]

#: re-execution budget per task (attempts = 1 + retries)
DEFAULT_TASK_RETRIES = 3


class SupervisedEngine:
    """An :class:`~repro.core.exec.ExecutionEngine` with task supervision.

    Drop-in for the engine everywhere one is accepted (``Mesh``,
    ``BlockMesh``, ``FmmSolver.solve``): exposes the same ``submit`` /
    ``map`` / ``synchronize`` / ``publish_counters`` surface and the same
    ``scheduler`` / ``devices`` / ``pool`` attributes.

    Parameters
    ----------
    engine:
        The engine to wrap; built from ``scheduler``/``device``/``devices``
        when omitted.
    injector:
        Optional fault injector consulted once per *attempt* (transient
        execution faults, budget-bounded).
    max_retries:
        Re-executions allowed per task after the first attempt.
    transient:
        Exception types worth re-executing; anything else (application
        errors, cancelled futures, failed localities) surfaces unchanged
        on the first attempt.
    escalate:
        Optional ``callback(exc, args, attempt)`` invoked for every
        *permanent* failure (non-transient, or transient budget
        exhausted) before it surfaces through the task's future — the
        hand-off point to a global recovery layer.  Escalation observes;
        it must not raise (a raising callback is tallied under
        ``/resilience/tasks/escalation-errors`` and otherwise ignored).
    """

    def __init__(self, engine: ExecutionEngine | None = None, *,
                 scheduler=None, device=None, devices=None,
                 injector: FaultInjector | None = None,
                 max_retries: int = DEFAULT_TASK_RETRIES,
                 transient: tuple[type[BaseException], ...] = (
                     TransientActionFault, FutureTimeout),
                 escalate: Callable[[BaseException, tuple, int], None]
                     | None = None,
                 registry: CounterRegistry | None = None):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if engine is None:
            engine = ExecutionEngine(scheduler=scheduler, device=device,
                                     devices=devices, registry=registry)
        elif scheduler is not None or device is not None or devices:
            raise ValueError("pass either an engine or resources, not both")
        self.engine = engine
        self.injector = injector
        self.max_retries = max_retries
        self.transient = transient
        self.escalate = escalate
        self.registry = registry or engine.registry or default_registry()

    # -- engine surface ------------------------------------------------------

    @property
    def scheduler(self):
        return self.engine.scheduler

    @property
    def devices(self):
        return self.engine.devices

    @property
    def pool(self):
        return self.engine.pool

    @property
    def gpu_fraction(self) -> float:
        return self.engine.gpu_fraction

    def synchronize(self) -> None:
        self.engine.synchronize()

    def publish_counters(self, registry: CounterRegistry | None = None
                         ) -> None:
        self.engine.publish_counters(registry)

    # -- supervised dispatch -------------------------------------------------

    def submit(self, fn: Callable[..., Any], *args: Any,
               use_device: bool = True) -> Future:
        """Run ``fn(*args)`` with supervision; returns a future."""
        return self.map(fn, [args], use_device=use_device)[0]

    def map(self, fn: Callable[..., Any], argtuples: Sequence[tuple],
            use_device: bool = True) -> list[Future]:
        """Dispatch every tuple through the wrapped engine; futures in
        input order.  The first attempt keeps the engine's batched fan-out
        (one scheduler post for the whole batch); retries are resubmitted
        individually as they fail."""
        argtuples = [tuple(a) for a in argtuples]
        run = fn if self.injector is None \
            else (lambda *a: self._run_injected(fn, a))
        self.registry.increment("/resilience/tasks/submitted",
                                float(len(argtuples)))
        promises = [Promise() for _ in argtuples]
        inner = self.engine.map(run, argtuples, use_device=use_device)
        for args, pr, fut in zip(argtuples, promises, inner):
            self._supervise(run, args, use_device, pr, fut, attempt=1)
        return [p.get_future() for p in promises]

    def _run_injected(self, fn: Callable[..., Any], args: tuple) -> Any:
        exc = self.injector.maybe_action_fault()
        if exc is not None:
            raise exc
        return fn(*args)

    def _supervise(self, run, args, use_device, promise: Promise,
                   fut: Future, attempt: int) -> None:
        fut.then(lambda f: self._on_done(f, run, args, use_device,
                                         promise, attempt))

    def _on_done(self, fut: Future, run, args, use_device,
                 promise: Promise, attempt: int) -> None:
        r = self.registry
        if not fut.has_exception():
            if attempt > 1:
                r.increment("/resilience/tasks/recovered")
            promise.set_value(fut.get())
            return
        try:
            fut.get(timeout=0.0)
            exc: BaseException = RuntimeError("unreachable")
        except BaseException as caught:
            exc = caught
        if isinstance(exc, self.transient) and attempt <= self.max_retries:
            r.increment("/resilience/tasks/retried")
            if trace.TRACING:
                trace.instant("task-retry", "resilience", attempt=attempt)
            # fresh buffers: the task recomputes from its original args;
            # placement is re-decided (a quarantined stream is skipped)
            refut = self.engine.map(run, [args], use_device=use_device)[0]
            self._supervise(run, args, use_device, promise, refut,
                            attempt + 1)
            return
        if isinstance(exc, self.transient):
            r.increment("/resilience/tasks/gave-up")
            if trace.TRACING:
                trace.instant("task-gave-up", "resilience", attempt=attempt)
        if self.escalate is not None:
            r.increment("/resilience/tasks/escalated")
            if trace.TRACING:
                trace.instant("task-escalated", "resilience",
                              attempt=attempt, exc=type(exc).__name__)
            try:
                self.escalate(exc, args, attempt)
            except BaseException:
                # the task's future must still complete with the original
                # failure; a broken escalation path may not eat it
                r.increment("/resilience/tasks/escalation-errors")
        promise.set_exception(exc)
