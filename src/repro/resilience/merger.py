"""One merger harness: the distributed V1309 merger under a fault script.

The paper's resilience story is one workload — the Sec. 4.2
contact-binary merger running distributed — and this module drives it
under any mix of faults.  :func:`run_merger` evolves one SCF solve twice:

* **reference**: the node-level :class:`~repro.core.mesh.BlockMesh`
  (all blocks in one locality, no parcelport, no faults);
* **subject**: a :class:`~repro.core.distmesh.DistBlockMesh` whose blocks
  are AGAS components sharded over ``n_localities``, halos charged
  through the parcelport and delivered in a seeded shuffled order.

Every script runs the same supervised pipeline.  A
:class:`~repro.core.stepper.GuardedStepper` drives the subject (post-step
guards, checkpoint rollback on announced step faults and on silent
corruption), checkpointing every step through one
:class:`~repro.resilience.checkpoint.CheckpointManager` whose commits a
:class:`~repro.resilience.durability.RecoveryCoordinator` buddy-replicates.
A :class:`~repro.resilience.supervisor.SupervisedEngine` re-executes
faulted tasks over a work-stealing scheduler plus a CUDA device (stream 0
permanently poisoned iff the script says so, for stream quarantine to
bench).  A phi-accrual
:class:`~repro.resilience.health.FailureDetector` watches heartbeats on a
deterministic event clock.

When the script kills localities they all go **silent** together after
``kill_after_steps``; the detector must declare them on its own (no
manual ``fail_locality`` anywhere), the harness clobbers the victims'
blocks with NaN — the memory a node death takes with it — and the run
recovers.  How is not an option: the coordinator's
:meth:`~repro.resilience.durability.RecoveryCoordinator.needs_global_recovery`
decides.  Within evacuation capacity AGAS evacuates the victims' blocks
and the run rolls back to the latest checkpoint; beyond it the GIDs are
lost and the coordinator rolls every survivor back to the newest verified
replicated generation and restarts elastically.

A script with a network loss or delay rate also registers one
``_HaloStore`` per locality and broadcasts a boundary layer to each of
them every step through a
:class:`~repro.resilience.retry.ResilientParcelSender`: the parcel side
channel on which loss, delay and retry actually happen.

The acceptance bar, asserted by ``tests/integration/test_merger.py`` and
gated by ``examples/merger.py``: the subject finishes **byte-identical**
to the reference with identical drift reports, halo sets == gets, and
every cross-locality halo charged to the parcelport.  Everything is
seeded: a fixed config reproduces the same faults, detection times and
counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..runtime.agas import Component
from ..runtime.counters import CounterRegistry
from ..runtime.cuda import CudaDevice
from ..runtime.parcel import Parcel, ParcelHandler
from ..runtime.scheduler import WorkStealingScheduler
from ..simulator.events import EventQueue
from .checkpoint import CheckpointManager
from .durability import RecoveryCoordinator, RecoveryReport
from .faults import FaultInjector
from .health import FailureDetector
from .retry import ResilientParcelSender, RetryPolicy
from .supervisor import SupervisedEngine

__all__ = ["FaultScript", "MergerConfig", "MergerResult", "run_merger",
           "CHAOS", "DISTRIBUTED", "RECOVERY"]

#: end time; the runs are step-bounded well before it
T_END = 1.0
#: detector heartbeat period and suspicion threshold (event-clock seconds)
HEARTBEAT_INTERVAL = 0.25
PHI_THRESHOLD = 3.0
#: event-clock seconds per merger step, and the wait for a detection
SIM_SECONDS_PER_STEP = 2.0
DETECT_HORIZON = 64.0
#: checkpoint every step, keep four generations
CHECKPOINT_INTERVAL = 1
CHECKPOINT_KEEP = 4
#: execution resources
N_CPU_WORKERS = 2
N_GPU_WORKERS = 2
N_STREAMS = 2
#: a poisoned stream is benched after two faults for longer than any run
QUARANTINE_THRESHOLD = 2
QUARANTINE_PERIOD = 30.0
#: fault budgets: every injected fault class is transient by construction
MAX_DELAY = 0.05
MAX_LOSSES = 4
MAX_ACTION_FAULTS = 6
MAX_TASK_RETRIES = 4
#: concurrent locality failures evacuation absorbs
EVACUATION_CAPACITY = 1
#: side-channel resend schedule (backoff waits are not slept)
_SIDE_CHANNEL_POLICY = RetryPolicy(max_attempts=8, base_backoff=1e-6,
                                   max_backoff=1e-4)
_PORTS = ("mpi", "libfabric")


@dataclass(frozen=True)
class FaultScript:
    """What goes wrong during the run (plain data; validated by
    :class:`MergerConfig`).

    ``kill`` localities go silent together once ``kill_after_steps``
    steps have completed.  ``step_faults`` / ``corrupt_steps`` are step
    indices hit by an announced fault / a silent NaN.  The checkpoint
    save indices count from the step-0 save (one save per step after
    it): ``ckpt_corrupt_saves`` rot after commit, ``ckpt_torn_saves``
    never commit.  ``action_fault_rate`` makes compute tasks fail
    transiently; ``loss_rate`` / ``delay_rate`` degrade the parcel side
    channel; ``poison_stream`` makes CUDA stream 0 fail every kernel.
    """

    kill: tuple[int, ...] = ()
    kill_after_steps: int = 2
    step_faults: tuple[int, ...] = ()
    corrupt_steps: tuple[int, ...] = ()
    ckpt_corrupt_saves: tuple[int, ...] = ()
    ckpt_torn_saves: tuple[int, ...] = ()
    action_fault_rate: float = 0.0
    loss_rate: float = 0.0
    delay_rate: float = 0.0
    poison_stream: bool = False


#: every fault class at once; one locality dies (evacuated)
CHAOS = FaultScript(kill=(3,), step_faults=(1,), corrupt_steps=(2,),
                    ckpt_corrupt_saves=(1,), ckpt_torn_saves=(2,),
                    action_fault_rate=0.05, loss_rate=0.3, delay_rate=0.3,
                    poison_stream=True)
#: one locality dies mid-merger; evacuation plus checkpoint rollback
DISTRIBUTED = FaultScript(kill=(2,))
#: a correlated two-locality loss (beyond evacuation capacity) while the
#: newest checkpoint at kill time is corrupt.  The victims are
#: non-adjacent: buddy replication puts each block's copy on the next
#: surviving locality, so an owner+buddy pair is unrecoverable.
RECOVERY = FaultScript(kill=(1, 3), ckpt_corrupt_saves=(1,))


@dataclass(frozen=True)
class MergerConfig:
    """The problem, its distribution, one seed and a fault script.

    ``M`` is cells per edge (a multiple of the sub-grid edge, with a
    power-of-two block count for self-gravity).  ``seed`` fixes the
    fault schedule and the out-of-order halo delivery.  Every field is
    checked at construction, before any solve.
    """

    M: int = 16
    scf_iters: int = 12
    steps: int = 3
    n_localities: int = 4
    port: str = "libfabric"
    seed: int = 1309
    script: FaultScript = FaultScript()

    def __post_init__(self) -> None:
        from ..core.mesh import SUBGRID_N

        s = self.script
        if self.M <= 0 or self.M % SUBGRID_N:
            raise ValueError(f"M={self.M} is not a positive multiple of "
                             f"the sub-grid edge {SUBGRID_N}")
        bpe = self.M // SUBGRID_N
        if bpe & (bpe - 1):
            raise ValueError(f"M={self.M} gives {bpe} blocks per edge; "
                             f"self-gravity needs a power of two")
        if self.steps < 1 or self.scf_iters < 1 or self.n_localities < 1:
            raise ValueError("steps, scf_iters and n_localities must be >= 1")
        if self.port not in _PORTS:
            raise ValueError(f"port {self.port!r} is not one of {_PORTS}")
        bad = [k for k in s.kill if not 0 <= k < self.n_localities]
        if bad:
            raise ValueError(f"kill localities {bad} out of "
                             f"range({self.n_localities})")
        if len(set(s.kill)) != len(s.kill):
            raise ValueError(f"kill lists a locality twice: {s.kill}")
        if len(s.kill) >= self.n_localities:
            raise ValueError("no locality survives the kill")
        if s.kill and not 0 <= s.kill_after_steps < self.steps:
            raise ValueError(
                f"kill_after_steps={s.kill_after_steps} must be in "
                f"[0, steps={self.steps}) for the kill to happen")
        for name in ("action_fault_rate", "loss_rate", "delay_rate"):
            rate = getattr(s, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")


class _HaloStore(Component):
    """Side-channel destination for per-step halo parcels (migratable)."""

    def __init__(self) -> None:
        super().__init__()
        self.halos: dict[int, np.ndarray] = {}

    def put_halo(self, generation: int, buf: np.ndarray) -> int:
        self.halos[generation] = buf
        return generation


@dataclass
class MergerResult:
    """Everything the acceptance test asserts and the example reports."""

    config: MergerConfig
    reference: object          # node-level BlockMesh
    dist: object               # DistBlockMesh
    ref_monitor: object        # ConservationMonitor
    dist_monitor: object       # ConservationMonitor
    registry: CounterRegistry
    injector: FaultInjector    # compute, step and checkpoint faults
    net_injector: FaultInjector
    detector: FailureDetector
    checkpoints: CheckpointManager
    coordinator: RecoveryCoordinator
    #: ``quarantined()`` per CUDA stream, read before the device closed
    stream_quarantined: tuple[bool, ...] = ()
    killed: list = field(default_factory=list)
    #: GIDs AGAS evacuated / lost when the detector declared the victims
    evacuated: list = field(default_factory=list)
    lost: list = field(default_factory=list)
    report: RecoveryReport | None = None
    stores: list = field(default_factory=list)
    halo_acked: int = 0
    halo_failed: int = 0

    @property
    def bitwise_identical(self) -> bool:
        return np.array_equal(self.reference.gather_interior(),
                              self.dist.gather_interior())

    @property
    def reports_identical(self) -> bool:
        return self.ref_monitor.report() == self.dist_monitor.report()

    @property
    def counters_reconcile(self) -> bool:
        """Halo sets == gets, every cross-locality halo charged to the
        port, and one verified generation behind every global rollback."""
        snap = self.registry.snapshot()
        sets = snap.get("/distmesh/halo/sets", 0.0)
        gets = snap.get("/distmesh/halo/gets", 0.0)
        return (sets == gets and sets > 0
                and self.dist.transport.reconciles()
                and snap.get("/resilience/ckpt/verified", 0.0)
                >= self.coordinator.rollbacks)

    def summary(self) -> str:
        """Human-readable outcome digest for the example / CI log."""
        snap = self.registry.snapshot()

        def c(name: str) -> int:
            return int(snap.get(name, 0.0))

        cfg = self.config
        inj = self.injector.stats()
        net = self.net_injector.stats()
        st = self.dist.transport.stats
        if self.report is not None:
            recovery = f"global: {self.report.summary()}"
        else:
            recovery = f"{self.checkpoints.restores} checkpoint restores"
        lines = [
            "V1309 merger outcome",
            "--------------------",
            f"steps completed         : {self.dist.steps}",
            f"bitwise identical state : {self.bitwise_identical}",
            f"identical drift report  : {self.reports_identical}",
            f"counters reconcile      : {self.counters_reconcile}",
            "",
            f"localities              : {cfg.n_localities} via {cfg.port} "
            f"(blocks: {self.dist.locality_blocks()})",
            f"killed / detected       : {self.killed} / "
            f"{sorted(self.detector.declared_failed)}",
            f"evacuated / lost GIDs   : {len(self.evacuated)} / "
            f"{len(self.lost)}",
            f"recovery                : {recovery}",
            f"streams quarantined     : {list(self.stream_quarantined)}",
            f"side-channel parcels    : {self.halo_acked} acked, "
            f"{self.halo_failed} failed",
            "",
            "injected: "
            f"loss={net['loss']} delay={net['delay']} "
            f"action={inj['action']} step={inj['step']} "
            f"corruption={inj['corruption']} "
            f"torn-ckpt={inj['torn-write']} "
            f"corrupt-ckpt={inj['ckpt-corruption']}",
            "recovered: "
            f"parcel-retries={c('/resilience/parcels/retries')} "
            f"task-retries={c('/resilience/tasks/retried')} "
            f"guard-restores={c('/resilience/steps/restores')} "
            f"rejected-steps={c('/resilience/steps/rejected')} "
            f"ckpt-fallbacks={c('/resilience/ckpt/fallback')}",
            "",
            "checkpoint store",
            f"  saves / replicas      : "
            f"{c('/resilience/checkpoint/saves')} / "
            f"{c('/resilience/ckpt/replicas')}",
            f"  verified / corrupt    : {c('/resilience/ckpt/verified')} / "
            f"{c('/resilience/ckpt/corrupt')}",
            f"  torn / replicas lost  : {c('/resilience/ckpt/torn')} / "
            f"{c('/resilience/ckpt/replicas-lost')}",
            f"  blocks re-fetched     : {c('/recovery/blocks-fetched')} "
            f"({c('/recovery/bytes-fetched')} B)",
            "",
            f"halo traffic ({self.dist.transport.port.name})",
            f"  local  : {st.local_msgs} msgs, {st.local_bytes} B",
            f"  remote : {st.remote_msgs} msgs, {st.remote_bytes} B "
            f"({st.reordered} delivered out of order)",
            f"   1-sided: {st.onesided_msgs} msgs, {st.onesided_bytes} B",
            f"  path    : eager={st.eager} rendezvous={st.rendezvous} "
            f"rma={st.rma}",
        ]
        return "\n".join(lines)


def run_merger(config: MergerConfig | None = None,
               registry: CounterRegistry | None = None) -> MergerResult:
    """Run the node-level reference and the supervised distributed
    merger under ``config.script``; see the module docs.

    Both meshes load one SCF solve, so their initial data is bitwise
    equal by construction.  Pass a fresh :class:`CounterRegistry` (the
    default) when asserting on counters; stream quarantine tallies
    ``/cuda/quarantined`` into ``default_registry()`` wherever this run
    publishes.
    """
    # imported here, not at module top: repro.core.stepper imports from
    # this package, so a module-level import would be circular
    from ..core.distmesh import DistBlockMesh
    from ..core.exec import ExecutionEngine
    from ..core.grid import NGHOST, RHO
    from ..core.mesh import SUBGRID_N, BlockMesh
    from ..core.scenario import v1309_binary
    from ..core.stepper import GuardedStepper, evolve

    cfg = config or MergerConfig()
    script = cfg.script
    registry = registry if registry is not None else CounterRegistry()
    bpe = cfg.M // SUBGRID_N

    src = v1309_binary(M=cfg.M, scf_iters=cfg.scf_iters)
    mesh_kwargs = dict(domain=src.domain, origin=src.origin,
                       options=src.options, bc=src.bc, self_gravity=True)
    reference = BlockMesh(bpe, **mesh_kwargs)
    reference.load_interior(src.interior)
    dist = DistBlockMesh(bpe, n_localities=cfg.n_localities, port=cfg.port,
                         reorder_seed=cfg.seed, registry=registry,
                         **mesh_kwargs)
    dist.load_interior(src.interior)
    if not np.array_equal(reference.gather_interior(),
                          dist.gather_interior()):
        raise RuntimeError("reference and distributed initial data differ")

    # the fault-free node-level reference
    ref_monitor = evolve(reference, t_end=T_END, max_steps=cfg.steps)

    # adversaries: one injector on the compute/step/checkpoint path, one
    # on the wire (separate streams: task faults draw on worker threads)
    injector = FaultInjector(
        cfg.seed, action_fault_rate=script.action_fault_rate,
        max_action_faults=MAX_ACTION_FAULTS,
        fail_at_steps=script.step_faults,
        corrupt_at_steps=script.corrupt_steps,
        corrupt_ckpt_at_saves=script.ckpt_corrupt_saves,
        torn_write_at_saves=script.ckpt_torn_saves, registry=registry)
    net_injector = FaultInjector(
        cfg.seed + 1, loss_rate=script.loss_rate,
        delay_rate=script.delay_rate, max_delay=MAX_DELAY,
        max_losses=MAX_LOSSES, registry=registry)

    checkpoints = CheckpointManager(interval=CHECKPOINT_INTERVAL,
                                    keep=CHECKPOINT_KEEP, registry=registry,
                                    injector=injector)
    coordinator = RecoveryCoordinator(
        dist, checkpoints, evacuation_capacity=EVACUATION_CAPACITY,
        registry=registry)
    global_rollback = coordinator.needs_global_recovery(len(script.kill))

    evacuated: list = []
    lost: list = []

    def on_failure(_locality: int, result: dict) -> None:
        evacuated.extend(result["migrated"])
        lost.extend(result["lost"])

    events = EventQueue()
    detector = FailureDetector(
        dist.agas, events, heartbeat_interval=HEARTBEAT_INTERVAL,
        phi_threshold=PHI_THRESHOLD, evacuate=not global_rollback,
        on_failure=on_failure, registry=registry)
    detector.start()

    stores: list = []
    sender = None
    if script.loss_rate or script.delay_rate:
        stores = [dist.agas.register(_HaloStore(), loc)
                  for loc in range(cfg.n_localities)]
        sender = ResilientParcelSender(
            ParcelHandler(dist.agas), injector=net_injector,
            policy=_SIDE_CHANNEL_POLICY, registry=registry,
            sleep=lambda _t: None)
    halo_futures: list = []
    state: dict = {"killed": [], "report": None}

    with WorkStealingScheduler(N_CPU_WORKERS) as sched, \
            CudaDevice(n_streams=N_STREAMS, n_workers=N_GPU_WORKERS,
                       name="merger-gpu",
                       quarantine_threshold=QUARANTINE_THRESHOLD,
                       quarantine_period=QUARANTINE_PERIOD) as gpu:
        if script.poison_stream:
            gpu.streams[0].poison()
        engine = SupervisedEngine(
            ExecutionEngine(scheduler=sched, device=gpu, registry=registry),
            injector=injector, max_retries=MAX_TASK_RETRIES,
            registry=registry)
        dist.engine = engine
        stepper = GuardedStepper(dist, checkpoints=checkpoints,
                                 fault_injector=injector, registry=registry)

        def per_step(mesh) -> None:
            if sender is not None:
                # broadcast a boundary layer to every live store
                halo = mesh.blocks[min(mesh.blocks)][RHO, NGHOST].copy()
                for gid in stores:
                    if gid not in lost:
                        halo_futures.append(sender.send(
                            Parcel(gid, "put_halo", (mesh.steps, halo))))
            events.run(until=events.now + SIM_SECONDS_PER_STEP)
            if (state["killed"] or not script.kill
                    or mesh.steps < script.kill_after_steps):
                return
            state["killed"] = sorted(script.kill)
            victim_blocks = [ip for ip, loc in mesh.owners().items()
                             if loc in script.kill]
            # the victims go silent in one heartbeat window; the detector
            # must find them all on its own
            for victim in script.kill:
                detector.silence(victim)
            horizon = 0.0
            while (not set(script.kill) <= detector.declared_failed
                   and horizon < DETECT_HORIZON):
                events.run(until=events.now + 1.0)
                horizon += 1.0
            missing = sorted(set(script.kill) - detector.declared_failed)
            if missing:
                raise RuntimeError(
                    f"localities {missing} silent but never declared "
                    f"failed within {DETECT_HORIZON}s of event time")
            # the dead nodes' memory is gone
            for ip in victim_blocks:
                mesh.blocks[ip][...] = np.nan
            if coordinator.needs_global_recovery(len(script.kill)):
                state["report"] = coordinator.recover(stepper.monitor)
            else:
                checkpoints.restore_latest(mesh, stepper.monitor)

        dist_monitor = stepper.evolve(T_END, max_steps=cfg.steps,
                                      callback=per_step)
        engine.synchronize()
        stream_quarantined = tuple(s.quarantined() for s in gpu.streams)
        engine.publish_counters(registry)
    detector.stop()
    dist.publish_counters(registry)

    acked = failed = 0
    for fut in halo_futures:
        try:
            fut.get(timeout=5.0)
            acked += 1
        except Exception:
            failed += 1

    return MergerResult(
        config=cfg, reference=reference, dist=dist, ref_monitor=ref_monitor,
        dist_monitor=dist_monitor, registry=registry, injector=injector,
        net_injector=net_injector, detector=detector,
        checkpoints=checkpoints, coordinator=coordinator,
        stream_quarantined=stream_quarantined, killed=state["killed"],
        evacuated=evacuated, lost=lost, report=state["report"],
        stores=stores, halo_acked=acked, halo_failed=failed)
