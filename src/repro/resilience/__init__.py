"""Fault injection and recovery for the AMT runtime (see DESIGN.md).

The paper's runs assume a fault-free Piz Daint; the AMT follow-up survey
(arXiv:2412.15518) calls fault tolerance *the* open challenge for exascale
AMR astrophysics.  This package supplies both halves of the story:

* the adversary — :class:`FaultInjector`, a seeded source of message
  loss/delay, transient action exceptions, step faults, silent state
  corruption and scheduled locality failures;
* the defence — :class:`ResilientParcelSender` (ack/timeout/retry with
  exponential backoff over the parcel layer), :class:`SupervisedEngine`
  (bounded re-execution of transiently failing compute tasks),
  :class:`FailureDetector` (phi-accrual heartbeat detection of silent
  localities with automatic AGAS evacuation),
  :meth:`repro.runtime.agas.AgasRuntime.fail_locality` (component
  migration / invalidation on node death), :class:`CheckpointManager`
  (periodic mesh snapshots consumed by
  :func:`repro.core.stepper.evolve` and
  :class:`repro.core.stepper.GuardedStepper`) and stream quarantine in
  :mod:`repro.runtime.cuda`;
* the workload — :func:`run_merger`, the one harness that drives the
  distributed V1309 merger through every layer at once under a
  :class:`FaultScript` (presets :data:`CHAOS`, :data:`DISTRIBUTED`,
  :data:`RECOVERY`) and checks it against a fault-free node-level run.

Everything publishes ``/resilience/...`` counters into the registry from
:mod:`repro.runtime.counters` and emits trace spans when tracing is on.
"""

from .faults import (FaultInjector, InjectedFault, SimulationFault,
                     TransientActionFault)
from .retry import (DEFAULT_RETRY_POLICY, NETWORK_RETRY_POLICY,
                    ResilientParcelSender, RetryBudgetExhausted, RetryPolicy)
from .checkpoint import (CheckpointError, CheckpointManager, MeshCheckpoint,
                         block_checksum)
from .durability import (BlockRecord, BuddyReplicatedStore, ManifestRecord,
                         RecoveryCoordinator, RecoveryReport)
from .supervisor import DEFAULT_TASK_RETRIES, SupervisedEngine
from .health import (DEFAULT_HEARTBEAT_INTERVAL_S, DEFAULT_PHI_THRESHOLD,
                     FailureDetector)
from .merger import (CHAOS, DISTRIBUTED, RECOVERY, FaultScript,
                     MergerConfig, MergerResult, run_merger)

__all__ = [
    "FaultInjector", "InjectedFault", "SimulationFault",
    "TransientActionFault",
    "RetryPolicy", "RetryBudgetExhausted", "ResilientParcelSender",
    "DEFAULT_RETRY_POLICY", "NETWORK_RETRY_POLICY",
    "CheckpointError", "CheckpointManager", "MeshCheckpoint",
    "block_checksum",
    "BlockRecord", "ManifestRecord", "BuddyReplicatedStore",
    "RecoveryCoordinator", "RecoveryReport",
    "SupervisedEngine", "DEFAULT_TASK_RETRIES",
    "FailureDetector", "DEFAULT_PHI_THRESHOLD",
    "DEFAULT_HEARTBEAT_INTERVAL_S",
    "FaultScript", "MergerConfig", "MergerResult", "run_merger",
    "CHAOS", "DISTRIBUTED", "RECOVERY",
]
