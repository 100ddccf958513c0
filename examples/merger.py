#!/usr/bin/env python3
"""The distributed V1309 merger under a fault script.

The Sec. 4.2 contact-binary merger runs twice on one SCF solve: once as
the node-level :class:`repro.core.BlockMesh`, once as a
:class:`repro.core.DistBlockMesh` whose blocks are AGAS components
sharded over simulated localities, halos charged through the parcelport
and delivered in a seeded out-of-order shuffle.  The distributed run is
supervised (guarded checkpointed stepping, buddy-replicated checkpoints,
task re-execution, phi-accrual failure detection) and attacked by a
fault script:

* ``chaos`` — every fault class at once: lossy/delaying side-channel
  parcels, transient task faults, a permanently poisoned CUDA stream, an
  announced step fault, a silent state corruption, a torn and a corrupt
  checkpoint, and one locality going dark (evacuated);
* ``distributed`` — one locality goes silent mid-run; AGAS evacuates its
  blocks and the run rolls back to the latest checkpoint;
* ``recovery`` — two localities die together (beyond evacuation
  capacity) while the newest checkpoint is corrupt; the run rolls back
  globally to the newest verified replicated generation and restarts
  elastically on the survivors.

The exit gate: the final state is **byte-identical** to the node-level
run, the drift reports match, the halo and checkpoint counters
reconcile, no side-channel parcel failed, and scripted network faults
were actually injected.  With ``REPRO_SANITIZE=1`` the dynamic
sanitizers watch the whole run and must report zero findings.

Run:  python examples/merger.py --script chaos
      python examples/merger.py --script distributed --localities 8 --port mpi
      python examples/merger.py --script distributed --no-kill --steps 5
      python examples/merger.py --script recovery --localities 6 --kill 1 4
      python examples/merger.py --script recovery --loss-rate 0.2 --delay-rate 0.2
"""

import argparse
from dataclasses import replace

from repro import sanitize
from repro.analysis import format_report
from repro.resilience.merger import (CHAOS, DISTRIBUTED, RECOVERY,
                                     MergerConfig, run_merger)
from repro.runtime.counters import default_registry

SCRIPTS = {"chaos": CHAOS, "distributed": DISTRIBUTED, "recovery": RECOVERY}


def parse_config() -> MergerConfig:
    parser = argparse.ArgumentParser(
        description="distributed V1309 merger under a fault script")
    defaults = MergerConfig()
    parser.add_argument("--script", choices=sorted(SCRIPTS), default="chaos")
    parser.add_argument("--M", type=int, default=defaults.M,
                        help="cells per edge (multiple of 8, 2^k blocks)")
    parser.add_argument("--steps", type=int, default=defaults.steps)
    parser.add_argument("--scf-iters", type=int, default=defaults.scf_iters)
    parser.add_argument("--localities", type=int,
                        default=defaults.n_localities)
    parser.add_argument("--port", choices=("mpi", "libfabric"),
                        default=defaults.port)
    parser.add_argument("--seed", type=int, default=defaults.seed,
                        help="fault schedule and halo delivery order")
    # script overrides (default: the preset's value)
    parser.add_argument("--kill", type=int, nargs="+",
                        help="localities silenced together mid-run "
                             "(for two: non-adjacent pairs are "
                             "survivable, an owner+buddy pair is not)")
    parser.add_argument("--no-kill", action="store_true",
                        help="no locality failure")
    parser.add_argument("--kill-after", type=int,
                        help="steps to complete before the kill")
    parser.add_argument("--corrupt-save", type=int,
                        help="checkpoint save index to silently corrupt "
                             "(-1: none)")
    parser.add_argument("--loss-rate", type=float)
    parser.add_argument("--delay-rate", type=float)
    args = parser.parse_args()

    overrides = {}
    if args.no_kill:
        overrides["kill"] = ()
    elif args.kill is not None:
        overrides["kill"] = tuple(args.kill)
    if args.kill_after is not None:
        overrides["kill_after_steps"] = args.kill_after
    if args.corrupt_save is not None:
        overrides["ckpt_corrupt_saves"] = (
            () if args.corrupt_save < 0 else (args.corrupt_save,))
    if args.loss_rate is not None:
        overrides["loss_rate"] = args.loss_rate
    if args.delay_rate is not None:
        overrides["delay_rate"] = args.delay_rate
    try:
        cfg = MergerConfig(
            M=args.M, scf_iters=args.scf_iters, steps=args.steps,
            n_localities=args.localities, port=args.port, seed=args.seed,
            script=replace(SCRIPTS[args.script], **overrides))
    except ValueError as exc:
        parser.error(str(exc))
    return cfg


def main() -> None:
    cfg = parse_config()
    registry = default_registry()
    registry.reset()

    print(f"running V1309 merger (M={cfg.M}) node-level and distributed "
          f"over {cfg.n_localities} localities via {cfg.port} "
          f"(seed={cfg.seed}) under {cfg.script} ...\n")
    result = run_merger(cfg, registry=registry)

    print(result.summary())
    print()
    print("conservation drifts (node-level == distributed, byte for byte):")
    for key, val in result.dist_monitor.report().items():
        print(f"  {key:<18} {val:.3e}")
    print()
    print(format_report(registry))

    failures = []
    if sanitize.enabled():
        sanitize.sweep()
        sanitize.publish_counters(registry)
        print()
        print(sanitize.report())
        if sanitize.finding_count():
            failures.append("sanitizers reported findings")
    if not result.bitwise_identical:
        failures.append("distributed run diverged from the node-level run")
    if not result.reports_identical:
        failures.append("conservation reports differ")
    if not result.counters_reconcile:
        failures.append("halo / checkpoint counters do not reconcile")
    if cfg.script.kill and not result.killed:
        failures.append("the scripted kill never happened")
    if result.halo_failed:
        failures.append(f"{result.halo_failed} side-channel parcels failed")
    net = result.net_injector.stats()
    for kind in ("loss", "delay"):
        if getattr(cfg.script, f"{kind}_rate") and not net[kind]:
            failures.append(f"{kind} scripted but never injected")
    if failures:
        raise SystemExit("; ".join(failures))


if __name__ == "__main__":
    main()
