"""The V1309 merger under each fault script (:mod:`repro.resilience.merger`).

Every preset runs the same pipeline — node-level ``BlockMesh`` reference,
supervised ``DistBlockMesh`` subject over four localities, guarded
checkpointed stepping, phi-accrual detection — and must finish with:

* the subject's state **byte-identical** to the reference and the
  conservation-drift reports identical record for record;
* halo sets == gets and every cross-locality halo charged to the halo
  parcelport (transport tallies == ``/parcels/halo:<port>/*`` tallies).

On top of that each script proves its own story:

* ``CHAOS`` — every fault class fired and every recovery mechanism
  engaged; the silent locality was found by the detector and evacuated;
  the poisoned stream is quarantined and its sibling is not; no
  side-channel parcel was lost;
* ``DISTRIBUTED`` — one locality killed, detected, evacuated, and the
  run rolled back and replayed on the survivors;
* ``RECOVERY`` — a correlated two-locality loss beyond evacuation
  capacity plus a corrupt newest checkpoint: a global rollback to the
  newest verified replicated generation and an elastic restart;
* ``RECOVERY`` on a degraded network — loss and delay really reach the
  parcel side channel.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.resilience.merger import (CHAOS, DISTRIBUTED, RECOVERY,
                                     FaultScript, MergerConfig, run_merger)
from repro.runtime.counters import CounterRegistry, default_registry

SCRIPTS = {
    "chaos": CHAOS,
    "distributed": DISTRIBUTED,
    "recovery": RECOVERY,
    "recovery-degraded": replace(RECOVERY, loss_rate=0.2, delay_rate=0.2),
}


def on(*names):
    """Run the decorated (slow) test against the named scripts' runs."""
    def mark(obj):
        obj = pytest.mark.parametrize("merger", names, indirect=True)(obj)
        return pytest.mark.slow(obj)
    return mark


@pytest.fixture(scope="module")
def merger(request):
    registry = CounterRegistry()
    # stream quarantine tallies into the process-wide registry
    before = default_registry().snapshot().get("/cuda/quarantined", 0.0)
    result = run_merger(MergerConfig(script=SCRIPTS[request.param]),
                        registry)
    snap = registry.snapshot()
    snap["/cuda/quarantined"] = (
        default_registry().snapshot().get("/cuda/quarantined", 0.0) - before)
    return result, snap


@on(*SCRIPTS)
class TestEveryScript:
    def test_completes_bit_identical_to_node_level(self, merger):
        res, _snap = merger
        assert res.dist.steps == res.config.steps
        assert res.bitwise_identical
        assert res.reports_identical

    def test_conservation_drifts_are_finite_and_small(self, merger):
        res, _snap = merger
        report = res.dist_monitor.report()
        assert report == res.ref_monitor.report()
        for key, val in report.items():
            assert np.isfinite(val), key

    def test_counters_reconcile(self, merger):
        res, snap = merger
        assert res.counters_reconcile
        assert snap["/distmesh/halo/sets"] == snap["/distmesh/halo/gets"]
        st = res.dist.transport.stats
        assert st.remote_msgs > 0        # halos really crossed localities
        assert st.reordered == st.remote_msgs  # all were shuffle-delivered
        port = res.dist.transport.port_snapshot()
        assert int(port["messages"]) == st.remote_msgs + st.onesided_msgs
        assert int(port["bytes"]) == st.remote_bytes + st.onesided_bytes
        # the halo port's gauges were published (global tallies — they
        # include any earlier traffic on the same process-wide port, so
        # >= this run's share, never less)
        published = snap[f"/parcels/{res.dist.transport.port.name}/messages"]
        assert published >= port["messages"]
        total_blocks = sum(res.dist.locality_blocks().values())
        assert sum(int(snap[f"/distmesh/blocks/loc{i}"])
                   for i in range(res.config.n_localities)) == total_blocks

    def test_summary_is_reportable(self, merger):
        res, _snap = merger
        text = res.summary()
        assert "bitwise identical state : True" in text
        assert "failed" in text


@on("chaos")
class TestChaos:
    def test_every_fault_class_fired(self, merger):
        res, snap = merger
        net = res.net_injector.stats()
        inj = res.injector.stats()
        assert net["loss"] >= 1
        assert net["delay"] >= 1
        assert inj["action"] >= 1
        assert inj["step"] >= 1
        assert inj["corruption"] >= 1
        assert inj["torn-write"] >= 1
        assert inj["ckpt-corruption"] >= 1
        assert snap["/resilience/health/silenced"] == 1.0
        # the injector tallies made it into the shared registry too
        assert snap["/resilience/injected/loss"] == float(net["loss"])
        assert snap["/resilience/injected/corruption"] == 1.0

    def test_every_recovery_mechanism_engaged(self, merger):
        _res, snap = merger
        assert snap["/resilience/parcels/retries"] >= 1.0   # net layer
        assert snap["/resilience/tasks/retried"] >= 1.0     # supervisor
        assert snap["/resilience/steps/restores"] >= 1.0    # checkpoints
        assert snap["/resilience/steps/rejected"] >= 1.0    # guards
        assert snap["/resilience/ckpt/fallback"] >= 1.0     # verified store
        assert snap["/cuda/quarantined"] >= 1.0             # stream health
        # recoveries stayed within their budgets
        assert snap.get("/resilience/tasks/gave-up", 0.0) == 0.0
        assert snap.get("/resilience/parcels/exhausted", 0.0) == 0.0

    def test_dead_locality_found_by_detector_not_by_hand(self, merger):
        res, snap = merger
        (victim,) = res.config.script.kill
        assert res.detector.detected == [victim]
        assert res.dist.agas.failed_localities == {victim}
        assert snap["/resilience/health/detected"] == 1.0
        assert snap["/resilience/health/evacuated"] >= 1.0
        # the victim's store now answers from a surviving locality
        for gid in res.stores:
            assert res.dist.agas.locality_of(gid) != victim

    def test_poisoned_stream_quarantined_healthy_one_not(self, merger):
        res, _snap = merger
        # quarantine outlives the run by construction (long period), so
        # the poisoned stream is still benched; its sibling is not
        assert res.stream_quarantined == (True, False)
        assert res.halo_failed == 0

    def test_no_halo_parcel_lost(self, merger):
        res, _snap = merger
        # every completed step broadcasts to all localities; replayed
        # steps re-broadcast their generation, so the total is a whole
        # number of full broadcasts, at least one per step
        expected = res.config.steps * res.config.n_localities
        assert res.halo_acked >= expected
        assert res.halo_acked % res.config.n_localities == 0
        assert res.halo_failed == 0
        # every store holds every generation it was sent (the evacuated
        # one included — migration carried its state along)
        for gid in res.stores:
            store, _loc = res.dist.agas.resolve(gid)
            assert set(store.halos) == set(
                range(1, res.config.steps + 1))


@on("distributed")
class TestDistributed:
    def test_locality_was_killed_detected_and_evacuated(self, merger):
        res, snap = merger
        (victim,) = res.config.script.kill
        assert res.killed == [victim]
        # nobody called fail_locality by hand — the detector did
        assert victim in res.detector.declared_failed
        assert snap["/resilience/health/detected"] == 1
        assert snap["/resilience/health/silenced"] == 1
        assert res.evacuated
        assert snap["/resilience/health/evacuated"] == len(res.evacuated)
        # the victim hosts nothing now; its blocks moved, none were lost
        assert res.dist.locality_blocks()[victim] == 0
        assert snap["/resilience/agas/components-lost"] == 0
        assert res.lost == []
        for gid in res.evacuated:
            assert res.dist.agas.locality_of(gid) != victim

    def test_rollback_and_replay_engaged(self, merger):
        res, snap = merger
        assert res.report is None          # evacuation, not global
        assert res.checkpoints.restores >= 1
        assert snap["/resilience/checkpoint/restores"] >= 1
        # the replay re-ran at least one step's worth of supervised tasks
        assert snap["/resilience/tasks/submitted"] > 0


@on("recovery")
class TestRecovery:
    def test_both_victims_detected_without_manual_calls(self, merger):
        res, snap = merger
        assert res.killed == sorted(res.config.script.kill)
        assert sorted(res.detector.declared_failed) == res.killed
        assert snap["/resilience/health/detected"] == len(res.killed)
        assert snap["/resilience/health/silenced"] == len(res.killed)
        # correlated loss: nothing was evacuated, the GIDs died with
        # the nodes and only the replicated store could bring them back
        assert snap.get("/resilience/health/evacuated", 0.0) == 0.0
        assert snap["/resilience/agas/components-lost"] > 0

    def test_global_rollback_fell_back_past_the_corrupt_generation(
            self, merger):
        res, snap = merger
        rep = res.report
        assert rep is not None
        assert res.coordinator.rollbacks == 1
        assert snap["/recovery/global-rollbacks"] == 1.0
        assert snap["/recovery/elastic-restarts"] == 1.0
        # the newest save (the corrupted one) was skipped
        assert res.injector.stats()["ckpt-corruption"] == 1
        assert snap["/resilience/ckpt/fallback"] >= 1.0
        assert snap["/resilience/ckpt/corrupt"] >= 1.0
        assert snap["/resilience/ckpt/verified"] >= 1.0
        assert rep.step < res.config.script.kill_after_steps

    def test_elastic_restart_on_the_survivors(self, merger):
        res, snap = merger
        rep = res.report
        survivors = sorted(set(range(res.config.n_localities))
                           - set(res.killed))
        assert rep.survivors == survivors
        assert snap["/recovery/localities-remaining"] == len(survivors)
        # every block now lives on a survivor; the victims host nothing
        owners = res.dist.owners()
        assert set(owners.values()) <= set(survivors)
        for victim in res.killed:
            assert res.dist.locality_blocks()[victim] == 0
        # the lost GIDs were resurrected (not migrated — they were dead)
        assert rep.components_restored > 0
        assert snap["/recovery/components-restored"] == \
            rep.components_restored
        assert snap["/resilience/agas/components-restored"] == \
            rep.components_restored
        assert res.dist.lost_blocks == set()
        assert rep.blocks_fetched == len(res.dist.blocks)

    def test_replication_and_counters_reconcile(self, merger):
        res, snap = merger
        assert res.counters_reconcile
        # replication was charged like real traffic and survived the loss
        assert snap["/resilience/ckpt/replicas"] > 0
        assert snap["/resilience/ckpt/replicas-lost"] > 0
        assert snap["/recovery/blocks-fetched"] == len(res.dist.blocks)
        assert res.dist.transport.stats.onesided_msgs > 0


@on("recovery-degraded")
def test_degraded_network_injects_loss_and_retries(merger):
    res, snap = merger
    assert res.report is not None
    assert snap["/resilience/injected/loss"] >= 1.0
    assert snap["/resilience/parcels/retries"] >= 1.0
    assert res.halo_acked > 0
    assert res.halo_failed == 0
    assert res.bitwise_identical
    assert res.reports_identical


@pytest.mark.parametrize("kwargs, message", [
    (dict(M=12), "not a positive multiple of the sub-grid edge"),
    (dict(M=24), "needs a power of two"),
    (dict(script=FaultScript(kill=(7,))), r"out of range\(4\)"),
    (dict(script=FaultScript(kill=(-1,))), r"out of range\(4\)"),
    (dict(script=FaultScript(kill=(1, 1))), "twice"),
    (dict(n_localities=2, script=FaultScript(kill=(0, 1))),
     "no locality survives"),
    (dict(steps=2, script=FaultScript(kill=(1,), kill_after_steps=2)),
     "kill_after_steps"),
    (dict(script=FaultScript(loss_rate=1.5)), r"loss_rate must be in \[0, 1\]"),
    (dict(script=FaultScript(delay_rate=-0.1)), "delay_rate"),
    (dict(script=FaultScript(action_fault_rate=2.0)), "action_fault_rate"),
    (dict(port="tcp"), "port 'tcp'"),
], ids=["M-not-multiple", "M-non-power-of-two", "kill-out-of-range",
        "kill-negative", "kill-twice", "none-survive", "kill-too-late",
        "loss-rate", "delay-rate", "action-rate", "port"])
def test_invalid_config_rejected_before_solve(kwargs, message, monkeypatch):
    import repro.core.scenario as scenario

    def no_solve(*_a, **_k):
        raise AssertionError("validation must precede the SCF solve")

    monkeypatch.setattr(scenario, "v1309_binary", no_solve)
    with pytest.raises(ValueError, match=message):
        run_merger(MergerConfig(**kwargs))
