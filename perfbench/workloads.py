"""The benchmark's workloads: seeded initial states, the timed step, checks.

Each workload generates its initial state from the seed (a sub-cell
offset of the star or blast centre, low-amplitude velocity noise, the
halo reorder seed) and hands the program only that state.  The program
is driven through public functions alone: scenario builders, ``Mesh`` /
``BlockMesh`` / ``DistBlockMesh``, ``ExecutionEngine``,
``WorkStealingScheduler``, ``CudaDevice``, ``CheckpointManager``.

A workload is used as::

    w = WORKLOADS[name](seed, tiny=False)
    model = w.model()          # initial model (profile or SCF)
    w.build(model)             # mesh, solver, runtime
    w.op()                     # first step: recording solve + warm-up
    ... w.op() timed, w.step_violations() after every step ...
    w.final_violations(); w.close()

``tiny`` shrinks every workload to a smoke-test size (16^3 grids, three
SCF iterations) without changing which layers it exercises.
"""

from __future__ import annotations

import os

import numpy as np

from repro.core import (EGAS, PASSIVE0, RHO, SUBGRID_N, SX, TAU,
                        BlockMesh, DistBlockMesh, ExecutionEngine,
                        HydroOptions, IdealGas, Mesh, Polytrope,
                        v1309_binary)
from repro.core.gravity.direct import direct_field
from repro.resilience.checkpoint import CheckpointManager
from repro.runtime import CudaDevice, WorkStealingScheduler, default_registry

__all__ = ["WORKLOADS", "Workload"]

#: velocity noise, as a fraction of the local sound speed
NOISE = 1e-3
#: FMM against direct summation (star).  Every cell of the star's body
#: (density at least FMM_BODY_RHO of the densest cell) must meet the
#: per-cell tolerances of tests/core/test_fmm.py.  The envelope and the
#: atmosphere outside it carry a larger multipole truncation error (at
#: 32^3 up to 4.9e-2 in acc and 2.7e-3 in phi); sampled cells there are
#: held to per-cell caps of about twice those maxima.
FMM_BODY_RHO = 1e-2
FMM_ACC_RTOL = 0.02
FMM_PHI_RTOL = 5e-4
FMM_ENVELOPE_ACC_CAP = 0.1
FMM_ENVELOPE_PHI_CAP = 5e-3
FMM_ENVELOPE_SAMPLES = 512
#: direct-summation targets per call (bounds its scratch memory)
_DIRECT_CHUNK = 256

#: exact per-step counts: name -> counter-registry key
REGISTRY_COUNTS = {
    "fmm.p2p_pairs": "/fmm/interactions/monopole",
    "fmm.m2l_pairs": "/fmm/interactions/multipole",
    "fmm.solves": "/fmm/solves",
    "exec.batches": "/exec/batches",
    "exec.tasks": "/exec/tasks",
    "halo.sets": "/distmesh/halo/sets",
    "halo.gets": "/distmesh/halo/gets",
    "ckpt.bytes": "/resilience/checkpoint/bytes-saved",
    "hydro.steps": "/hydro/steps",
}


def add_velocity_noise(mesh: Mesh, rng: np.random.Generator,
                       amplitude: float = NOISE) -> None:
    """Add seeded velocity noise of ``amplitude`` x the local sound speed,
    keeping internal energy (and so the entropy tracer) unchanged."""
    I = mesh.interior
    eos = mesh.options.eos
    rho = I[RHO]
    mom = I[SX:SX + 3]
    eint = I[EGAS] - 0.5 * (mom * mom).sum(axis=0) / rho
    cs = eos.sound_speed(rho, eos.pressure(rho, eint))
    mom += rho * amplitude * cs * rng.standard_normal(mom.shape)
    I[EGAS] = eint + 0.5 * (mom * mom).sum(axis=0) / rho


def _centre_offset(rng: np.random.Generator, dx: float) -> np.ndarray:
    """A uniform sub-cell offset in [-dx/2, dx/2)^3."""
    return (rng.random(3) - 0.5) * dx


def _fmm_errors(pos: np.ndarray, mass: np.ndarray, acc: np.ndarray,
                phi: np.ndarray, idx: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell relative acc and phi errors of the FMM field at the flat
    cell indices ``idx``, against direct summation over every cell."""
    pd = np.empty(len(idx))
    ad = np.empty((len(idx), 3))
    for lo in range(0, len(idx), _DIRECT_CHUNK):
        hi = lo + _DIRECT_CHUNK
        pd[lo:hi], ad[lo:hi] = direct_field(pos, mass, pos[idx[lo:hi]])
    i, j, k = np.unravel_index(idx, phi.shape)
    acc_err = np.linalg.norm(acc[:, i, j, k].T - ad, axis=1) \
        / np.linalg.norm(ad, axis=1)
    phi_err = np.abs(phi[i, j, k] - pd) / np.abs(pd)
    return acc_err, phi_err


def _finite_and_floored(mesh, rho_floor: float) -> list[str]:
    state = mesh.gather_interior()
    bad = []
    if not np.isfinite(state).all():
        bad.append("non-finite state")
    if state[RHO].min() < rho_floor:
        bad.append(f"rho {state[RHO].min():.3e} below floor {rho_floor}")
    return bad


class Workload:
    """One benchmark workload (see the module docstring for the protocol)."""

    name = ""
    why = ""
    isolates = ""
    #: bounds on |mass - mass0| / mass0 and on max |P - P0| / (mass0 *
    #: c_ref) over the run, c_ref the initial mass-weighted rms sound
    #: speed; set from the drifts measured at full size, with headroom
    drift_max = (0.0, 0.0)
    #: the same at smoke-test size, where the drift differs
    tiny_drift_max: tuple[float, float] | None = None
    #: set-ups per run; ``setup_s`` is their median (only where a set-up
    #: is cheap next to a run)
    setup_repeats = 1

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.rng = np.random.default_rng(seed)
        self.mesh = None
        self.engine = None
        self.scheduler = None
        self.device = None
        self.threads = {"scheduler_workers": 0, "device_workers": 0}
        self._totals0 = None
        self._c_ref = 1.0
        #: latest relative drifts (mass, momentum) and, for the star, the
        #: FMM-vs-direct errors; copied into the run record
        self.drift: dict | None = None
        self.fmm_error: dict | None = None

    # -- to provide per workload ---------------------------------------------

    def model(self) -> Mesh:
        raise NotImplementedError

    def build(self, model: Mesh) -> None:
        raise NotImplementedError

    def op(self) -> None:
        """The timed operation: one step."""
        self.mesh.step()

    # -- shared ----------------------------------------------------------------

    def _record_initial(self, model: Mesh) -> None:
        tot = model.conserved_totals()
        self._totals0 = tot
        I = model.interior
        eos = model.options.eos
        eint = I[EGAS] - 0.5 * (I[SX:SX + 3] ** 2).sum(axis=0) / I[RHO]
        cs = eos.sound_speed(I[RHO], eos.pressure(I[RHO], eint))
        self._c_ref = float(np.sqrt(np.average(cs * cs, weights=I[RHO])))

    def step_violations(self) -> list[str]:
        """Checks after every step: finite, floored, bounded drift."""
        bad = _finite_and_floored(self.mesh, self.mesh.options.rho_floor)
        tot = self.mesh.conserved_totals()
        m0 = self._totals0["mass"]
        dm = abs(tot["mass"] - m0) / m0
        dp = float(np.abs(tot["momentum"] - self._totals0["momentum"]).max()
                   / (m0 * self._c_ref))
        self.drift = {"mass": dm, "momentum": dp}
        dm_max, dp_max = (self.tiny_drift_max if self.tiny
                          and self.tiny_drift_max else self.drift_max)
        if not dm <= dm_max:
            bad.append(f"mass drift {dm:.3e} > {dm_max:.0e}")
        if not dp <= dp_max:
            bad.append(f"momentum drift {dp:.3e} > {dp_max:.0e}")
        return bad

    def final_violations(self) -> list[str]:
        return []

    def exact_counts(self) -> dict[str, int]:
        """Cumulative counts that a same-seed run must repeat exactly."""
        snap = default_registry().snapshot()
        out = {k: int(snap.get(key, 0)) for k, key in REGISTRY_COUNTS.items()}
        if self.scheduler is not None:
            out["threads.posted"] = self.scheduler.stats.posted
        if self.engine is not None:
            out["exec.placed"] = (self.engine.gpu_launches
                                  + self.engine.cpu_launches)
        transport = getattr(self.mesh, "transport", None)
        if transport is not None:
            st = transport.stats
            out.update({"halo.local_msgs": st.local_msgs,
                        "halo.local_bytes": st.local_bytes,
                        "halo.remote_msgs": st.remote_msgs,
                        "halo.remote_bytes": st.remote_bytes})
        return out

    def schedule_counts(self) -> dict[str, int]:
        """Cumulative counts that depend on thread timing (not repeated
        exactly): steals and the GPU/CPU placement split."""
        out = {}
        if self.scheduler is not None:
            out["threads.stolen"] = self.scheduler.stats.stolen
        if self.engine is not None:
            out.update({"exec.gpu": self.engine.gpu_launches,
                        "exec.cpu": self.engine.cpu_launches,
                        "exec.agg_launches": self.engine.agg_launches,
                        "exec.agg_tasks": self.engine.agg_tasks})
        return out

    def close(self) -> None:
        """Stop every runtime thread this workload started."""
        if self.engine is not None:
            self.engine.synchronize()
        if self.device is not None:
            self.device.shutdown()
        if self.scheduler is not None:
            self.scheduler.shutdown()


class StarWorkload(Workload):
    name = "star-32"
    why = ("ROADMAP anchor and plain single-threaded baseline: gravity is "
           "~89% of the step and no runtime code runs")
    isolates = "gravity (serial FMM replay: P2P, M2L, gathers, scatters)"
    # measured: 4.9e-13 / 6.2e-7 at 32^3 (31 seeds); at 16^3 floor-density
    # atmosphere cells collapse dt and the floors destroy momentum (up to
    # 6.3e-3 in two steps), so the smoke size has its own bound
    drift_max = (1e-11, 1e-5)
    tiny_drift_max = (1e-8, 2e-2)

    def model(self) -> Mesh:
        n, domain = (16, 4.0) if self.tiny else (32, 4.0)
        n_poly, radius, mass, rho_floor = 1.5, 1.0, 1.0, 1e-10
        opts = HydroOptions(eos=IdealGas(gamma=1.0 + 1.0 / n_poly),
                            rho_floor=rho_floor)
        model = Mesh(n=n, domain=domain, origin=(-domain / 2,) * 3,
                     options=opts, bc="outflow")
        c = _centre_offset(self.rng, model.dx)
        x, y, z = model.cell_centers()
        r = np.sqrt((x - c[0]) ** 2 + (y - c[1]) ** 2 + (z - c[2]) ** 2)
        rho, p = Polytrope(n=n_poly, radius=radius, mass=mass).profile(
            r.ravel())
        rho = np.maximum(rho.reshape(r.shape), rho_floor)
        p = np.maximum(p.reshape(r.shape), rho_floor * 1e-4)
        model.load_primitives(rho, 0.0, 0.0, 0.0, p)
        model.interior[PASSIVE0] = np.where(r < radius, rho, 0.0)
        add_velocity_noise(model, self.rng)
        return model

    def build(self, model: Mesh) -> None:
        self._record_initial(model)
        self.mesh = BlockMesh(model.n // SUBGRID_N, domain=model.domain,
                              origin=model.origin, options=model.options,
                              bc=model.bc, engine=None, self_gravity=True)
        self.mesh.load_interior(model.interior.copy())

    def final_violations(self) -> list[str]:
        """FMM field against direct summation: every cell of the star's
        body at the test tolerances, sampled envelope cells at the caps."""
        mesh = self.mesh
        acc = mesh.solve_gravity()
        phi = mesh.phi
        rho = mesh.gather_interior()[RHO]
        n, dx = mesh.n, mesh.dx
        g = mesh.origin[0] + (np.arange(n) + 0.5) * dx
        X, Y, Z = np.meshgrid(g, g, g, indexing="ij")
        pos = np.stack([X, Y, Z], -1).reshape(-1, 3)
        mass = (rho * dx ** 3).ravel()
        body = rho.ravel() >= FMM_BODY_RHO * rho.max()
        envelope = self.rng.choice(np.flatnonzero(~body),
                                   FMM_ENVELOPE_SAMPLES, replace=False)
        self.fmm_error = {}
        bad = []
        for region, idx, acc_tol, phi_tol in (
                ("body", np.flatnonzero(body), FMM_ACC_RTOL, FMM_PHI_RTOL),
                ("envelope", envelope, FMM_ENVELOPE_ACC_CAP,
                 FMM_ENVELOPE_PHI_CAP)):
            acc_err, phi_err = _fmm_errors(pos, mass, acc, phi, idx)
            out = int((~((acc_err < acc_tol) & (phi_err < phi_tol))).sum())
            self.fmm_error[region] = {
                "cells": len(idx), "outside": out,
                "acc_max": float(acc_err.max()),
                "phi_max": float(phi_err.max())}
            if out:
                bad.append(f"FMM {region}: {out} of {len(idx)} cells outside "
                           f"acc {acc_tol:g} / phi {phi_tol:g} (max "
                           f"{acc_err.max():.3e} / {phi_err.max():.3e})")
        return bad


class BlastWorkload(Workload):
    name = "blast-32-futurized"
    why = ("hydro is 88% of a serial step and gravity is absent; per-block "
           "RHS tasks on the work-stealing scheduler show the runtime's cost")
    isolates = "hydro RHS + runtime (scheduler, futures), no gravity"
    # measured: 8.9e-10 / 1.4e-15 at 32^3 (up to 19 steps), 2.6e-8 /
    # 2.1e-12 at 16^3
    drift_max = (1e-8, 1e-13)
    tiny_drift_max = (1e-6, 1e-10)
    setup_repeats = 3

    def model(self) -> Mesh:
        n = 16 if self.tiny else 32
        E, rho0, p_ambient = 1.0, 1.0, 1e-6
        opts = HydroOptions(eos=IdealGas(gamma=1.4))
        model = Mesh(n=n, domain=1.0, options=opts, bc="outflow")
        c = 0.5 + _centre_offset(self.rng, model.dx)
        x, y, z = model.cell_centers()
        r = np.sqrt((x - c[0]) ** 2 + (y - c[1]) ** 2 + (z - c[2]) ** 2)
        model.load_primitives(rho0, 0.0, 0.0, 0.0, p_ambient)
        src = r < 2.0 * model.dx
        eint = E / (int(src.sum()) * model.dx ** 3)
        I = model.interior
        I[EGAS][src] = eint
        I[TAU][src] = opts.eos.tau_from_eint(np.full(int(src.sum()), eint))
        add_velocity_noise(model, self.rng)
        return model

    def build(self, model: Mesh) -> None:
        self._record_initial(model)
        workers = _nproc()
        self.scheduler = WorkStealingScheduler(workers)
        self.threads = {"scheduler_workers": workers, "device_workers": 0}
        self.engine = ExecutionEngine(scheduler=self.scheduler)
        self.mesh = BlockMesh(model.n // SUBGRID_N, domain=model.domain,
                              origin=model.origin, options=model.options,
                              bc=model.bc, engine=self.engine)
        self.mesh.load_interior(model.interior.copy())


class MergerWorkload(Workload):
    name = "merger-16-dist"
    why = ("the paper's scenario: SCF V1309 binary over 4 localities with "
           "futurized gravity, parcelport halos and per-step checkpoints")
    isolates = ("network + AGAS halos, checkpoints, futurized aggregated "
                "FMM replay, rotating-frame sources")
    # measured: 1.7e-4 / 9.2e-3 at M=16 over 75 steps
    drift_max = (2e-3, 5e-2)
    n_localities = 4

    def model(self) -> Mesh:
        model = v1309_binary(M=16, scf_iters=3 if self.tiny else 12)
        add_velocity_noise(model, self.rng)
        return model

    def build(self, model: Mesh) -> None:
        self._record_initial(model)
        workers = max(1, _nproc() - 1)
        self.scheduler = WorkStealingScheduler(workers)
        self.device = CudaDevice(n_workers=1, name="bench-gpu")
        self.threads = {"scheduler_workers": workers, "device_workers": 1}
        self.engine = ExecutionEngine(scheduler=self.scheduler,
                                      devices=[self.device])
        self.reorder_seed = int(self.rng.integers(2 ** 31))
        self.mesh = DistBlockMesh(
            model.n // SUBGRID_N, n_localities=self.n_localities,
            port="libfabric", reorder_seed=self.reorder_seed,
            domain=model.domain, origin=model.origin, options=model.options,
            bc=model.bc, engine=self.engine, self_gravity=True)
        self.mesh.load_interior(model.interior.copy())
        self.checkpoints = CheckpointManager(interval=1, keep=2)
        self._last_ckpt = None

    def op(self) -> None:
        self.mesh.step()
        self._last_ckpt = self.checkpoints.save(self.mesh)

    def step_violations(self) -> list[str]:
        bad = super().step_violations()
        if not self._last_ckpt.verify():
            bad.append(f"checkpoint of step {self._last_ckpt.step} "
                       "does not verify")
        return bad

    def final_violations(self) -> list[str]:
        snap = default_registry().snapshot()
        sets = snap.get("/distmesh/halo/sets", 0.0)
        gets = snap.get("/distmesh/halo/gets", 0.0)
        bad = []
        if not (sets == gets and sets > 0):
            bad.append(f"halo sets {sets} != gets {gets}")
        if not self.mesh.transport.reconciles():
            bad.append("halo transport does not reconcile with its port")
        return bad


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (StarWorkload, BlastWorkload, MergerWorkload)}
