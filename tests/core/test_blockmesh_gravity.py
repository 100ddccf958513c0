"""BlockMesh gravity wiring: compute_dt, Mesh equivalence, evolve, phi."""

import numpy as np
import pytest

from repro.core import BlockMesh, IdealGas, Mesh, evolve
from repro.core.hydro.solver import HydroOptions
from repro.core.scenario import equilibrium_star


def star_pair(n_poly=1.5):
    """A Lane-Emden star as a single Mesh and the same state in a 2^3 BlockMesh."""
    single = equilibrium_star(n=16, domain=4.0, n_poly=n_poly)
    block = BlockMesh(blocks_per_edge=2, domain=single.domain,
                      origin=single.origin, options=single.options,
                      bc=single.bc, self_gravity=True)
    block.load_interior(single.interior.copy())
    return single, block


class TestComputeDt:
    def test_matches_single_mesh(self):
        opts = HydroOptions(eos=IdealGas(gamma=1.4))
        single = Mesh(n=16, domain=1.0, options=opts)
        x, y, z = single.cell_centers()
        single.load_primitives(1.0 + 0.3 * np.sin(2 * np.pi * x) + 0 * y,
                               0.1, -0.05, 0.02, 1.0 + 0.2 * np.cos(z))
        block = BlockMesh(blocks_per_edge=2, domain=1.0, options=opts)
        block.load_interior(single.interior.copy())
        # the CFL condition reads only interiors, so the min over blocks
        # is exactly the full-grid dt
        assert block.compute_dt() == single.compute_dt()

    def test_step_without_dt_uses_cfl(self):
        opts = HydroOptions(eos=IdealGas(gamma=1.4))
        single = Mesh(n=16, domain=1.0, options=opts)
        x, y, z = single.cell_centers()
        single.load_primitives(1.0 + 0 * x + 0 * y + 0 * z, 0.0, 0.0, 0.0,
                               1.0 + 0.1 * np.sin(2 * np.pi * x))
        block = BlockMesh(blocks_per_edge=2, domain=1.0, options=opts)
        block.load_interior(single.interior.copy())
        dt = block.compute_dt()
        taken = block.step()
        assert taken == dt
        assert block.time == dt


class TestMeshEquivalence:
    def test_self_gravitating_steps_bit_identical(self):
        single, block = star_pair()
        for _ in range(3):
            single.step()
            block.step()
        assert block.time == single.time
        assert np.array_equal(block.gather_interior(), single.interior)
        assert np.array_equal(block.phi, single.phi)

    def test_conserved_totals_match(self):
        single, block = star_pair()
        single.step()
        block.step()
        ts, tb = single.conserved_totals(), block.conserved_totals()
        assert tb["mass"] == ts["mass"]
        assert tb["etot"] == ts["etot"]
        assert np.array_equal(tb["momentum"], ts["momentum"])


class TestEvolve:
    def test_evolve_drives_blockmesh(self):
        """Regression: evolve() used to assume a single-block Mesh; it must
        drive a self-gravitating BlockMesh end to end."""
        _, block = star_pair()
        monitor = evolve(block, t_end=1.0, max_steps=2)
        assert block.steps == 2
        assert len(monitor.records) == 3
        drifts = monitor.report()
        assert drifts["mass"] < 1e-9
        assert np.isfinite(drifts["egas"])


class TestPhiFreshness:
    def test_phi_matches_fresh_solve_after_step(self):
        """Regression: ``mesh.phi`` used to lag one stage behind after
        ``step`` — it must equal a from-scratch solve of the final density."""
        mesh = equilibrium_star(n=16, domain=4.0)
        mesh.step()
        reference = equilibrium_star(n=16, domain=4.0)
        reference.interior[:] = mesh.interior
        reference.solve_gravity()
        assert np.array_equal(mesh.phi, reference.phi)

    def test_gravity_cache_survives_external_state_mutation(self):
        """A checkpoint restore rewrites U behind the mesh's back; the
        cached acceleration must not be reused for the restored density."""
        mesh = equilibrium_star(n=16, domain=4.0)
        saved = mesh.U.copy()
        mesh.step()
        mesh.U[:] = saved  # simulate CheckpointManager.restore
        acc = mesh._gravity_for_state()
        fresh = equilibrium_star(n=16, domain=4.0)
        assert np.array_equal(acc, fresh.solve_gravity())


class TestValidation:
    def test_gravity_requires_power_of_two_blocks(self):
        with pytest.raises(ValueError, match="power|2\\^k"):
            BlockMesh(blocks_per_edge=3, self_gravity=True)

    def test_solve_gravity_requires_flag(self):
        block = BlockMesh(blocks_per_edge=2)
        with pytest.raises(RuntimeError):
            block.solve_gravity()
