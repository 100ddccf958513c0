"""Mesh boundary conditions, distributed equivalence, AMR octree."""

import numpy as np
import pytest

from repro.core import (EGAS, NF, NGHOST, RHO, SX, TAU, BlockMesh, IdealGas,
                        Mesh, Octree, apply_boundary, prolong, restrict)
from repro.core.hydro.solver import HydroOptions
from repro.runtime import WorkStealingScheduler


class TestBoundaries:
    def _block(self):
        m = 8 + 2 * NGHOST
        U = np.zeros((NF, m, m, m))
        U[RHO, NGHOST:-NGHOST, NGHOST:-NGHOST, NGHOST:-NGHOST] = \
            np.arange(8 * 8 * 8, dtype=float).reshape(8, 8, 8) + 1.0
        return U

    def test_unknown_bc_rejected(self):
        with pytest.raises(ValueError):
            apply_boundary(self._block(), "weird")
        with pytest.raises(ValueError):
            Mesh(n=8, bc="weird")

    def test_periodic_wraps(self):
        U = self._block()
        apply_boundary(U, "periodic")
        g = NGHOST
        np.testing.assert_array_equal(U[RHO, g - 1], U[RHO, g + 7])
        np.testing.assert_array_equal(U[RHO, g + 8], U[RHO, g])

    def test_outflow_copies_edge(self):
        U = self._block()
        apply_boundary(U, "outflow")
        g = NGHOST
        np.testing.assert_array_equal(U[RHO, 0], U[RHO, g])

    def test_reflect_mirrors_and_negates_normal_momentum(self):
        U = self._block()
        U[SX] = 1.0
        apply_boundary(U, "reflect")
        g = NGHOST
        np.testing.assert_array_equal(U[RHO, g - 1], U[RHO, g])
        assert (U[SX, 0:g] == -1.0).all()
        # transverse momentum untouched in sign
        assert (U[SX + 1, 0:g] == 0.0).all()


class TestMesh:
    def test_load_primitives_roundtrip(self):
        mesh = Mesh(n=8)
        mesh.load_primitives(2.0, 0.5, 0.0, 0.0, 1.0)
        I = mesh.interior
        assert np.allclose(I[RHO], 2.0)
        assert np.allclose(I[SX], 1.0)
        eint = 1.0 / (IdealGas().gamma - 1.0)
        np.testing.assert_allclose(I[EGAS], eint + 0.5 * 2.0 * 0.25)

    def test_anisotropic_shape(self):
        mesh = Mesh(n=(16, 8, 8), domain=1.0)
        assert mesh.interior.shape == (NF, 16, 8, 8)
        x, y, z = mesh.cell_centers()
        assert x.shape[0] == 16 and y.shape[1] == 8

    def test_self_gravity_requires_cube(self):
        with pytest.raises(ValueError):
            Mesh(n=(16, 8, 8), self_gravity=True)

    def test_uniform_gas_is_static(self):
        mesh = Mesh(n=8, bc="periodic")
        mesh.load_primitives(1.0, 0.0, 0.0, 0.0, 1.0)
        before = mesh.interior.copy()
        mesh.step(0.01)
        np.testing.assert_allclose(mesh.interior[RHO], before[RHO],
                                   atol=1e-13)

    def test_step_advances_time(self):
        mesh = Mesh(n=8)
        mesh.load_primitives(1.0, 0.0, 0.0, 0.0, 1.0)
        mesh.step(0.001)
        assert mesh.time == pytest.approx(0.001)
        assert mesh.steps == 1

    def test_conserved_totals_shape(self):
        mesh = Mesh(n=8)
        mesh.load_primitives(1.0, 0.1, 0.0, 0.0, 1.0)
        tot = mesh.conserved_totals()
        assert tot["mass"] == pytest.approx(1.0)
        assert tot["momentum"].shape == (3,)
        assert tot["angular_momentum"].shape == (3,)


class TestDistributedEquivalence:
    """The futurized multi-sub-grid mesh reproduces the single block."""

    def _setup_pair(self, scheduler=None):
        opts = HydroOptions(eos=IdealGas(gamma=1.4))
        n = 16
        single = Mesh(n=n, domain=1.0, options=opts, bc="outflow")
        x, y, z = single.cell_centers()
        rho = 1.0 + 0.5 * np.sin(2 * np.pi * (x + y + z) / 3)
        single.load_primitives(rho, 0.1, 0.0, -0.05, 1.0 + 0 * rho)
        dist = BlockMesh(blocks_per_edge=2, domain=1.0, options=opts,
                         bc="outflow", scheduler=scheduler)
        dist.load_interior(single.interior.copy())
        return single, dist

    def test_interiors_match_after_steps(self):
        single, dist = self._setup_pair()
        dt = 0.002
        for _ in range(3):
            single.step(dt)
            dist.step(dt)
        np.testing.assert_allclose(dist.gather_interior(),
                                   single.interior, rtol=1e-12, atol=1e-13)

    def test_matches_with_scheduler(self):
        """Per-sub-grid RHS tasks on the work-stealing pool change nothing
        about the physics (the Sec. 4.1 promise)."""
        with WorkStealingScheduler(4) as sched:
            single, dist = self._setup_pair(scheduler=sched)
            dt = 0.002
            for _ in range(2):
                single.step(dt)
                dist.step(dt)
            np.testing.assert_allclose(dist.gather_interior(),
                                       single.interior, rtol=1e-12,
                                       atol=1e-13)

    def test_scatter_gather_roundtrip(self):
        _single, dist = self._setup_pair()
        full = dist.gather_interior()
        dist.load_interior(full)
        np.testing.assert_array_equal(dist.gather_interior(), full)


class TestOctree:
    def test_root_only_initially(self):
        t = Octree()
        assert t.n_nodes == 1 and t.n_leaves == 1

    def test_refine_creates_eight_children(self):
        t = Octree()
        kids = t.refine(0, (0, 0, 0))
        assert len(kids) == 8
        assert t.n_leaves == 8 and t.n_nodes == 9

    def test_refine_nonexistent_raises(self):
        t = Octree()
        with pytest.raises(KeyError):
            t.refine(1, (0, 0, 0))

    def test_double_refine_raises(self):
        t = Octree()
        t.refine(0, (0, 0, 0))
        with pytest.raises(ValueError):
            t.refine(0, (0, 0, 0))

    def test_prolong_restrict_inverse(self, rng):
        data = rng.uniform(0, 1, (NF, 8, 8, 8))
        np.testing.assert_allclose(restrict(prolong(data)), data,
                                   rtol=1e-15)

    def test_refinement_conserves_mass(self, rng):
        t = Octree(domain=2.0)
        root = t.get(0, (0, 0, 0))
        root.grid.interior[RHO] = rng.uniform(0.5, 1.5, (8, 8, 8))
        m0 = t.total_mass()
        t.refine(0, (0, 0, 0))
        assert t.total_mass() == pytest.approx(m0, rel=1e-13)

    def test_coarsen_conserves_mass(self, rng):
        t = Octree(domain=2.0)
        t.refine(0, (0, 0, 0))
        for leaf in t.leaves():
            leaf.grid.interior[RHO] = rng.uniform(
                0.5, 1.5, (8, 8, 8))
        m0 = t.total_mass()
        t.coarsen(0, (0, 0, 0))
        assert t.total_mass() == pytest.approx(m0, rel=1e-13)
        assert t.n_nodes == 1

    def test_two_to_one_balance_enforced(self):
        t = Octree()
        t.refine(0, (0, 0, 0))
        t.refine(1, (0, 0, 0))
        # refining a level-2 corner forces its coarse neighbours to split
        t.refine(2, (0, 0, 0))
        for node in t.nodes.values():
            if node.refined:
                continue
            # all leaf neighbours of any refined node differ by <= 1 level
        levels = {n.level for n in t.leaves()}
        assert max(levels) - min(levels) <= 2

    def test_sfc_order_parents_before_descendants(self):
        t = Octree()
        t.refine(0, (0, 0, 0))
        t.refine(1, (1, 0, 0))
        order = t.leaves_sfc()
        assert len(order) == t.n_leaves
        # depth-first: the 8 children of (1,(1,0,0)) appear contiguously
        lv2 = [i for i, n in enumerate(order) if n.level == 2]
        assert lv2 == list(range(lv2[0], lv2[0] + 8))

    def test_refine_by_criterion(self, rng):
        t = Octree()
        root = t.get(0, (0, 0, 0))
        root.grid.interior[RHO] = 1.0
        count = t.refine_by(
            lambda node: float(node.grid.interior[RHO].max()) > 0.5,
            max_level=2)
        assert t.max_level() == 2
        assert count == 1 + 8

    def test_fmm_levels_cell_counts(self):
        t = Octree()
        t.refine(0, (0, 0, 0))
        specs, rho = t.fmm_levels()
        assert specs[0][2].shape == (512, 3)
        assert specs[1][2].shape == (4096, 3)
        assert rho[1].shape == (4096,)
