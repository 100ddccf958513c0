"""BlockMesh with reflect walls matches the single block, and
physical wall behaviour is sane."""

import numpy as np
import pytest

from repro.core import EGAS, RHO, SX, BlockMesh, IdealGas, Mesh
from repro.core.hydro.solver import HydroOptions


class TestReflectEquivalence:
    def test_distributed_matches_single_with_reflect(self):
        opts = HydroOptions(eos=IdealGas(gamma=1.4))
        single = Mesh(n=16, domain=1.0, options=opts, bc="reflect")
        x, y, z = single.cell_centers()
        rho = 1.0 + 0.3 * np.cos(np.pi * x) * np.cos(np.pi * y) \
            + 0.0 * z
        single.load_primitives(rho, 0.05, -0.03, 0.0, 1.0 + 0.1 * rho)
        dist = BlockMesh(blocks_per_edge=2, domain=1.0,
                         options=opts, bc="reflect")
        dist.load_interior(single.interior.copy())
        for _ in range(3):
            single.step(0.002)
            dist.step(0.002)
        np.testing.assert_allclose(dist.gather_interior(),
                                   single.interior, rtol=1e-12,
                                   atol=1e-13)

    def test_reflecting_box_conserves_mass_and_energy(self):
        opts = HydroOptions(eos=IdealGas(gamma=1.4))
        mesh = Mesh(n=16, domain=1.0, options=opts, bc="reflect")
        x, _y, _z = mesh.cell_centers()
        mesh.load_primitives(1.0 + 0.2 * np.sin(2 * np.pi * x) + 0 * _y,
                             0.1, 0.0, 0.0, 1.0 + 0 * x + 0 * _y)
        t0 = mesh.conserved_totals()
        for _ in range(10):
            mesh.step(mesh.compute_dt())
        t1 = mesh.conserved_totals()
        assert t1["mass"] == pytest.approx(t0["mass"], rel=1e-13)
        assert t1["egas"] == pytest.approx(t0["egas"], rel=1e-12)

    def test_momentum_reverses_off_walls(self):
        """A slab moving toward a reflecting wall bounces back."""
        opts = HydroOptions(eos=IdealGas(gamma=1.4))
        mesh = Mesh(n=(32, 8, 8), domain=1.0, options=opts, bc="reflect")
        x, y, z = mesh.cell_centers()
        mesh.load_primitives(1.0 + 0 * x + 0 * y + 0 * z,
                             0.5, 0.0, 0.0, 0.05 + 0 * x + 0 * y + 0 * z)
        p0 = mesh.conserved_totals()["momentum"][0]
        assert p0 > 0
        for _ in range(120):
            mesh.step(mesh.compute_dt())
            if mesh.conserved_totals()["momentum"][0] < 0:
                break
        assert mesh.conserved_totals()["momentum"][0] < 0.5 * p0
