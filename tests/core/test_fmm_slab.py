"""Leaf P2P of a uniform FMM solver as shifted-slab terms.

On the finest level of ``FmmSolver.from_uniform`` every leaf-leaf pair
is a cell of one shifted slab per offset (see ``FmmSolver._record_slabs``
and ``kernels.p2p_pair_staged``).  These tests pin that:

* the slab terms give the field of ``p2p_pair`` over an independently
  enumerated pair set, to 1e-14 of the field's scale, on random
  densities with exact-zero vacuum and on every shape of
  ``test_fmm_one_path.UNIFORM_SHAPES`` (root-leaf grids included);
* the pair counts per solve are those of the pair-list solver;
* a root-leaf grid is direct summation, whatever its edge;
* FMM ~ direct with momentum and torque conserved on random densities.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FmmSolver
from repro.core.gravity import direct_summation, p2p_pair
from repro.core.gravity.stencil import (p2p_stencil, parity_stencils,
                                        root_stencil)
from repro.runtime import default_registry

from .test_fmm_one_path import UNIFORM_SHAPES, _density, densities


def _lex_positive(w):
    return w[(w[:, 0] > 0) | ((w[:, 0] == 0) & (w[:, 1] > 0))
             | ((w[:, 0] == 0) & (w[:, 1] == 0) & (w[:, 2] > 0))]


def _reference_pairs(M: int, depth: int):
    """Leaf-leaf pairs (a, b) as flat grid indices, straight from the
    stencils: the near offsets, plus the parity lists of the cell ``a``
    (or every well-separated offset when the root is the leaf level)."""
    g = np.arange(M)
    cells = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
    if depth == 0:
        far = {p: root_stencil(M) for p in np.ndindex(2, 2, 2)}
    else:
        far = parity_stencils()
    a_all, b_all = [], []
    for p, offsets in far.items():
        mine = cells[((cells & 1) == p).all(axis=1)]
        for w in _lex_positive(np.concatenate([offsets, p2p_stencil()])):
            nb = mine + w
            ok = ((nb >= 0) & (nb < M)).all(axis=1)
            a_all.append(mine[ok])
            b_all.append(nb[ok])
    flat = np.array([M * M, M, 1])
    return np.concatenate(a_all) @ flat, np.concatenate(b_all) @ flat


def _slab_field(solver: FmmSolver):
    """(phi, acc) grids of the solver's slab entries alone."""
    depth, M = solver._uniform_shape
    lv = solver.levels[depth]
    solver.solve()  # records the plan and masks this solve's masses
    # every entry touching the leaf level is a slab entry
    assert {e[0] for e in solver._plan
            if e[1] is lv or e[3] is lv} == {"slab"}
    lv.phi[:] = 0.0
    lv.acc[:] = 0.0
    for i, entry in enumerate(solver._plan):
        if entry[0] == "slab":
            solver._accumulate_entry(i, solver._compute_entry(i, 0))
    c = lv.coords
    phi = np.zeros((M, M, M))
    acc = np.zeros((M, M, M, 3))
    phi[c[:, 0], c[:, 1], c[:, 2]] = lv.phi
    acc[c[:, 0], c[:, 1], c[:, 2]] = lv.acc
    return phi, acc


@settings(max_examples=12, deadline=None)
@given(shape=st.sampled_from(UNIFORM_SHAPES), dens=densities)
def test_slab_matches_p2p_pair_over_the_same_pairs(shape, dens):
    subgrid_n, depth = shape
    M = subgrid_n << depth
    dx = 1.0 / M
    rho = _density(*dens, (M, M, M))
    solver = FmmSolver.from_uniform(rho, dx, subgrid_n=subgrid_n)
    phi, acc = _slab_field(solver)

    a, b = _reference_pairs(M, depth)
    assert sum(e[4] for e in solver._plan if e[0] == "slab") == len(a)
    g = np.arange(M)
    ctr = (np.stack(np.meshgrid(g, g, g, indexing="ij"), -1)
           .reshape(-1, 3) + 0.5) * dx
    m = np.maximum(rho.ravel() * dx ** 3, 1e-300)
    phiA, phiB, accA, accB = p2p_pair(ctr[a] - ctr[b], m[a], m[b])
    n = M ** 3
    phi_ref = np.bincount(a, phiA, n) + np.bincount(b, phiB, n)
    acc_ref = np.stack([np.bincount(a, accA[:, d], n)
                        + np.bincount(b, accB[:, d], n)
                        for d in range(3)], -1)
    for got, ref in ((phi.ravel(), phi_ref), (acc.reshape(-1, 3), acc_ref)):
        scale = np.abs(ref).max()
        assert np.abs(got - ref).max() <= 1e-14 * scale


@pytest.mark.parametrize("M, pairs", [(16, 2_276_352), (32, 25_251_840)])
def test_monopole_pairs_per_solve(M, pairs):
    reg = default_registry()
    rho = np.random.default_rng(M).uniform(0.1, 1.0, (M, M, M))
    solver = FmmSolver.from_uniform(rho, 1.0 / M)
    for _ in range(2):  # the recording solve and a replay count alike
        before = reg.snapshot().get("/fmm/interactions/monopole", 0.0)
        solver.solve()
        assert reg.value("/fmm/interactions/monopole") - before == pairs


def test_root_leaf_grid_is_direct_summation():
    """With the root as the leaf level every pair is a slab term, so the
    solve is direct summation — also for a root box wider than 8."""
    M = 16
    rho = _density(5, 4, 0.3, (M, M, M))
    solver = FmmSolver.from_uniform(rho, 1.0 / M, subgrid_n=M)
    phi, acc = solver.uniform_field(solver.solve())
    pd, ad = direct_summation(rho, 1.0 / M)
    assert np.abs(phi - pd).max() <= 1e-13 * np.abs(pd).max()
    assert np.abs(acc - ad).max() <= 1e-13 * np.abs(ad).max()


#: per-cell bounds of the property test.  The acceleration bound is
#: ``test_fmm.py``'s.  Its potential bound (5e-4) holds for the smooth
#: densities it samples but not for lumpy random ones: over 600 random
#: 8^3 densities (contrast 1 and 4, vacuum 0 and 0.3) the quadrupole
#: truncation reached 1.3e-3 (the pair-list solver gives the same
#: field to 1e-15), so the potential bound here is twice that maximum.
ACC_TOL = 0.02
PHI_TOL = 2.6e-3


@settings(max_examples=12, deadline=None)
@given(shape=st.sampled_from(UNIFORM_SHAPES), dens=densities)
def test_random_density_matches_direct_and_conserves(shape, dens):
    subgrid_n, depth = shape
    M = subgrid_n << depth
    dx = 1.0 / M
    rho = _density(*dens, (M, M, M))
    solver = FmmSolver.from_uniform(rho, dx, subgrid_n=subgrid_n)
    phi, acc = solver.uniform_field(solver.solve())
    pd, ad = direct_summation(rho, dx)
    err = np.linalg.norm(acc - ad, axis=-1)
    assert (err <= ACC_TOL * np.linalg.norm(ad, axis=-1)).all()
    assert (np.abs(phi - pd) <= PHI_TOL * np.abs(pd)).all()

    g = (np.arange(M) + 0.5) * dx
    pos = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
    force = (rho * dx ** 3).reshape(-1, 1) * acc.reshape(-1, 3)
    assert np.abs(force.sum(0)).max() < 1e-13 * np.abs(force).sum()
    torque = np.cross(pos, force)
    assert np.abs(torque.sum(0)).max() < 1e-12 * np.abs(torque).sum()
