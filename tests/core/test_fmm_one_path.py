"""One FMM execution path: properties over random densities and level sets.

Every solve runs the recorded plan through ``_compute_entry`` plus
in-order accumulation, whatever executes the entries.  So on random
uniform grids and random adaptive level sets (whose leaf/refined
boundaries produce the mixed-descent entries):

* the first, recording solve is bit-identical to a later replay;
* ``executor=None``, an inline ``ExecutionEngine()`` and a scheduler +
  device engine give bit-identical fields from the first solve on;
* a serial solve only ever uses output-pool slot 0 of each kind, so it
  holds one entry's outputs at a time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RHO, ExecutionEngine, FmmSolver, Octree
from repro.runtime import CudaDevice, WorkStealingScheduler

#: (subgrid_n, depth) pairs with a grid edge of at most 8 (kept small:
#: CI reruns this file under 25 explored schedules)
UNIFORM_SHAPES = [(2, 0), (2, 1), (2, 2), (4, 0), (4, 1), (8, 0)]


@pytest.fixture(scope="module")
def scheduler_engine():
    with WorkStealingScheduler(2) as sched, \
            CudaDevice(n_streams=2, n_workers=1, name="one-path-gpu") as gpu:
        # two slots per chunk: even small plans span several chunks
        yield ExecutionEngine(scheduler=sched, devices=[gpu], agg_slots=2)


def _density(seed: int, contrast: int, vacuum: float, shape) -> np.ndarray:
    """Positive random density with ``contrast`` sharpening and a
    ``vacuum`` fraction of exactly-zero cells."""
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.0, 1.0, shape) ** contrast
    rho[rng.uniform(size=shape) < vacuum] = 0.0
    return rho


densities = st.tuples(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 4]),
                      st.sampled_from([0.0, 0.3]))


def _uniform_builder(shape, dens):
    subgrid_n, depth = shape
    M = subgrid_n << depth
    rho = _density(*dens, (M, M, M))
    return lambda: FmmSolver.from_uniform(rho, 1.0 / M, subgrid_n=subgrid_n)


def _amr_builder(picks, dens):
    """2^3-cell sub-grids; the root refined once, then each pick refines
    one leaf below level 3 (2:1 balance may refine more); densities
    drawn per leaf."""
    tree = Octree(domain=1.0, subgrid_n=2)
    tree.refine(0, (0, 0, 0))
    for p in picks:
        cand = sorted((nd.key for nd in tree.leaves() if nd.level < 3))
        lvl, ipos = cand[p % len(cand)]
        tree.refine(lvl, ipos)
    seed, contrast, vacuum = dens
    for i, leaf in enumerate(sorted(tree.leaves(), key=lambda nd: nd.key)):
        shape = leaf.grid.interior[RHO].shape
        leaf.grid.interior[RHO] = _density(seed + i, contrast, vacuum, shape)
    specs, rho_by_level = tree.fmm_levels()

    def build():
        solver = FmmSolver.from_levels(specs)
        solver.set_leaf_density(rho_by_level)
        return solver
    return build


def _field_bytes(result) -> dict:
    return {lvl: (result.phi[lvl].tobytes(), result.acc[lvl].tobytes())
            for lvl in result.phi}


def _check_one_path(build, engine) -> FmmSolver:
    serial = build()
    first = _field_bytes(serial.solve())
    # a serial solve draws every entry's outputs from pool slot 0
    kinds = {entry[0] for entry in serial._plan}
    assert set(serial._out_pool) == {(kind, 0) for kind in kinds}
    assert _field_bytes(serial.solve()) == first
    assert set(serial._out_pool) == {(kind, 0) for kind in kinds}
    for executor in (ExecutionEngine(), engine):
        assert _field_bytes(build().solve(executor=executor)) == first
    return serial


@settings(max_examples=8, deadline=None)
@given(shape=st.sampled_from(UNIFORM_SHAPES), dens=densities)
def test_uniform_one_path_bit_identical(scheduler_engine, shape, dens):
    _check_one_path(_uniform_builder(shape, dens), scheduler_engine)


@settings(max_examples=5, deadline=None)
@given(picks=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=2),
       dens=densities)
def test_amr_one_path_bit_identical(scheduler_engine, picks, dens):
    solver = _check_one_path(_amr_builder(picks, dens), scheduler_engine)
    # the level set has leaf/refined boundaries: mixed-descent entries
    # pair cells of two different levels
    assert any(la is not lb for _kind, la, _a, lb, _b in solver._plan)
