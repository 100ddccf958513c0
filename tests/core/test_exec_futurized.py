"""Futurized execution engine: bit-identity with serial, counters, routing."""

import numpy as np
import pytest

from repro.core import BlockMesh, ConservationMonitor, ExecutionEngine
from repro.core.gravity.fmm import FmmSolver
from repro.core.scenario import equilibrium_star
from repro.runtime import CudaDevice, WorkStealingScheduler
from repro.runtime.counters import default_registry


def make_star_block(engine=None):
    star = equilibrium_star(n=16, domain=4.0)
    block = BlockMesh(blocks_per_edge=2, domain=star.domain,
                      origin=star.origin, options=star.options,
                      bc=star.bc, engine=engine, self_gravity=True)
    block.load_interior(star.interior.copy())
    return block


class TestEngineBasics:
    def test_no_resources_runs_inline_in_order(self):
        engine = ExecutionEngine()
        futs = engine.map(lambda x: x * x, [(i,) for i in range(8)])
        assert [f.get() for f in futs] == [i * i for i in range(8)]

    def test_exception_propagates_through_future(self):
        engine = ExecutionEngine()

        def boom(x):
            raise ValueError(f"bad {x}")

        fut = engine.submit(boom, 3)
        with pytest.raises(ValueError, match="bad 3"):
            fut.get()

    def test_scheduler_only_preserves_order(self):
        with WorkStealingScheduler(3) as sched:
            engine = ExecutionEngine(scheduler=sched)
            futs = engine.map(lambda x: x + 1, [(i,) for i in range(50)])
            assert [f.get() for f in futs] == list(range(1, 51))
            engine.synchronize()

    def test_device_routing_counts_launches(self):
        reg = default_registry()
        reg.reset()
        with CudaDevice(n_streams=2, n_workers=2, name="exec-gpu") as gpu:
            engine = ExecutionEngine(devices=[gpu])
            futs = engine.map(lambda x: -x, [(i,) for i in range(10)])
            assert [f.get() for f in futs] == [-i for i in range(10)]
            engine.synchronize()
        assert engine.gpu_launches + engine.cpu_launches == 10
        snap = reg.snapshot()
        assert snap.get("/cuda/launched/gpu", 0) == engine.gpu_launches
        assert snap.get("/exec/tasks") == 10.0

    def test_use_device_false_stays_on_cpu(self):
        with CudaDevice(n_streams=2, n_workers=2, name="exec-gpu2") as gpu:
            engine = ExecutionEngine(devices=[gpu])
            futs = engine.map(lambda x: x, [(i,) for i in range(5)],
                              use_device=False)
            assert [f.get() for f in futs] == list(range(5))
        assert engine.gpu_launches == 0


class TestFmmFuturized:
    def test_solver_executor_matches_serial_bitwise(self):
        rng = np.random.default_rng(7)
        rho = rng.uniform(0.1, 2.0, (16, 16, 16))
        serial = FmmSolver.from_uniform(rho, dx=0.1, subgrid_n=8)
        ref = serial.uniform_field(serial.solve())

        with WorkStealingScheduler(4) as sched, \
                CudaDevice(n_streams=4, n_workers=2, name="fmm-gpu") as gpu:
            engine = ExecutionEngine(scheduler=sched, devices=[gpu])
            fut = FmmSolver.from_uniform(rho, dx=0.1, subgrid_n=8)
            fut.solve(executor=engine)  # records the plan, then runs it
            got = fut.uniform_field(fut.solve(executor=engine))
            engine.synchronize()
        assert np.array_equal(got[0], ref[0])
        assert np.array_equal(got[1], ref[1])

    def test_futurized_solve_counted(self):
        reg = default_registry()
        reg.reset()
        rho = np.ones((8, 8, 8))
        solver = FmmSolver.from_uniform(rho, dx=0.1, subgrid_n=8)
        engine = ExecutionEngine()
        solver.solve(executor=engine)
        solver.solve(executor=engine)
        snap = reg.snapshot()
        assert snap.get("/fmm/solves") == 2.0
        # the recording solve runs its plan through the engine too
        assert snap.get("/fmm/solves-futurized") == 2.0


class TestBlockMeshFuturized:
    def test_five_steps_bit_identical_with_identical_drifts(self):
        reg = default_registry()
        reg.reset()
        serial = make_star_block()
        mon_s = ConservationMonitor()
        mon_s.sample(serial)
        for _ in range(5):
            serial.step()
            mon_s.sample(serial)

        with WorkStealingScheduler(4) as sched, \
                CudaDevice(n_streams=8, n_workers=4, name="fut-gpu") as gpu:
            engine = ExecutionEngine(scheduler=sched, devices=[gpu])
            fut = make_star_block(engine=engine)
            mon_f = ConservationMonitor()
            mon_f.sample(fut)
            for _ in range(5):
                fut.step()
                mon_f.sample(fut)
            engine.synchronize()
            snap = reg.snapshot()
            state_s = serial.gather_interior()
            state_f = fut.gather_interior()

        assert state_s.tobytes() == state_f.tobytes()
        assert np.array_equal(fut.phi, serial.phi)
        assert mon_f.report() == mon_s.report()
        # the futurized run really exercised the hot path
        assert snap.get("/cuda/launched/gpu", 0) > 0
        assert snap.get("/fmm/solves-futurized", 0) > 0
        assert engine.gpu_launches > 0
