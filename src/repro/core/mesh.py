"""Meshes: the driver layer that owns state, boundaries and gravity.

Two implementations with identical physics:

* :class:`Mesh` — one contiguous block.  This is the fast path for the
  verification problems (Sod, Sedov-Taylor, star equilibria) and small
  production runs; self-gravity comes from the FMM solver when the edge
  is ``8 * 2^L`` cells.

* :class:`BlockMesh` — the same domain tiled into 8^3 sub-grids (the
  paper's octree leaves at a fixed level, one multi-sub-grid node) with
  halo exchange through :class:`repro.runtime.Channel` objects,
  per-sub-grid hydro tasks and futurized FMM gravity dispatched through
  a :class:`repro.core.exec.ExecutionEngine` (work-stealing scheduler +
  GPU streams with CPU overflow) — the futurized execution style of
  Sec. 4.1/5.1/5.2.  The engine coalesces both the per-block RHS tasks
  and the FMM interaction batches into aggregated launches
  (:mod:`repro.runtime.aggregate`), so a step issues a handful of
  slot-buffer launches instead of hundreds of per-kernel ones.  Its
  results match :class:`Mesh` bit-for-bit given the same inputs
  (tested), demonstrating that the runtime integration "does not change
  the physics".

Boundary conditions: ``outflow`` (zero gradient), ``reflect`` (mirror,
normal momentum negated) and ``periodic``.

After a step, ``mesh.phi`` always holds the potential of the *current*
(post-step) density: the closing gravity solve of step N doubles as the
first-stage solve of step N+1 (the density is unchanged in between, so
the solve is reused, keeping the cost at two solves per step).
"""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np

from ..runtime.counters import default_registry
from ..sanitize import racecheck as _racecheck
from ..sanitize import state as _sanitize_state
from .eos import IdealGas
from .grid import EGAS, LX, NF, NGHOST, RHO, SUBGRID_N, SX, TAU
from .gravity.fmm import FmmSolver
from .hydro.solver import HydroOptions, apply_floors, cfl_dt, compute_rhs
from .workspace import Workspace

__all__ = ["Mesh", "BlockMesh", "apply_boundary"]


def _conserved_totals(I: np.ndarray, dx: float,
                      origin: tuple[float, float, float],
                      phi: np.ndarray | None) -> dict:
    """Mass, momentum, gas energy, angular momentum of an interior array."""
    v = dx ** 3
    ax = [origin[d] + (np.arange(I.shape[1 + d]) + 0.5) * dx
          for d in range(3)]
    x, y, z = (ax[0][:, None, None], ax[1][None, :, None],
               ax[2][None, None, :])
    mom = np.array([I[SX].sum(), I[SX + 1].sum(), I[SX + 2].sum()]) * v
    lz = ((x * I[SX + 1] - y * I[SX]).sum() + I[LX + 2].sum()) * v
    lx = ((y * I[SX + 2] - z * I[SX + 1]).sum() + I[LX].sum()) * v
    ly = ((z * I[SX] - x * I[SX + 2]).sum() + I[LX + 1].sum()) * v
    out = {
        "mass": float(I[RHO].sum()) * v,
        "momentum": mom,
        "egas": float(I[EGAS].sum()) * v,
        "angular_momentum": np.array([lx, ly, lz]),
    }
    if phi is not None:
        out["etot"] = out["egas"] + 0.5 * float(
            (I[RHO] * phi).sum()) * v
    return out


def _uniform_acc(solver: FmmSolver, rho: np.ndarray, engine
                 ) -> tuple[np.ndarray, np.ndarray]:
    """One gravity solve on a uniform density grid: (phi, acc (3,n,n,n))."""
    depth = solver._uniform_shape[0]
    solver.set_leaf_density({depth: rho})
    phi, acc = solver.uniform_field(solver.solve(executor=engine))
    return phi, np.moveaxis(acc, -1, 0)

_BCS = ("outflow", "reflect", "periodic")


def apply_boundary(U: np.ndarray, bc: str) -> None:
    """Fill the ghost shell of a block according to ``bc``."""
    if bc not in _BCS:
        raise ValueError(f"unknown boundary condition {bc!r}")
    g = NGHOST
    for axis in range(3):
        n = U.shape[1 + axis] - 2 * g

        def sl(a, b):
            s = [slice(None)] * 4
            s[1 + axis] = slice(a, b)
            return tuple(s)

        if bc == "periodic":
            U[sl(0, g)] = U[sl(n, n + g)]
            U[sl(n + g, n + 2 * g)] = U[sl(g, 2 * g)]
        elif bc == "outflow":
            U[sl(0, g)] = U[sl(g, g + 1)]
            U[sl(n + g, n + 2 * g)] = U[sl(n + g - 1, n + g)]
        else:  # reflect
            for k in range(g):
                U[sl(g - 1 - k, g - k)] = U[sl(g + k, g + k + 1)]
                U[sl(n + g + k, n + g + k + 1)] = \
                    U[sl(n + g - 1 - k, n + g - k)]
            U[(SX + axis,) + sl(0, g)[1:]] *= -1.0
            U[(SX + axis,) + sl(n + g, n + 2 * g)[1:]] *= -1.0


class Mesh:
    """A single uniform block with optional FMM self-gravity.

    Parameters
    ----------
    n:
        Cells per edge.
    domain:
        Physical edge length (cube); the lower corner sits at ``origin``.
    bc:
        Boundary condition name applied on all six faces.
    self_gravity:
        Solve gravity with the FMM each step (requires ``n = 8 * 2^L``).
    engine:
        Optional :class:`repro.core.exec.ExecutionEngine`; gravity
        solves then dispatch their interaction batches through it
        (futurized, bit-identical to serial).
    """

    def __init__(self, n: int | tuple[int, int, int], domain: float = 1.0,
                 origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
                 options: HydroOptions | None = None, bc: str = "outflow",
                 self_gravity: bool = False, engine=None):
        if bc not in _BCS:
            raise ValueError(f"unknown boundary condition {bc!r}")
        self.shape = (n, n, n) if isinstance(n, int) else tuple(n)
        self.n = self.shape[0]
        self.domain = float(domain)
        self.origin = tuple(float(c) for c in origin)
        self.dx = self.domain / self.shape[0]
        self.options = options or HydroOptions(eos=IdealGas())
        self.bc = bc
        self.self_gravity = self_gravity
        self.engine = engine
        if self_gravity and len(set(self.shape)) != 1:
            raise ValueError("self-gravity requires a cubic mesh")
        dims = tuple(s + 2 * NGHOST for s in self.shape)
        self.U = np.zeros((NF,) + dims)
        self.time = 0.0
        self.steps = 0
        self.phi: np.ndarray | None = None
        self._solver: FmmSolver | None = None
        # reusable contiguous-density staging buffer plus the end-of-step
        # gravity cache (acc + the density it was solved for): step N's
        # closing solve is step N+1's first-stage solve
        self._rho_buf: np.ndarray | None = None
        self._grav_rho: np.ndarray | None = None
        self._grav_acc: np.ndarray | None = None
        # kernel scratch: primitive block, face states, fluxes, stage
        # RHS/predictor buffers all live here and are reused every step
        self._ws = Workspace()

    # -- geometry / views --------------------------------------------------------

    @property
    def interior(self) -> np.ndarray:
        g = NGHOST
        return self.U[:, g:g + self.shape[0], g:g + self.shape[1],
                      g:g + self.shape[2]]

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ax = [self.origin[d] + (np.arange(self.shape[d]) + 0.5) * self.dx
              for d in range(3)]
        return (ax[0][:, None, None], ax[1][None, :, None],
                ax[2][None, None, :])

    # -- state setup --------------------------------------------------------------

    def load_primitives(self, rho, vx, vy, vz, p) -> None:
        """Initialize conserved state from primitive fields (broadcastable)."""
        eos = self.options.eos
        I = self.interior
        shape = I.shape[1:]
        rho = np.broadcast_to(np.asarray(rho, float), shape)
        I[RHO] = rho
        for d, v in enumerate((vx, vy, vz)):
            I[SX + d] = rho * np.broadcast_to(np.asarray(v, float), shape)
        p = np.broadcast_to(np.asarray(p, float), shape)
        eint = p / (eos.gamma - 1.0)
        kin = 0.5 * (I[SX] ** 2 + I[SX + 1] ** 2 + I[SX + 2] ** 2) \
            / np.maximum(rho, self.options.rho_floor)
        I[EGAS] = eint + kin
        I[TAU] = eos.tau_from_eint(eint)

    # -- gravity -------------------------------------------------------------------

    def _rho_contig(self, field: np.ndarray) -> np.ndarray:
        """Copy a strided interior field into the reusable staging buffer
        (the solver wants a contiguous cubic grid; reallocating one per
        stage was pure churn)."""
        if self._rho_buf is None:
            self._rho_buf = np.empty(self.shape)
        np.copyto(self._rho_buf, field)
        return self._rho_buf

    def solve_gravity(self) -> np.ndarray:
        """FMM solve; returns acceleration (3, n, n, n), stores phi."""
        rho = self._rho_contig(self.interior[RHO])
        if self._solver is None:
            self._solver = FmmSolver.from_uniform(rho, self.dx,
                                                  subgrid_n=SUBGRID_N)
        phi, acc = _uniform_acc(self._solver, rho, self.engine)
        self.phi = phi
        return acc

    def _gravity_for_state(self) -> np.ndarray:
        """Acceleration for the current density, reusing the end-of-step
        solve when the density has not changed since (bit-identical to a
        fresh solve: same solver, same recorded plan, same input)."""
        if self._grav_rho is not None and np.array_equal(
                self._grav_rho, self.interior[RHO]):
            return self._grav_acc
        return self.solve_gravity()

    def _close_step_gravity(self) -> None:
        """Fresh post-step solve: ``phi`` matches the final density, and
        the acceleration is cached for the next step's first stage."""
        self._grav_acc = self.solve_gravity()
        # the staging buffer now holds the post-step density; swap it into
        # the cache slot instead of copying (double-buffering)
        self._grav_rho, self._rho_buf = self._rho_buf, self._grav_rho

    # -- stepping ----------------------------------------------------------------------

    def fill_ghosts(self, U: np.ndarray | None = None) -> None:
        apply_boundary(self.U if U is None else U, self.bc)

    def compute_dt(self) -> float:
        self.fill_ghosts()
        return cfl_dt(self.U, self.dx, self.options, ws=self._ws)

    def step(self, dt: float | None = None) -> float:
        """One SSP-RK2 step; returns the dt used."""
        if dt is None:
            dt = self.compute_dt()
        g = NGHOST
        inner = (slice(None),) + tuple(
            slice(g, g + self.shape[d]) for d in range(3))
        gravity = self._gravity_for_state() if self.self_gravity else None
        self.fill_ghosts()
        ws = self._ws
        k1 = compute_rhs(self.U, self.dx, self.options, self.origin, gravity,
                         out=ws.buf("step:k1", (NF,) + self.shape), ws=ws)
        U1 = ws.buf("step:U1", self.U.shape)
        np.copyto(U1, self.U)
        U1[inner] += dt * k1
        self._floors(U1[inner])
        apply_boundary(U1, self.bc)
        if self.self_gravity:
            _, gravity = _uniform_acc(
                self._solver, self._rho_contig(U1[inner][RHO]), self.engine)
        k2 = compute_rhs(U1, self.dx, self.options, self.origin, gravity,
                         out=ws.buf("step:k2", (NF,) + self.shape), ws=ws)
        self.U[inner] += 0.5 * dt * (k1 + k2)
        self._floors(self.interior)
        self._sync_tau()
        if self.self_gravity:
            self._close_step_gravity()
        self.time += dt
        self.steps += 1
        default_registry().increment("/hydro/steps")
        return dt

    def _floors(self, I: np.ndarray) -> None:
        apply_floors(I, self.options)

    def _sync_tau(self) -> None:
        I = self.interior
        eos = self.options.eos
        I[TAU] = eos.sync_tau(I[RHO], I[SX], I[SX + 1], I[SX + 2],
                              I[EGAS], I[TAU])

    # -- diagnostics ------------------------------------------------------------

    def conserved_totals(self) -> dict[str, float | np.ndarray]:
        """Mass, momentum, gas energy, total angular momentum (+spin)."""
        return _conserved_totals(self.interior, self.dx, self.origin,
                                 self.phi)


class BlockMesh:
    """The same physics tiled into 8^3 sub-grids with channel halos.

    Each sub-grid is an HPX-component-like unit: per step and per stage
    it publishes its halo layers into per-neighbour channels and consumes
    its neighbours' futures, and its RHS evaluation runs as a task on a
    work-stealing scheduler when one is supplied — the paper's futurized
    execution (Sec. 4.1).  Physics is identical to :class:`Mesh`.

    With ``self_gravity=True`` (requires ``blocks_per_edge`` a power of
    two) one FMM solver is shared across all blocks: it is built once
    from the block geometry, its interaction lists are recorded on the
    first solve, and every stage re-sets only the leaf densities from the
    gathered block interiors.  Supplying a ``scheduler`` and/or
    ``device`` (wrapped into an :class:`repro.core.exec.ExecutionEngine`,
    or pass ``engine`` directly) futurizes both the per-block hydro RHS
    tasks and the FMM interaction batches — with a device, gravity
    kernels go to GPU streams and overflow to CPU workers under the
    paper's launch policy.  Serial and futurized runs are bit-identical.
    """

    def __init__(self, blocks_per_edge: int, domain: float = 1.0,
                 origin: tuple[float, float, float] = (0.0, 0.0, 0.0),
                 options: HydroOptions | None = None, bc: str = "outflow",
                 scheduler=None, device=None, engine=None,
                 self_gravity: bool = False):
        from ..runtime.channel import Channel
        self.bpe = blocks_per_edge
        self.nsub = SUBGRID_N
        self.n = blocks_per_edge * SUBGRID_N
        self.domain = float(domain)
        self.origin = tuple(float(c) for c in origin)
        self.dx = self.domain / self.n
        self.options = options or HydroOptions(eos=IdealGas())
        self.bc = bc
        if engine is None and (scheduler is not None or device is not None):
            from .exec import ExecutionEngine
            engine = ExecutionEngine(scheduler=scheduler, device=device)
        self.engine = engine
        self.scheduler = scheduler if scheduler is not None else (
            engine.scheduler if engine is not None else None)
        self.self_gravity = self_gravity
        if self_gravity and (blocks_per_edge & (blocks_per_edge - 1)):
            raise ValueError(
                "self-gravity needs blocks_per_edge = 2^k (the FMM level "
                "hierarchy must reach a single root sub-grid)")
        m = self.nsub + 2 * NGHOST
        self.blocks: dict[tuple[int, int, int], np.ndarray] = {}
        for ip in np.ndindex(self.bpe, self.bpe, self.bpe):
            self.blocks[ip] = np.zeros((NF, m, m, m))
        self.channels: dict = {}
        self._Channel = Channel
        self.time = 0.0
        self.steps = 0
        self.phi: np.ndarray | None = None
        self._solver: FmmSolver | None = None
        self._rho_buf: np.ndarray | None = None
        self._grav_rho: np.ndarray | None = None
        self._grav_acc: np.ndarray | None = None
        # per-step stage copies of every block, reused across steps
        self._stage: dict[tuple[int, int, int], np.ndarray] | None = None
        # kernel scratch (thread-local inside, so futurized per-block RHS
        # tasks on scheduler workers never alias) and the per-block stage
        # RHS output buffers, reused across steps
        self._ws = Workspace()
        self._rhs_out: dict[str, dict] = {}
        # halo topology is fixed: precompute the 26-offset list, the
        # neighbour pairs and their channels once instead of per stage
        self._offsets = [o for o in itertools.product((-1, 0, 1), repeat=3)
                         if o != (0, 0, 0)]
        self._halo_plan = self._build_halo_plan()

    # -- state interchange with a flat array ------------------------------------

    def load_interior(self, full: np.ndarray) -> None:
        """Scatter a (NF, n, n, n) interior into the sub-grid blocks."""
        g = NGHOST
        s = self.nsub
        for ip, blk in self.blocks.items():
            i, j, k = ip
            blk[:, g:g + s, g:g + s, g:g + s] = \
                full[:, i * s:(i + 1) * s, j * s:(j + 1) * s,
                     k * s:(k + 1) * s]

    def gather_interior(self) -> np.ndarray:
        g = NGHOST
        s = self.nsub
        full = np.zeros((NF, self.n, self.n, self.n))
        for ip, blk in self.blocks.items():
            i, j, k = ip
            full[:, i * s:(i + 1) * s, j * s:(j + 1) * s,
                 k * s:(k + 1) * s] = blk[:, g:g + s, g:g + s, g:g + s]
        return full

    # -- halo exchange through channels ---------------------------------------------

    def _channel(self, key):
        return self.channels.setdefault(key, self._Channel(name=str(key)))

    def _build_halo_plan(self):
        """Freeze the per-stage exchange: (ip, offset, channel) triples
        for every interior neighbour pair, receives and sends, with the
        channels created up front (they used to be key-tupled and looked
        up 26 times per block per stage)."""
        offsets = self._offsets
        recv, send = [], []
        for ip in self.blocks:
            for off in offsets:
                nb = (ip[0] + off[0], ip[1] + off[1], ip[2] + off[2])
                if nb in self.blocks:
                    mirror = (-off[0], -off[1], -off[2])
                    recv.append((ip, off, self._channel((nb, mirror))))
                    send.append((ip, off, self._channel((ip, off))))
        return recv, send

    def _halo_exchange(self, generation: int) -> None:
        """Publish and consume all halos for one stage via channels.

        Receives are posted first (futures), sends second, then futures
        are drained — the paper's "the receiving end may fetch futures ...
        the sending end may push data into [the channel] as it is
        generated" (Sec. 5.2).
        """
        recv, send = self._halo_plan
        pending = [(ip, off, ch.get(generation)) for ip, off, ch in recv]
        for ip, off, ch in send:
            ch.set(self._extract_halo(self.blocks[ip], off), generation)
        for ip, off, fut in pending:
            self._insert_halo(self.blocks[ip], off, fut.get())
        for ip, blk in self.blocks.items():
            self._physical_boundary(ip, blk)

    def _extract_halo(self, blk: np.ndarray, off: tuple[int, int, int]
                      ) -> np.ndarray:
        """Interior layer a neighbour at ``off`` needs (from the sender)."""
        g = NGHOST
        s = self.nsub
        if _sanitize_state.ACTIVE:
            _racecheck.access(blk, "r", owner="halo/src-block")
        sl = [slice(None)]
        for d in range(3):
            if off[d] == -1:
                sl.append(slice(g, 2 * g))
            elif off[d] == 1:
                sl.append(slice(g + s - g, g + s))
            else:
                sl.append(slice(g, g + s))
        return blk[tuple(sl)].copy()

    def _insert_halo(self, blk: np.ndarray, off: tuple[int, int, int],
                     data: np.ndarray) -> None:
        """Write a received halo from the neighbour at ``off``."""
        g = NGHOST
        s = self.nsub
        if _sanitize_state.ACTIVE:
            _racecheck.access(data, "r", owner="halo/payload")
            _racecheck.access(blk, "w", owner="halo/dst-block")
        sl = [slice(None)]
        for d in range(3):
            if off[d] == 1:
                sl.append(slice(g + s, g + s + g))
            elif off[d] == -1:
                sl.append(slice(0, g))
            else:
                sl.append(slice(g, g + s))
        blk[tuple(sl)] = data

    def _periodic_wraps(self, ip) -> list[tuple[tuple[int, int, int],
                                                tuple[int, int, int]]]:
        """``(offset, source block)`` pairs for ghost regions of ``ip``
        that cross the periodic seam — every one of the 26 offsets whose
        neighbour falls outside the block lattice, wrapped coordinate-wise.
        Face, edge *and* corner regions are all covered; the data each one
        needs is the wrapped block's interior layer facing back at us
        (the mirror of the offset), exactly as a channel neighbour would
        have published it."""
        wraps = []
        for off in self._offsets:
            nb = (ip[0] + off[0], ip[1] + off[1], ip[2] + off[2])
            if nb in self.blocks:
                continue
            src_ip = tuple((ip[d] + off[d]) % self.bpe for d in range(3))
            wraps.append((off, src_ip))
        return wraps

    def _physical_boundary(self, ip, blk) -> None:
        """Apply the domain BC on faces without neighbours."""
        g = NGHOST
        s = self.nsub
        if self.bc == "periodic":
            # wrap ALL out-of-lattice offsets (faces, edges, corners):
            # the old per-axis loop wrapped only the six face offsets and
            # copied the wrong side of the source block — the axis-sweep
            # reconstruction never read the stale edge/corner ghosts, but
            # per-neighbour distributed halos do
            for off, src_ip in self._periodic_wraps(ip):
                mirror = (-off[0], -off[1], -off[2])
                self._insert_halo(blk, off,
                                  self._extract_halo(self.blocks[src_ip],
                                                     mirror))
            return
        for axis in range(3):
            for side in (-1, 1):
                nb = list(ip)
                nb[axis] += side
                if 0 <= nb[axis] < self.bpe:
                    continue
                # fill by copying the edge interior layer (outflow) or
                # mirroring (reflect)
                sl = [slice(None)] * 4
                if side == -1:
                    for k in range(g):
                        dst = sl.copy()
                        dst[1 + axis] = slice(g - 1 - k, g - k)
                        srcs = sl.copy()
                        srci = g if self.bc == "outflow" else g + k
                        srcs[1 + axis] = slice(srci, srci + 1)
                        blk[tuple(dst)] = blk[tuple(srcs)]
                    if self.bc == "reflect":
                        m = sl.copy()
                        m[0] = SX + axis
                        m[1 + axis] = slice(0, g)
                        blk[tuple(m)] *= -1.0
                else:
                    for k in range(g):
                        dst = sl.copy()
                        dst[1 + axis] = slice(g + s + k, g + s + k + 1)
                        srcs = sl.copy()
                        srci = g + s - 1 if self.bc == "outflow" \
                            else g + s - 1 - k
                        srcs[1 + axis] = slice(srci, srci + 1)
                        blk[tuple(dst)] = blk[tuple(srcs)]
                    if self.bc == "reflect":
                        m = sl.copy()
                        m[0] = SX + axis
                        m[1 + axis] = slice(g + s, g + s + g)
                        blk[tuple(m)] *= -1.0

    # -- stepping ------------------------------------------------------------------

    def _block_origin(self, ip) -> tuple[float, float, float]:
        s = self.nsub
        return tuple(self.origin[d] + ip[d] * s * self.dx for d in range(3))

    # -- gravity -------------------------------------------------------------------

    def _gather_rho(self) -> np.ndarray:
        """Gather block-interior densities into the reusable full grid."""
        if self._rho_buf is None:
            self._rho_buf = np.empty((self.n,) * 3)
        g = NGHOST
        s = self.nsub
        for ip, blk in self.blocks.items():
            i, j, k = ip
            self._rho_buf[i * s:(i + 1) * s, j * s:(j + 1) * s,
                          k * s:(k + 1) * s] = blk[RHO, g:g + s, g:g + s,
                                                   g:g + s]
        return self._rho_buf

    def solve_gravity(self, rho: np.ndarray | None = None) -> np.ndarray:
        """Shared-solver FMM solve over all blocks; returns (3, n, n, n).

        The solver is built once from the block geometry; subsequent
        solves only re-set leaf densities and replay the cached
        interaction lists (futurized through ``self.engine`` when set).
        """
        if not self.self_gravity:
            raise RuntimeError("BlockMesh built without self_gravity")
        if rho is None:
            rho = self._gather_rho()
        if self._solver is None:
            self._solver = FmmSolver.from_uniform(rho, self.dx,
                                                  subgrid_n=SUBGRID_N)
        phi, acc = _uniform_acc(self._solver, rho, self.engine)
        self.phi = phi
        return acc

    def _gravity_for_state(self) -> np.ndarray:
        """Current-density acceleration, reusing the end-of-step solve
        when nothing changed (see :meth:`Mesh._gravity_for_state`)."""
        rho = self._gather_rho()
        if self._grav_rho is not None and np.array_equal(
                self._grav_rho, rho):
            return self._grav_acc
        return self.solve_gravity(rho)

    def _close_step_gravity(self) -> None:
        self._grav_acc = self.solve_gravity()
        self._grav_rho, self._rho_buf = self._rho_buf, self._grav_rho

    def _block_gravity(self, gravity: np.ndarray | None, ip
                       ) -> np.ndarray | None:
        if gravity is None:
            return None
        i, j, k = ip
        s = self.nsub
        return gravity[:, i * s:(i + 1) * s, j * s:(j + 1) * s,
                       k * s:(k + 1) * s]

    # -- stepping ------------------------------------------------------------------

    def compute_dt(self) -> float:
        """CFL reduction over all blocks (min of per-block ``cfl_dt``)."""
        return min(cfl_dt(blk, self.dx, self.options, ws=self._ws)
                   for blk in self.blocks.values())

    def step(self, dt: float | None = None) -> float:
        """One SSP-RK2 step across all sub-grids (futurized when a
        scheduler/engine is present); returns the dt used."""
        if dt is None:
            dt = self.compute_dt()
        g = NGHOST
        s = self.nsub
        inner = (slice(None),) + (slice(g, g + s),) * 3
        gen = 2 * self.steps
        gravity = self._gravity_for_state() if self.self_gravity else None
        self._halo_exchange(gen)
        k1 = self._rhs_all(self.blocks, gravity, self._stage_out("k1"))
        if self._stage is None:
            self._stage = {ip: np.empty_like(blk)
                           for ip, blk in self.blocks.items()}
        stage = self._stage
        for ip, blk in self.blocks.items():
            np.copyto(stage[ip], blk)
            stage[ip][inner] += dt * k1[ip]
            apply_floors(stage[ip], self.options)
        saved, self.blocks = self.blocks, stage
        self._halo_exchange(gen + 1)
        if self.self_gravity:
            _, gravity = _uniform_acc(self._solver, self._gather_rho(),
                                      self.engine)
        k2 = self._rhs_all(self.blocks, gravity, self._stage_out("k2"))
        self.blocks = saved
        for ip, blk in self.blocks.items():
            blk[inner] += 0.5 * dt * (k1[ip] + k2[ip])
            apply_floors(blk, self.options)
            I = blk[inner]
            eos = self.options.eos
            I[TAU] = eos.sync_tau(I[RHO], I[SX], I[SX + 1], I[SX + 2],
                                  I[EGAS], I[TAU])
        if self.self_gravity:
            self._close_step_gravity()
        self.time += dt
        self.steps += 1
        default_registry().increment("/hydro/steps")
        return dt

    def _stage_out(self, stage: str) -> dict:
        """Per-block RHS output buffers for one RK stage (k1 and k2 must
        coexist, so each stage owns a dict), allocated once per mesh."""
        outs = self._rhs_out.get(stage)
        if outs is None:
            s = self.nsub
            outs = self._rhs_out[stage] = {
                ip: np.empty((NF, s, s, s)) for ip in self.blocks}
        return outs

    def _rhs_all(self, blocks, gravity: np.ndarray | None = None,
                 outs: dict | None = None) -> dict:
        # per-block RHS tasks stay on CPU workers (use_device=False): the
        # engine still chunks them into aggregation-region tasks, so the
        # scheduler sees slot-buffer granularity, not per-block tasks
        items = list(blocks.items())
        if outs is None:
            outs = {ip: None for ip, _ in items}
        if self.engine is None:
            return {ip: compute_rhs(blk, self.dx, self.options,
                                    self._block_origin(ip),
                                    self._block_gravity(gravity, ip),
                                    False, outs[ip], self._ws)
                    for ip, blk in items}
        futures = self.engine.map(
            compute_rhs,
            [(blk, self.dx, self.options, self._block_origin(ip),
              self._block_gravity(gravity, ip), False, outs[ip], self._ws)
             for ip, blk in items],
            use_device=False)
        return {ip: fut.get() for (ip, _), fut in zip(items, futures)}

    # -- rollback ----------------------------------------------------------------

    def on_restore(self) -> None:
        """Called by :class:`repro.resilience.checkpoint.CheckpointManager`
        after a rollback: halo channel generations are derived from the
        step counter, so the replayed steps would collide with consumed
        generations unless every channel forgets its history.  The gravity
        cache is also dropped — it holds post-fault state."""
        for ch in self.channels.values():
            ch.reset()
        self._grav_rho = None
        self._grav_acc = None

    # -- diagnostics ------------------------------------------------------------

    def conserved_totals(self) -> dict[str, float | np.ndarray]:
        """Mass, momentum, gas energy, total angular momentum (+spin)."""
        return _conserved_totals(self.gather_interior(), self.dx,
                                 self.origin, self.phi)
