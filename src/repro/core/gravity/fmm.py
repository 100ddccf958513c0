"""The three-step cell-based FMM gravity solver (Sec. 4.3).

Steps, exactly as the paper lays them out:

1. **Upward** (bottom-up tree traversal): leaf cells take their mass from
   the hydro density; every refined cell aggregates the multipole moments
   and centre of mass of its eight child cells (M2M).

2. **Same-level interactions**: each cell interacts with the neighbours
   selected by the opening criterion.  Our partition is parity-exact
   (see :mod:`.stencil`): a pair is processed by the multipole kernel at
   the coarsest level at which it is well separated; leaf-level pairs
   (near pairs, and far pairs between leaves, whose M2 = 0) go through
   the 12-flop monopole P2P kernel; near pairs between a leaf and a
   refined cell descend on the refined side (the paper's
   monopole-multipole / multipole-monopole AMR-boundary kernels).  On
   the finest level of a uniform grid the P2P pairs of one offset form a
   *shifted slab* of the dense grid with one constant separation, so that
   level runs as one stencil term per offset on dense arrays — the
   paper's Sec. 4.3 switch from interaction lists to stencils — while
   interior levels and adaptive grids keep Morton-matched pair lists.

3. **Downward** (top-down): Taylor expansions (potential, acceleration,
   Hessian) shift from parents to children (L2L) and accumulate.

Conservation comes from construction: every pair force is computed once
and applied antisymmetrically, and the Hessian term of the downward pass
realizes the quadrupole (tidal) torques on child cells, so total linear
and angular momentum of the resulting field are conserved to machine
precision (see ``tests/core/test_fmm.py`` and
``tests/core/test_fmm_slab.py``).

The implementation is struct-of-arrays NumPy throughout — per level, per
stencil offset, cells are matched by Morton-key ``searchsorted`` and whole
pair batches run through the vectorized kernels, mirroring the paper's
stencil-based SoA redesign of Sec. 4.3.

Step 2 depends only on the geometry, so the first solve *records* it as
a plan of pair batches and slab groups and computes nothing while doing
so.  Every solve, the first included, then runs that plan through one
compute path: :meth:`FmmSolver._compute_entry` (tiled pair kernels, or
slab terms into a dense output) followed by in-order accumulation on
the calling thread.  A serial solve is that loop run inline, one entry
at a time; an :class:`~repro.core.exec.ExecutionEngine` only changes
where the entries are computed, never the bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ...runtime.counters import default_registry
from ...sanitize import racecheck as _racecheck
from ...sanitize import state as _sanitize_state
from ...util import morton_key
from .kernels import m2l_pair, p2p_pair, p2p_pair_staged
from .multipole import aggregate_m2m, taylor_shift
from .stencil import (OPENING_R2, canonical_stencil, p2p_stencil,
                      parity_stencils, root_stencil)

__all__ = ["FmmLevel", "FmmSolver", "GravityResult"]

_TINY = 1e-300


@dataclass
class FmmLevel:
    """All FMM cells of one octree level, Morton-sorted SoA."""

    level: int
    width: float                      # cell width
    coords: np.ndarray                # (n, 3) int64, Morton-sorted
    leaf: np.ndarray                  # (n,) bool
    keys: np.ndarray = field(init=False)
    # multipole data
    m: np.ndarray = field(init=False)
    com: np.ndarray = field(init=False)
    M2: np.ndarray = field(init=False)
    # Taylor accumulators
    phi: np.ndarray = field(init=False)
    acc: np.ndarray = field(init=False)
    hess: np.ndarray = field(init=False)
    parent_slot: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = len(self.coords)
        self.keys = morton_key(self.coords)
        if not np.all(np.diff(self.keys.astype(np.int64)) > 0):
            raise ValueError("level cells must be Morton-sorted and unique")
        self.m = np.zeros(n)
        self.com = np.zeros((n, 3))
        self.M2 = np.zeros((n, 3, 3))
        self.phi = np.zeros(n)
        self.acc = np.zeros((n, 3))
        self.hess = np.zeros((n, 3, 3))

    @property
    def n(self) -> int:
        return len(self.coords)

    def centers(self) -> np.ndarray:
        """Geometric cell centres (domain corner at the origin)."""
        return (self.coords + 0.5) * self.width

    def find(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Locate cells by integer coordinates: (slots, found mask)."""
        keys = morton_key(coords)
        pos = np.searchsorted(self.keys, keys)
        pos = np.minimum(pos, self.n - 1)
        found = self.keys[pos] == keys
        return pos, found


@dataclass(frozen=True)
class GravityResult:
    """Leaf-cell gravitational field, grouped per level."""

    phi: dict[int, np.ndarray]        # level -> (n_leaf_cells,)
    acc: dict[int, np.ndarray]        # level -> (n_leaf_cells, 3)
    leaf_slots: dict[int, np.ndarray]  # level -> slots into the level SoA


@lru_cache(maxsize=1)
def _parity_offset_table() -> tuple[np.ndarray, np.ndarray]:
    """Union of the parity M2L lists (lex-positive) plus a per-offset map
    of which parities use it."""
    par_lists = parity_stencils()
    union = {tuple(w) for lst in par_lists.values() for w in lst}
    offsets = _lex_positive(np.array(sorted(union), dtype=np.int64))
    sets = {p: {tuple(w) for w in lst} for p, lst in par_lists.items()}
    par_ok = np.zeros((len(offsets), 8), dtype=bool)
    for wi, w in enumerate(offsets):
        tw = tuple(int(c) for c in w)
        for p, lst in sets.items():
            par_ok[wi, (p[0] << 2) | (p[1] << 1) | p[2]] = tw in lst
    return offsets, par_ok


def _lex_positive(offsets: np.ndarray) -> np.ndarray:
    """Keep one representative of every {w, -w} pair (w lexicographically
    greater than zero)."""
    w = offsets
    key = (w[:, 0] > 0) | ((w[:, 0] == 0) & (w[:, 1] > 0)) \
        | ((w[:, 0] == 0) & (w[:, 1] == 0) & (w[:, 2] > 0))
    return w[key]


def _accumulate(lv: FmmLevel, idx: np.ndarray, phi: np.ndarray,
                acc: np.ndarray, hess: np.ndarray | None) -> None:
    """Scatter-add pair contributions (bincount: much faster than add.at)."""
    n = lv.n
    lv.phi += np.bincount(idx, weights=phi, minlength=n)
    for d in range(3):
        lv.acc[:, d] += np.bincount(idx, weights=acc[:, d], minlength=n)
    if hess is not None:
        for i in range(3):
            for j in range(i, 3):
                h = np.bincount(idx, weights=hess[:, i, j], minlength=n)
                lv.hess[:, i, j] += h
                if i != j:
                    lv.hess[:, j, i] += h


class FmmSolver:
    """Gravity solve over a hierarchy of FMM levels.

    Build with :meth:`from_uniform` (a single fine grid, coarser levels
    derived) or :meth:`from_levels` (adaptive cell sets).  Units: G = 1.
    """

    def __init__(self, levels: list[FmmLevel]):
        if not levels:
            raise ValueError("need at least one level")
        self.levels = levels
        self._link_parents()
        # interaction pair batches depend only on geometry: the first
        # solve records them as the plan, every solve runs the plan (Mesh
        # re-solves gravity every hydro stage on a fixed grid)
        self._plan: list[tuple] | None = None
        # set by from_uniform: (leaf depth, grid edge)
        self._uniform_shape: tuple[int, int] | None = None
        # slab leaf P2P of a uniform solver (see _record_slabs): Morton
        # slot -> flat grid cell, per-parity-subset cell masks and the
        # per-solve masked leaf masses
        self._slab_cells: np.ndarray | None = None
        self._slab_masks: np.ndarray | None = None
        self._slab_mass: np.ndarray | None = None
        # per-entry output pool, keyed by (kind, chunk slot): _run_plan
        # fully accumulates each computed chunk before computing the
        # next, so slot j's buffers are free again by the time the next
        # chunk's entry j starts computing (a serial solve uses slot 0)
        self._out_pool: dict[tuple[str, int], tuple[np.ndarray, ...]] = {}

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_uniform(cls, rho: np.ndarray, dx: float,
                     subgrid_n: int = 8) -> "FmmSolver":
        """Solver for a uniform (M, M, M) density grid, M = subgrid_n * 2^L.

        Builds the full level hierarchy; only the finest level is leaf.
        """
        M = rho.shape[0]
        if rho.shape != (M, M, M):
            raise ValueError("density grid must be cubic")
        depth = 0
        while subgrid_n * (1 << depth) < M:
            depth += 1
        if subgrid_n * (1 << depth) != M:
            raise ValueError(
                f"grid edge {M} is not {subgrid_n} * 2^L for any L")
        levels: list[FmmLevel] = []
        for lvl in range(depth + 1):
            edge = subgrid_n * (1 << lvl)
            g = np.arange(edge, dtype=np.int64)
            coords = np.stack(np.meshgrid(g, g, g, indexing="ij"),
                              axis=-1).reshape(-1, 3)
            order = np.argsort(morton_key(coords), kind="stable")
            coords = coords[order]
            leaf = np.full(len(coords), lvl == depth)
            levels.append(FmmLevel(level=lvl, width=dx * (M // edge),
                                   coords=coords, leaf=leaf))
        solver = cls(levels)
        solver.set_leaf_density({depth: rho})
        solver._uniform_shape = (depth, M)
        return solver

    @classmethod
    def from_levels(cls, specs: list[tuple[int, float, np.ndarray, np.ndarray]]
                    ) -> "FmmSolver":
        """Adaptive solver from (level, width, coords, leaf_mask) specs."""
        levels = []
        for lvl, width, coords, leaf in specs:
            order = np.argsort(morton_key(coords), kind="stable")
            levels.append(FmmLevel(level=lvl, width=width,
                                   coords=coords[order], leaf=leaf[order]))
        return cls(levels)

    def _link_parents(self) -> None:
        for lvl in range(1, len(self.levels)):
            child = self.levels[lvl]
            parent = self.levels[lvl - 1]
            slots, found = parent.find(child.coords >> 1)
            if not found.all():
                raise ValueError(
                    f"level {lvl} has cells without a parent at {lvl - 1}")
            child.parent_slot = slots

    # -- state input -------------------------------------------------------------

    def set_leaf_density(self, rho_by_level: dict[int, np.ndarray]) -> None:
        """Assign leaf-cell masses from densities.

        ``rho_by_level[l]`` is either a flat array over that level's leaf
        cells (in the level's Morton order) or, for a fully-leaf uniform
        level, a cubic grid indexed by integer coordinates.
        """
        for lvl_obj in self.levels:
            mask = lvl_obj.leaf
            if not mask.any():
                continue
            rho = rho_by_level.get(lvl_obj.level)
            if rho is None:
                raise ValueError(f"missing density for level {lvl_obj.level}")
            rho = np.asarray(rho, dtype=np.float64)
            if rho.ndim == 3:
                c = lvl_obj.coords[mask]
                vals = rho[c[:, 0], c[:, 1], c[:, 2]]
            else:
                vals = rho
            if not np.isfinite(vals).all():
                raise ValueError("non-finite density")
            if np.any(vals < 0):
                raise ValueError("negative density")
            vol = lvl_obj.width ** 3
            lvl_obj.m[mask] = vals * vol
            lvl_obj.com[mask] = lvl_obj.centers()[mask]
            lvl_obj.M2[mask] = 0.0

    # -- the three FMM steps -----------------------------------------------------

    def solve(self, executor=None) -> GravityResult:
        """Run the three FMM steps; returns the leaf field.

        The first solve records the geometry-dependent plan of pair
        batches without computing any of them (see :meth:`_same_level`).
        Every solve, the first included, then runs the plan through one
        path, :meth:`_run_plan`: each entry is computed by
        :meth:`_compute_entry` and *accumulated* on the calling thread in
        recorded order.

        ``executor=None`` computes the entries inline, one at a time.
        ``executor`` is an optional
        :class:`~repro.core.exec.ExecutionEngine`: the entries are then
        dispatched as independent tasks onto scheduler workers and (when
        the engine holds a device) coalesced into aggregated launches on
        GPU streams with CPU overflow — the paper's futurized
        per-subgrid gravity (Sec. 5.1) plus the work-aggregation layer
        (arXiv 2210.06438).  Only the placement of the computation
        changes, so a futurized solve is bit-identical to a serial one.
        """
        reg = default_registry()
        reg.increment("/fmm/solves")
        self._reset_taylor()
        self._upward()
        if self._plan is None:
            self._plan = []
            self._same_level()
        self._mask_slab_mass()
        if executor is not None:
            reg.increment("/fmm/solves-futurized")
        self._run_plan(executor)
        self._downward()
        return self._collect()

    #: pair-tile size of the compute path.  A recorded M2L batch of
    #: ~250k pairs churns hundreds of MB of Green-function temporaries
    #: (``g3`` alone is 216 B/pair); running the kernel over cache-sized
    #: sub-batches keeps the temporaries resident and is measurably
    #: faster on the same flops.  All pair kernels are elementwise along
    #: the pair axis, so tiling is bitwise identical to the one-shot
    #: call.
    _TILE = 16384

    @staticmethod
    def _run_tiled(kernel, tile_args, outs):
        """Run an elementwise pair ``kernel`` in :attr:`_TILE`-sized
        sub-batches; ``tile_args(sl)`` gathers one tile's inputs.

        Gathering *per tile* (rather than the whole batch up front)
        keeps each gathered tile cache-resident through the kernel
        call.  Every tile writes its results straight into slices of
        the preallocated batch outputs ``outs`` via the kernels'
        ``out=`` parameter — no per-tile result lists, no concatenate.
        """
        tile = FmmSolver._TILE
        n = len(outs[0])
        if _sanitize_state.ACTIVE:
            # whole-batch write declaration for the (possibly pooled)
            # output buffers this task is about to fill
            for o in outs:
                _racecheck.access(o, "w", owner="fmm/pair-out")
        for lo in range(0, n, tile):
            sl = slice(lo, min(lo + tile, n))
            kernel(*tile_args(sl), out=tuple(o[sl] for o in outs))
        return outs

    def _pool_out(self, kind: str, slot: int, n: int
                  ) -> tuple[np.ndarray, ...]:
        """Per-entry output buffers for chunk slot ``slot``.

        Pair kinds get capacity-grown ``(n, ...)`` outputs; ``"slab"``
        gets the dense ``(4, n, n, n)`` phi/acc output of an edge-``n``
        grid plus the kernel's product scratch.

        The pool is NOT thread-local: slot ``j``'s buffers are written
        by whichever worker computes a chunk's ``j``-th entry and read
        by the accumulating thread, which finishes the whole chunk
        before the next one is computed — so distinct in-flight entries
        never share a slot and reuse across chunks is safe.  A serial
        solve is a run of one-entry chunks and only ever touches slot 0.
        """
        key = (kind, slot)
        cur = self._out_pool.get(key)
        if kind == "slab":
            if cur is None:
                cur = self._out_pool[key] = (np.empty((4, n, n, n)),
                                             np.empty(4 * n ** 3))
            return cur
        trailing = ((), (), (3,), (3,)) if kind == "p2p" \
            else ((), (), (3,), (3,), (3, 3), (3, 3))
        if cur is None or len(cur[0]) < n:
            cur = tuple(np.empty((n,) + t) for t in trailing)
            self._out_pool[key] = cur
        return tuple(o[:n] for o in cur)

    def _compute_entry(self, i: int, slot: int):
        """Pure compute half of plan entry ``i`` (engine task).

        Pair entries run their kernel tiled with per-tile gathers (see
        :attr:`_TILE` and :meth:`_run_tiled`); a slab entry sums its
        offsets' slab terms into a zeroed dense output (see
        :meth:`_record_slabs`).  Either way the results land in the pool
        buffers of ``slot``, the entry's position within its chunk (see
        :meth:`_pool_out`).  No accumulation happens here, so entries
        are safe to compute concurrently and in any order.
        """
        kind, la, a, lb, b = self._plan[i]
        if kind == "slab":
            out, scratch = self._pool_out(kind, slot, self._uniform_shape[1])
            if _sanitize_state.ACTIVE:
                _racecheck.access(out, "w", owner="fmm/pair-out")
                _racecheck.access(scratch, "w", owner="fmm/pair-out")
            out.fill(0.0)
            mass = self._slab_mass
            for ma, mb, oa, ob, green in a:
                out_a = out[oa]
                p2p_pair_staged(mass[ma], mass[mb], green,
                                out=(out_a, out[ob]),
                                tmp=scratch[:out_a.size].reshape(out_a.shape))
            return (out,)
        outs = self._pool_out(kind, slot, len(a))
        if kind == "m2l":
            def tile_args(sl):
                at, bt = a[sl], b[sl]
                return (la.com[at] - lb.com[bt],
                        np.maximum(la.m[at], _TINY),
                        np.maximum(lb.m[bt], _TINY),
                        la.M2[at], lb.M2[bt])
            return self._run_tiled(m2l_pair, tile_args, outs)

        def tile_args(sl):
            at, bt = a[sl], b[sl]
            return (la.com[at] - lb.com[bt],
                    np.maximum(la.m[at], _TINY),
                    np.maximum(lb.m[bt], _TINY))
        return self._run_tiled(p2p_pair, tile_args, outs)

    def _run_plan(self, engine) -> None:
        """Compute every plan entry and accumulate it in recorded order.

        Without an engine each entry is computed inline into pool slot
        0 and accumulated before the next one is computed, so a serial
        solve holds one entry's outputs at a time.  With an engine each
        slot-buffer-sized chunk of entries is dispatched as tasks that
        the engine coalesces into one aggregated stream launch.  Chunks
        are dispatched **one at a time**, each fully scatter-accumulated
        before the next is issued: a chunk of large batches produces
        hundreds of MB of kernel output, and letting multiple chunks
        compute or queue concurrently costs more in cache/memory
        traffic than the overlap buys back (time-sliced on a busy host,
        two in-flight aggregated ops simply evict each other).
        Accumulation always runs here, in plan order, so the result is
        byte-identical however the entries were placed, aggregated or
        interleaved.
        """
        n = len(self._plan)
        if engine is None:
            for i in range(n):
                self._accumulate_entry(i, self._compute_entry(i, 0))
            return
        chunk = max(int(getattr(engine, "agg_slots", 1)), 1)
        for lo in range(0, n, chunk):
            hi = min(n, lo + chunk)
            futs = engine.map(self._compute_entry,
                              [(i, j) for j, i in enumerate(range(lo, hi))])
            for j, i in enumerate(range(lo, hi)):
                out = futs[j].get()
                futs[j] = None  # release the output once accumulated
                self._accumulate_entry(i, out)
                del out

    def _accumulate_entry(self, i: int, out: tuple[np.ndarray, ...]
                          ) -> None:
        """Add the computed outputs of plan entry ``i`` to its levels."""
        kind, la, a, lb, b = self._plan[i]
        if _sanitize_state.ACTIVE:
            # the future's resolution edge orders these reads after the
            # computing worker's writes; slot reuse in the next chunk is
            # ordered through the re-dispatch
            for o in out:
                _racecheck.access(o, "r", owner="fmm/pair-out")
        reg = default_registry()
        if kind == "slab":
            reg.increment("/fmm/interactions/monopole", b)
            grid = out[0].reshape(4, -1).take(self._slab_cells, axis=1)
            la.phi += grid[0]
            la.acc += grid[1:].T
            return
        if kind == "m2l":
            reg.increment("/fmm/interactions/multipole", len(a))
            phiA, phiB, accA, accB, HA, HB = out
        else:
            reg.increment("/fmm/interactions/monopole", len(a))
            phiA, phiB, accA, accB = out
            HA = HB = None
        _accumulate(la, a, phiA, accA, HA)
        _accumulate(lb, b, phiB, accB, HB)

    def _reset_taylor(self) -> None:
        for lv in self.levels:
            lv.phi[:] = 0.0
            lv.acc[:] = 0.0
            lv.hess[:] = 0.0

    def _upward(self) -> None:
        """Step 1: M2M aggregation, finest to coarsest."""
        for lvl in range(len(self.levels) - 1, 0, -1):
            child = self.levels[lvl]
            parent = self.levels[lvl - 1]
            interior = ~parent.leaf
            if not interior.any():
                continue
            m, com, M2 = aggregate_m2m(child.m, child.com, child.M2,
                                       child.parent_slot, parent.n)
            parent.m[interior] = m[interior]
            parent.com[interior] = com[interior]
            parent.M2[interior] = M2[interior]

    # -- step 2: same-level + near-field -------------------------------------------

    def _same_level(self) -> None:
        """Record the same-level and near-field pair batches as the plan.

        Nothing is computed here: :meth:`_apply_m2l` and
        :meth:`_apply_p2p` only validate and append batches,
        :meth:`_record_slabs` appends the uniform leaf level's slab
        groups, and :meth:`_run_plan` computes them on every solve.
        """
        mixed: list[tuple[int, np.ndarray, int, np.ndarray]] = []
        # every well-separated pair of the coarsest level's box
        root_offsets = _lex_positive(
            root_stencil(int(self.levels[0].coords.max()) + 1))
        offsets_p, par_ok = _parity_offset_table()
        slab_level = None if self._uniform_shape is None \
            else self._uniform_shape[0]
        for li, lv in enumerate(self.levels):
            far, far_ok = (root_offsets, None) if li == 0 \
                else (offsets_p, par_ok)
            if li == slab_level:
                self._record_slabs(lv, far, far_ok)
                continue
            par_code = ((lv.coords[:, 0] & 1) << 2) \
                | ((lv.coords[:, 1] & 1) << 1) | (lv.coords[:, 2] & 1)
            self._m2l_offsets(lv, far, par_code, far_ok)
            self._near_field(lv, par_code, mixed)
        self._mixed_descent(mixed)

    def _record_slabs(self, lv: FmmLevel, far: np.ndarray,
                      far_ok: np.ndarray | None) -> None:
        """Record the leaf level of a uniform solver as slab terms.

        Every leaf-leaf pair of offset ``w`` (the lex-positive far
        offsets ``far``, restricted by parity through ``far_ok``, plus
        the near P2P offsets) is a cell of one *shifted slab*: cells
        ``A`` of the dense grid paired with ``B = A + w``.  Leaf centres
        of mass are pinned to the cell centres, so one staged Green
        factor ``(-1/r, w dx / r^3)`` serves the whole slab and no pair
        list, gather or scatter is needed.

        A far offset serves the pairs whose ``A`` cell has a parity in
        its subset ``S``.  Rather than masking per offset, the solve
        multiplies the leaf masses by one cell mask per distinct subset
        (:meth:`_mask_slab_mass`): the ``B`` side's receivers take the
        ``S``-masked masses of ``A``, and the ``A`` side's receivers the
        masses of ``B`` masked by ``S`` permuted by the parity of ``w``
        (``parity(a) = parity(b) ^ (w & 1)``).

        Terms are grouped into ``"slab"`` plan entries of about
        :attr:`_CHUNK` slab cells each, ``(kind, lv, terms, lv, pairs)``.
        """
        M = self._uniform_shape[1]
        near = _lex_positive(p2p_stencil())
        ok = np.ones((len(far) + len(near), 8), dtype=bool)
        if far_ok is not None:
            ok[:len(far)] = far_ok
        g = np.arange(M)
        par = ((g[:, None, None] & 1) << 2) | ((g[None, :, None] & 1) << 1) \
            | (g[None, None, :] & 1)
        subsets: dict[tuple[bool, ...], int] = {}
        terms: list[tuple] = []
        work = pairs = 0
        for w, ok_a in zip(np.concatenate([far, near]), ok):
            ext = M - np.abs(w)
            if (ext <= 0).any():
                continue
            sa = tuple(slice(max(0, -c), M - max(0, c)) for c in w)
            n_pairs = int(ok_a[par[sa]].sum())
            if n_pairs == 0:
                continue
            sb = tuple(slice(max(0, c), M - max(0, -c)) for c in w)
            w_par = ((w[0] & 1) << 2) | ((w[1] & 1) << 1) | (w[2] & 1)
            ok_b = ok_a[np.arange(8) ^ w_par]
            d = w * lv.width
            r2 = float(d @ d)
            inv = 1.0 / np.sqrt(r2)
            green = np.concatenate([[-inv], d * (inv / r2)])
            sub_a = subsets.setdefault(tuple(ok_a), len(subsets))
            sub_b = subsets.setdefault(tuple(ok_b), len(subsets))
            # (masses of A, masses of B, output of A, output of B, factor)
            terms.append(((sub_a,) + sa, (sub_b,) + sb, (slice(None),) + sa,
                          (slice(None),) + sb, green[:, None, None, None]))
            pairs += n_pairs
            work += int(ext.prod())
            if work >= self._CHUNK:
                self._plan.append(("slab", lv, terms, lv, pairs))
                terms, work, pairs = [], 0, 0
        if terms:
            self._plan.append(("slab", lv, terms, lv, pairs))
        self._slab_cells = lv.coords @ np.array([M * M, M, 1])
        self._slab_masks = np.stack([np.array(s)[par] for s in subsets])
        self._slab_mass = np.empty(self._slab_masks.shape)

    def _mask_slab_mass(self) -> None:
        """Per solve: the leaf masses of a uniform solver as a dense grid,
        once per parity subset of :meth:`_record_slabs`."""
        if self._slab_masks is None:
            return
        M = self._uniform_shape[1]
        lv = self.levels[self._uniform_shape[0]]
        grid = np.empty(M ** 3)
        grid[self._slab_cells] = lv.m
        np.multiply(self._slab_masks, grid.reshape(M, M, M),
                    out=self._slab_mass)

    #: pair-batch flush threshold (keeps kernel temporaries ~100 MB)
    _CHUNK = 250_000

    def _m2l_offsets(self, lv: FmmLevel, offsets: np.ndarray,
                     par_code: np.ndarray,
                     par_ok: np.ndarray | None) -> None:
        buf_a: list[np.ndarray] = []
        buf_b: list[np.ndarray] = []
        buffered = 0
        for wi, w in enumerate(offsets):
            nb = lv.coords + w
            slots, found = lv.find(nb)
            sel = found
            if par_ok is not None:
                sel = sel & par_ok[wi][par_code]
            if not sel.any():
                continue
            buf_a.append(np.nonzero(sel)[0])
            buf_b.append(slots[sel])
            buffered += len(buf_a[-1])
            if buffered >= self._CHUNK:
                self._apply_m2l(lv, np.concatenate(buf_a), lv,
                                np.concatenate(buf_b))
                buf_a, buf_b, buffered = [], [], 0
        if buffered:
            self._apply_m2l(lv, np.concatenate(buf_a), lv,
                            np.concatenate(buf_b))

    def _apply_m2l(self, la: FmmLevel, a: np.ndarray,
                   lb: FmmLevel, b: np.ndarray) -> None:
        # leaf-leaf pairs carry no quadrupoles (M2 = 0) and need no
        # Hessian (no children to shift to): route them through the cheap
        # monopole kernel — the paper's 12-flop vs 455-flop split
        both_leaf = la.leaf[a] & lb.leaf[b]
        if both_leaf.all():
            self._apply_p2p(la, a, lb, b)
            return
        if both_leaf.any():
            self._apply_p2p(la, a[both_leaf], lb, b[both_leaf])
            rest = ~both_leaf
            a, b = a[rest], b[rest]
        self._validate_pairs(la, a, lb, b)
        self._plan.append(("m2l", la, a, lb, b))

    @staticmethod
    def _validate_pairs(la: FmmLevel, a: np.ndarray,
                        lb: FmmLevel, b: np.ndarray) -> None:
        """Plan-record-time separation guard, hoisted out of the kernels.

        Distinct cells always have distinct geometric centres (and the
        COMs the kernels divide by lie strictly inside their cells), so
        a zero geometric separation means the pair lists are broken —
        e.g. a cell paired with itself.  Checking once per recorded
        batch replaces the old per-call ``r2 == 0`` scan inside
        ``greens`` on every solve.
        """
        cA = (la.coords[a] + 0.5) * la.width
        cB = (lb.coords[b] + 0.5) * lb.width
        d = cA - cB
        if np.any(np.einsum("ni,ni->n", d, d) == 0.0):
            raise ValueError("coincident cells in interaction kernel")

    def _apply_p2p(self, la: FmmLevel, a: np.ndarray,
                   lb: FmmLevel, b: np.ndarray) -> None:
        self._validate_pairs(la, a, lb, b)
        self._plan.append(("p2p", la, a, lb, b))

    def _near_field(self, lv: FmmLevel,
                    par_code: np.ndarray,
                    mixed: list) -> None:
        li = lv.level
        buf_a: list[np.ndarray] = []
        buf_b: list[np.ndarray] = []
        for w in _lex_positive(p2p_stencil()):
            nb = lv.coords + w
            slots, found = lv.find(nb)
            if not found.any():
                continue
            a = np.nonzero(found)[0]
            b = slots[found]
            a_leaf = lv.leaf[a]
            b_leaf = lv.leaf[b]
            both_leaf = a_leaf & b_leaf
            if both_leaf.any():
                buf_a.append(a[both_leaf])
                buf_b.append(b[both_leaf])
            # leaf x interior: descend on the interior side
            am = a_leaf & ~b_leaf
            if am.any():
                mixed.append((li, a[am], li, b[am]))
            bm = ~a_leaf & b_leaf
            if bm.any():
                mixed.append((li, b[bm], li, a[bm]))
            # interior x interior: children handle it (parity partition)
        if buf_a:
            self._apply_p2p(lv, np.concatenate(buf_a), lv,
                            np.concatenate(buf_b))

    def _mixed_descent(self, queue: list) -> None:
        """AMR-boundary near-field: leaf cell vs refined cell.

        The refined side splits until the pair is well separated at the
        child scale (mixed M2L) or hits a leaf (P2P) — the paper's
        monopole-multipole / multipole-monopole kernel cases.
        """
        level_by_id = {lv.level: lv for lv in self.levels}
        while queue:
            leaf_lvl, leaf_idx, int_lvl, int_idx = queue.pop()
            lleaf = level_by_id[leaf_lvl]
            lint = level_by_id[int_lvl]
            lchild = level_by_id.get(int_lvl + 1)
            if lchild is None:
                # unbalanced input tree: treat as direct interaction
                self._apply_p2p(lleaf, leaf_idx, lint, int_idx)
                continue
            # children of the interior cells (Morton-contiguous)
            child_parent = lchild.parent_slot
            order = np.argsort(child_parent, kind="stable")
            sorted_parents = child_parent[order]
            starts = np.searchsorted(sorted_parents, int_idx, side="left")
            ends = np.searchsorted(sorted_parents, int_idx, side="right")
            reps = ends - starts
            if (reps == 0).any():
                raise RuntimeError("interior cell without children")
            child_slots = np.concatenate([
                order[s:e] for s, e in zip(starts, ends)])
            leaf_rep = np.repeat(leaf_idx, reps)
            # separation test at the child scale, on geometric centres
            ctr_leaf = (lleaf.coords[leaf_rep] + 0.5) * lleaf.width
            ctr_child = (lchild.coords[child_slots] + 0.5) * lchild.width
            d2 = ((ctr_leaf - ctr_child) ** 2).sum(axis=1)
            far = d2 > OPENING_R2 * lchild.width ** 2
            if far.any():
                self._apply_m2l(lleaf, leaf_rep[far], lchild,
                                child_slots[far])
            near = ~far
            if near.any():
                c_leaf = lchild.leaf[child_slots[near]]
                if c_leaf.any():
                    self._apply_p2p(lleaf, leaf_rep[near][c_leaf],
                                    lchild, child_slots[near][c_leaf])
                deeper = ~c_leaf
                if deeper.any():
                    queue.append((leaf_lvl, leaf_rep[near][deeper],
                                  int_lvl + 1, child_slots[near][deeper]))

    def _downward(self) -> None:
        """Step 3: L2L Taylor shifts, coarsest to finest."""
        for lvl in range(1, len(self.levels)):
            child = self.levels[lvl]
            parent = self.levels[lvl - 1]
            ps = child.parent_slot
            d = child.com - parent.com[ps]
            phi, acc, hess = taylor_shift(parent.phi[ps], parent.acc[ps],
                                          parent.hess[ps], d)
            child.phi += phi
            child.acc += acc
            child.hess += hess

    # -- output ---------------------------------------------------------------

    def _collect(self) -> GravityResult:
        phi: dict[int, np.ndarray] = {}
        acc: dict[int, np.ndarray] = {}
        slots: dict[int, np.ndarray] = {}
        for lv in self.levels:
            mask = lv.leaf
            if mask.any():
                sel = np.nonzero(mask)[0]
                phi[lv.level] = lv.phi[sel]
                acc[lv.level] = lv.acc[sel]
                slots[lv.level] = sel
        return GravityResult(phi=phi, acc=acc, leaf_slots=slots)

    def uniform_field(self, result: GravityResult
                      ) -> tuple[np.ndarray, np.ndarray]:
        """For ``from_uniform`` solvers: (phi, acc) as cubic grids."""
        depth, M = self._uniform_shape
        lv = self.levels[depth]
        phi = np.zeros((M, M, M))
        acc = np.zeros((M, M, M, 3))
        sel = result.leaf_slots[depth]
        c = lv.coords[sel]
        phi[c[:, 0], c[:, 1], c[:, 2]] = result.phi[depth]
        acc[c[:, 0], c[:, 1], c[:, 2]] = result.acc[depth]
        return phi, acc
