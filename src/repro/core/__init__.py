"""Octo-Tiger core physics: grid, octree AMR, hydro, FMM gravity, SCF."""

from .grid import (SubGrid, RHO, SX, SY, SZ, EGAS, TAU, PASSIVE0, NPASSIVE,
                   LX, LY, LZ, NF, NGHOST, SUBGRID_N, FIELD_NAMES)
from .eos import IdealGas, DEFAULT_GAMMA
from .exec import ExecutionEngine
from .mesh import Mesh, BlockMesh, apply_boundary
from .distmesh import DistBlockMesh, BlockComponent, slab_partition
from .octree import Octree, OctreeNode, prolong, restrict
from .amr import AmrMesh
from .hydro.solver import HydroOptions, compute_rhs, cfl_dt
from .gravity.fmm import FmmSolver, FmmLevel, GravityResult
from .gravity.stencil import canonical_stencil, parity_stencils, p2p_stencil
from .scf import (LaneEmdenSolution, solve_lane_emden, Polytrope,
                  ScfResult, scf_single_star, scf_binary)
from .scenario import (sod_tube, sedov_blast, equilibrium_star,
                       v1309_binary, V1309_MASS_RATIO)
from .radiation import (RadiationField, RadiationOptions, m1_closure,
                        radiation_rhs, couple_matter, radiation_dt)
from .stepper import (ConservationMonitor, ConservationRecord, evolve,
                      FaultRecoveryExhausted, GuardViolation, GuardedStepper)

__all__ = [
    "SubGrid", "RHO", "SX", "SY", "SZ", "EGAS", "TAU", "PASSIVE0",
    "NPASSIVE", "LX", "LY", "LZ", "NF", "NGHOST", "SUBGRID_N",
    "FIELD_NAMES", "IdealGas", "DEFAULT_GAMMA",
    "Mesh", "BlockMesh", "apply_boundary",
    "DistBlockMesh", "BlockComponent", "slab_partition",
    "ExecutionEngine",
    "Octree", "OctreeNode", "prolong", "restrict", "AmrMesh",
    "HydroOptions", "compute_rhs", "cfl_dt",
    "FmmSolver", "FmmLevel", "GravityResult",
    "canonical_stencil", "parity_stencils", "p2p_stencil",
    "LaneEmdenSolution", "solve_lane_emden", "Polytrope",
    "ScfResult", "scf_single_star", "scf_binary",
    "sod_tube", "sedov_blast", "equilibrium_star", "v1309_binary",
    "V1309_MASS_RATIO",
    "ConservationMonitor", "ConservationRecord", "evolve",
    "FaultRecoveryExhausted", "GuardViolation", "GuardedStepper",
    "RadiationField", "RadiationOptions", "m1_closure", "radiation_rhs",
    "couple_matter", "radiation_dt",
]
