"""Spacetime meshing by advancing-front tent pitching.

Builds causal, progressively refinable simplicial meshes in space x time
over 1D and 2D simplicial space meshes, honoring nonuniform and
time-varying wavespeed bounds expressed as slope fields.
"""

__version__ = "0.1.0"

from .constraints import (
    ConstraintConfig,
    ConstraintVerdict,
    causal_segment,
    causal_triangle,
    front_causality_report,
    is_progressive_front,
    is_progressive_triangle,
    progress_ok,
)
from .errors import (
    ContractViolation,
    DegenerateSimplex,
    InvalidArgument,
    NotFound,
    OutOfDomain,
    TentMeshError,
    ValidationError,
)
from .fields import (
    CompositeMinField,
    ConstantField,
    SlopeField,
    SpatialConeField,
    TableField,
    TimeStepField,
    load_field,
    parse_field,
)
from .front import (
    Front,
    advance,
    export_snapshot,
    export_terrain,
    initial_front,
    local_minima,
)
from .hierarchy import ConeHierarchy, ExhaustiveCones
from .hierarchy import build as build_cone_index
from .hierarchy import min_slope_intersecting, ray_shoot, update_leaf
from .mesh import (
    SpaceMesh,
    build_mesh,
    grid_mesh,
    interval_mesh,
    load_mesh,
    save_mesh,
    strip_mesh,
)
from .pitcher import (
    HEURISTICS,
    Patch,
    SpacetimeMesh,
    TentRun,
    advance_until,
    front_prism_volume,
    greedy_height,
)
from .solver import SlopeScript, bind_run, load_script, parse_script, solve_patch
from .cli import (
    export_spacetime_mesh,
    export_vtk,
    load_spacetime_mesh,
    main,
    simplex_volumes,
)

__all__ = [
    "__version__",
    "CompositeMinField",
    "ConeHierarchy",
    "ConstantField",
    "ConstraintConfig",
    "ConstraintVerdict",
    "ContractViolation",
    "DegenerateSimplex",
    "ExhaustiveCones",
    "Front",
    "HEURISTICS",
    "InvalidArgument",
    "NotFound",
    "OutOfDomain",
    "Patch",
    "SlopeField",
    "SlopeScript",
    "SpaceMesh",
    "SpacetimeMesh",
    "SpatialConeField",
    "TableField",
    "TentMeshError",
    "TentRun",
    "TimeStepField",
    "ValidationError",
    "advance",
    "advance_until",
    "bind_run",
    "build_cone_index",
    "build_mesh",
    "causal_segment",
    "causal_triangle",
    "export_snapshot",
    "export_spacetime_mesh",
    "export_terrain",
    "export_vtk",
    "front_causality_report",
    "front_prism_volume",
    "greedy_height",
    "grid_mesh",
    "initial_front",
    "interval_mesh",
    "is_progressive_front",
    "is_progressive_triangle",
    "load_field",
    "load_mesh",
    "load_script",
    "load_spacetime_mesh",
    "local_minima",
    "main",
    "min_slope_intersecting",
    "parse_field",
    "parse_script",
    "progress_ok",
    "ray_shoot",
    "save_mesh",
    "simplex_volumes",
    "solve_patch",
    "strip_mesh",
    "update_leaf",
]
