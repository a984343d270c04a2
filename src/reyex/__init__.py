"""Exact symbolic Reynolds expansions of incompressible Navier-Stokes on the
3-torus, with a-posteriori certification of global existence intervals."""

from .rationals import GaussianRational, mpq
from .timepoly import TimePoly, tp_basis
from .fields import TimeField, bilinear_P, static_field
from .symmetry import GroupElement, SymmetryData, find_symmetries
from .expansion import (
    Expansion,
    ResourceLimitError,
    cache_load,
    cache_store,
    expand,
    residual_tail,
)
from .estimators import (
    ConstantsTable,
    EstimatorSet,
    EstimatorTables,
    build_estimator_set,
    default_grid,
)
from .control import (
    ControlTrajectory,
    classical_bounds,
    find_critical_R,
    solve_control,
)
from .data import (
    DatumDescriptor,
    datum_bnw,
    datum_km,
    datum_tg,
    get_datum,
    physical_reynolds,
)

__version__ = "0.1.0"

__all__ = [
    "GaussianRational",
    "mpq",
    "TimePoly",
    "tp_basis",
    "TimeField",
    "bilinear_P",
    "static_field",
    "GroupElement",
    "SymmetryData",
    "find_symmetries",
    "Expansion",
    "ResourceLimitError",
    "cache_load",
    "cache_store",
    "expand",
    "residual_tail",
    "ConstantsTable",
    "EstimatorSet",
    "EstimatorTables",
    "build_estimator_set",
    "default_grid",
    "ControlTrajectory",
    "classical_bounds",
    "find_critical_R",
    "solve_control",
    "DatumDescriptor",
    "datum_bnw",
    "datum_km",
    "datum_tg",
    "get_datum",
    "physical_reynolds",
]
