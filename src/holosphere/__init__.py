"""Minimal spherical surfaces from holomorphic data.

The package builds isotropic holomorphic chains from a list of input
functions, evaluates the resulting unit-sphere surfaces on grids, checks
every asserted geometric invariant numerically, reconstructs the
holomorphic data back from a surface, and exposes the two derived
parametrizations (flat-point-free Kaehler hypersurfaces of Euclidean
space and codimension-two ruled minimal submanifolds of spheres).
"""

from .chain import (
    AlphaChain,
    build_alpha_chain,
    f_chain_eval,
    scan_grid,
)
from .domain import Domain
from .errors import (
    ConfigError,
    DegenerateSurfaceError,
    DomainError,
    EvaluationError,
    HolosphereError,
    NotPseudoholomorphicError,
    ParseError,
    SingularPointError,
)
from .expr import (
    HoloExpr,
    eval_expr,
    parse_expr,
)
from .geometry import (
    DiagnosticsReport,
    SurfaceEvaluator,
    verify_all,
)
from .reconstruct import XiField, roundtrip

__all__ = [
    "AlphaChain",
    "ConfigError",
    "DegenerateSurfaceError",
    "DiagnosticsReport",
    "Domain",
    "DomainError",
    "EvaluationError",
    "HoloExpr",
    "HolosphereError",
    "NotPseudoholomorphicError",
    "ParseError",
    "SingularPointError",
    "SurfaceEvaluator",
    "XiField",
    "build_alpha_chain",
    "eval_expr",
    "f_chain_eval",
    "parse_expr",
    "roundtrip",
    "scan_grid",
    "verify_all",
]

__version__ = "0.1.0"
